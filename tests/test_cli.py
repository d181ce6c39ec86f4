import argparse
import errno
import io
import json
import os
import re
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nulldiam import MAX_CENSUS_ORDER, MAX_VERTICES, Verdict, cli, schemas, to_graph6
from nulldiam.cli import main
from nulldiam.enumeration import canonical_form
from nulldiam.graphs import cycle_graph, path_graph

RECORD_COMMANDS = ("invariants", "check", "reduce")


@pytest.fixture
def g6_file(tmp_path):
    def write(*lines):
        path = tmp_path / "input.g6"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestInvariants:
    def test_k2_record(self, capsys, g6_file):
        code, out, _ = run(capsys, "invariants", "--input", g6_file("A_"))
        assert code == 0
        rec = json.loads(out)
        assert rec == {
            "graph6": "A_",
            "n": 2,
            "connected": True,
            "d": 1,
            "rank": 2,
            "nullity": 0,
            "e": 2,
            "reduced": True,
        }
        jsonschema.validate(rec, schemas.INVARIANT_RECORD)

    def test_known_nullities(self, capsys, g6_file):
        p5 = to_graph6(path_graph(5))
        c4 = to_graph6(cycle_graph(4))
        code, out, _ = run(capsys, "invariants", "--input", g6_file(p5, c4))
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert records[0]["nullity"] == 1
        assert records[1]["nullity"] == 2 and records[1]["reduced"] is False

    def test_parse_error_sets_exit_two(self, capsys, g6_file):
        code, out, _ = run(capsys, "invariants", "--input", g6_file("A_", "A\x05"))
        assert code == 2
        lines = out.splitlines()
        assert json.loads(lines[0])["n"] == 2
        assert "error" in json.loads(lines[1])

    def test_text_format(self, capsys, g6_file):
        code, out, _ = run(capsys, "invariants", "--format", "text", "--input", g6_file("A_"))
        assert code == 0
        assert out.startswith("A_\t") and "nullity=0" in out

    def test_disconnected_reports_null_diameter(self, capsys, g6_file):
        code, out, _ = run(capsys, "invariants", "--input", g6_file("B?"))
        rec = json.loads(out)
        assert rec["connected"] is False and rec["d"] is None
        jsonschema.validate(rec, schemas.INVARIANT_RECORD)

    def test_empty_graph(self, capsys, g6_file):
        code, out, err = run(capsys, "invariants", "--input", g6_file("?", "A_"))
        assert code == 0 and "Traceback" not in err
        rec, k2 = (json.loads(line) for line in out.splitlines())
        assert rec == {
            "graph6": "?",
            "n": 0,
            "connected": False,
            "d": None,
            "rank": 0,
            "nullity": 0,
            "e": 0,
            "reduced": True,
        }
        assert k2["graph6"] == "A_"
        jsonschema.validate(rec, schemas.INVARIANT_RECORD)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_jobs_preserve_order(self, capsys, g6_file, census7, two_cpus, command, fmt):
        path = g6_file(*(to_graph6(g) for g in census7[5]), "B?", "A\x05")
        serial = run(capsys, command, "--format", fmt, "--input", path)
        parallel = run(capsys, command, "--format", fmt, "--jobs", "2", "--input", path)
        assert len(two_cpus) == 1
        assert serial == parallel
        assert len(serial[1].splitlines()) == len(census7[5]) + 2


class TestReduce:
    def test_text_contract(self, capsys, g6_file):
        c4 = to_graph6(cycle_graph(4))
        code, out, _ = run(capsys, "reduce", "--input", g6_file(c4, to_graph6(path_graph(5))))
        assert code == 0
        assert out.splitlines() == ["A_\t2", f"{to_graph6(path_graph(5))}\t0"]

    def test_json_format(self, capsys, g6_file):
        c4 = to_graph6(cycle_graph(4))
        code, out, _ = run(capsys, "reduce", "--format", "json", "--input", g6_file(c4))
        rec = json.loads(out)
        assert rec["removed"] == 2 and rec["d"] == 2 and rec["d_reduced"] == 1
        jsonschema.validate(rec, schemas.REDUCTION_RECORD)

    def test_disconnected_is_input_error(self, capsys, g6_file):
        code, out, _ = run(capsys, "reduce", "--input", g6_file("B?"))
        assert code == 2
        assert "error" in json.loads(out)

    def test_empty_graph_is_input_error(self, capsys, g6_file):
        code, out, err = run(capsys, "reduce", "--input", g6_file("?"))
        assert code == 2 and "Traceback" not in err
        assert "error" in json.loads(out)


class TestCheck:
    def test_family_instance(self, capsys, g6_file):
        g6 = to_graph6(path_graph(5).with_vertex(0b00111))
        code, out, _ = run(capsys, "check", "--input", g6_file(g6))
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] == "EvenExtremal" and rec["variant"] == "G2"
        jsonschema.validate(rec, schemas.RECOGNITION_RESULT)

    def test_odd_extremal_and_not_extremal(self, capsys, g6_file):
        p4 = to_graph6(path_graph(4))
        c5 = to_graph6(cycle_graph(5))
        code, out, _ = run(capsys, "check", "--input", g6_file(p4, c5))
        verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
        assert code == 0
        assert verdicts == ["OddExtremal", "NotExtremal"]

    def test_path_limit_option_is_rejected(self, capsys):
        # the recognizer reads one diameter path, so there is no cap to set
        for argv in (["check", "--path-limit", "5"], ["verify", "--n", "3", "--path-limit", "5"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "unrecognized arguments: --path-limit" in capsys.readouterr().err

    def test_mismatch_exit_code(self, capsys, g6_file):
        # a twin-doubled even-extremal graph is not isomorphic to any family
        # member, so the recognizer flags it and the CLI exits 3
        g6 = to_graph6(path_graph(5).with_vertex(0b00111).with_vertex(0b000111))
        code, out, _ = run(capsys, "check", "--input", g6_file(g6))
        assert code == 3
        assert json.loads(out)["verdict"] == "Mismatch"

    def test_disconnected_is_input_error(self, capsys, g6_file):
        code, out, _ = run(capsys, "check", "--input", g6_file("B?"))
        assert code == 2

    def test_empty_graph_is_input_error(self, capsys, g6_file):
        code, out, err = run(capsys, "check", "--input", g6_file("?", "A_"))
        assert code == 2 and "Traceback" not in err
        first, k2 = (json.loads(line) for line in out.splitlines())
        assert first == {"line": 1, "error": "graph is empty"}
        assert k2["verdict"] == "OddExtremal"
        jsonschema.validate(k2, schemas.RECOGNITION_RESULT)


class TestRecordInput:
    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_non_graph6_bytes_are_charset_errors(self, capsys, monkeypatch, tmp_path, command, source):
        data = b"A_\n\xff\nA\xc3\xa9\nA_\xa0\nA_\n"
        if source == "file":
            (tmp_path / "input.g6").write_bytes(data)
            where = str(tmp_path / "input.g6")
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            where = "-"
        code, out, err = run(capsys, command, "--format", "json", "--input", where)
        assert code == 2 and "Traceback" not in err
        first, *bad, last = (json.loads(line) for line in out.splitlines())
        assert first["graph6"] == last["graph6"] == "A_"
        assert [rec["line"] for rec in bad] == [2, 3, 4]
        assert all(rec["error"].startswith("charset:") for rec in bad)

    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_graph6_file_header_is_not_a_record(self, capsys, tmp_path, command):
        # networkx starts a file with ">>graph6<<" and no line break after it
        nx = pytest.importorskip("networkx")
        graphs = [nx.path_graph(4), nx.cycle_graph(5), nx.empty_graph(2)]
        headed, plain = tmp_path / "headed.g6", tmp_path / "plain.g6"
        nx.write_graph6(graphs[0], headed)
        with open(headed, "ab") as fh:
            fh.writelines(nx.to_graph6_bytes(h, header=False) for h in graphs[1:])
        plain.write_bytes(b"".join(nx.to_graph6_bytes(h, header=False) for h in graphs))
        assert headed.read_bytes().startswith(b">>graph6<<C")
        results = [run(capsys, command, "--format", "json", "--input", str(path)) for path in (headed, plain)]
        assert results[0] == results[1]
        code, out, _ = results[0]
        assert len(out.splitlines()) == 3
        assert code == (0 if command == "invariants" else 2)

    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_unreadable_input_is_input_error(self, capsys, tmp_path, command):
        for where in (str(tmp_path / "missing.g6"), str(tmp_path)):
            code, out, err = run(capsys, command, "--input", where)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and where in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [(command,) for command in RECORD_COMMANDS]
        + [("gen", "--d", "4"), ("verify", "--n", "4", "--suites", "")],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_is_input_error(self, capsys, monkeypatch, tmp_path, g6_file, argv):
        started = []
        monkeypatch.setattr(cli, "verify_theorem", lambda *a, **k: started.append("verify"))
        monkeypatch.setattr(cli, "enumerate_family", lambda *a: started.append("gen") or [])
        if argv[0] in RECORD_COMMANDS:
            argv += ("--input", g6_file("A_"))
        for where in (str(tmp_path / "missing" / "out.txt"), str(tmp_path)):
            code, out, err = run(capsys, *argv, "--out", where)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and where in err and "Traceback" not in err
        assert started == []

    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_out_naming_the_input_is_input_error(self, capsys, tmp_path, g6_file, command):
        # opening --out for writing would empty the input before a line is read
        path = g6_file("A_", "C]")
        before = Path(path).read_bytes()
        link = tmp_path / "link.g6"
        link.symlink_to(path)
        for where in (path, str(link)):
            code, out, err = run(capsys, command, "--input", path, "--out", where)
            assert code == 2 and out == ""
            message = f"nulldiam {command}: --out {where} is the --input file, which writing would empty"
            assert err == message + "\n"
            assert Path(path).read_bytes() == before

    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_out_naming_the_file_on_stdin_is_input_error(self, capsys, monkeypatch, tmp_path, g6_file, command):
        # `nulldiam invariants --out g.g6 < g.g6` would empty g.g6 the same way
        path = g6_file("A_", "C]")
        before = Path(path).read_bytes()
        other = tmp_path / "out.txt"
        for stdin, out, expected in ((path, path, 2), (path, str(other), 0), (os.devnull, os.devnull, 0)):
            with open(stdin) as fh:
                monkeypatch.setattr(sys, "stdin", fh)
                code, printed, err = run(capsys, command, "--out", out)
            assert (code, printed) == (expected, "")
            if expected:
                assert err == f"nulldiam {command}: --out {out} is the --input file, which writing would empty\n"
        assert Path(path).read_bytes() == before
        assert len(other.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "argv",
        [(command,) for command in RECORD_COMMANDS] + [("verify", "--n", "4")],
        ids=lambda argv: argv[0],
    )
    def test_jobs_below_one_or_not_a_number_is_usage_error(self, capsys, monkeypatch, argv):
        started = []
        monkeypatch.setattr(cli, "ordered_map", lambda jobs: started.append(jobs))
        monkeypatch.setattr(cli, "verify_theorem", lambda *a, **k: started.append("verify"))
        for jobs, message in (("0", "at least 1"), ("-3", "at least 1"), ("x", "a number")):
            with pytest.raises(SystemExit) as err:
                main([*argv, "--jobs", jobs])
            assert err.value.code == 2
            assert f"argument --jobs: expected {message}" in capsys.readouterr().err
        assert started == []

    def test_output_streams_before_input_ends(self, capsys, monkeypatch):
        printed = []

        def lines():
            yield b"A_\n"
            printed.append(capsys.readouterr().out)
            yield b"B?\n"

        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=lines()))
        code, out, _ = run(capsys, "invariants")
        assert code == 0
        assert json.loads(printed[0])["graph6"] == "A_"
        assert json.loads(out)["graph6"] == "B?"

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(RECORD_COMMANDS), lines=st.lists(st.binary(max_size=8), max_size=4))
    def test_arbitrary_bytes_give_an_answer_per_line(self, capsys, monkeypatch, command, lines):
        data = b"\n".join(lines)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, command)
        assert code in (0, 2, 3) and "Traceback" not in err
        ascii_space = string.whitespace.encode()
        assert len(out.splitlines()) == sum(1 for line in data.split(b"\n") if line.strip(ascii_space))


class TestGen:
    def test_d4(self, capsys):
        code, out, _ = run(capsys, "gen", "--d", "4", "--n-max", "7")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_d2_is_empty_but_ok(self, capsys):
        code, out, _ = run(capsys, "gen", "--d", "2", "--n-max", "10")
        assert code == 0
        assert out == ""

    def test_odd_d_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--d", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("n_max", ["5", "1"])
    def test_n_max_below_the_smallest_member_prints_nothing(self, capsys, n_max):
        code, out, _ = run(capsys, "gen", "--d", "4", "--n-max", n_max)
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("d, lines", [("4", ["EhF_"]), ("6", ["GhCGN?", "GhCGHo"])])
    def test_n_max_8_output(self, capsys, d, lines):
        code, out, _ = run(capsys, "gen", "--d", d, "--n-max", "8")
        assert code == 0
        assert out.splitlines() == lines

    @pytest.mark.parametrize(
        "n_max, message",
        [
            ("0", "expected at least 1 vertex, got 0"),
            ("-5", "expected at least 1 vertex, got -5"),
            ("x", "expected a number of vertices, got 'x'"),
        ],
        ids=["0", "-5", "x"],
    )
    def test_bad_n_max_is_usage_error(self, capsys, n_max, message):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--d", "4", "--n-max", n_max])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"nulldiam gen: error: argument --n-max: {message}"

    def test_d_that_is_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--d", "x"])
        assert err.value.code == 2
        assert "argument --d: expected an even diameter >= 2, got 'x'" in capsys.readouterr().err

    def test_d_beyond_the_vertex_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--d", str(MAX_VERTICES)])
        assert err.value.code == 2
        assert f"at most {MAX_VERTICES}" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "family.g6"
        code, out, _ = run(capsys, "gen", "--d", "6", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == run(capsys, "gen", "--d", "6")[1]

    def test_gen_output_recognized(self, capsys):
        code, out, _ = run(capsys, "gen", "--d", "6")
        assert code == 0
        from nulldiam import parse_graph6, recognize, Verdict

        for line in out.splitlines():
            assert recognize(parse_graph6(line)).verdict is Verdict.EVEN_EXTREMAL


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, err = run(capsys, "verify", "--n-range", "1..5", "--suites", "twin-deletion")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schemas.SWEEP_REPORT)
        assert report["per_n"]["5"]["connected"] == 21
        assert "n=5:" in err

    def test_a_suite_named_twice_is_listed_once(self, capsys):
        reports = []
        for suites in ("interlacing", "interlacing,interlacing"):
            code, out, _ = run(capsys, "verify", "--n", "4", "--suites", suites)
            assert code == 0
            report = json.loads(out)
            jsonschema.validate(report, schemas.SWEEP_REPORT)
            report.pop("timings")
            reports.append(report)
        assert reports[0]["suites"] == ["interlacing"]
        assert reports[1] == reports[0]

    def test_single_n_with_recognition(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--suites", "")
        assert code == 0
        report = json.loads(out)
        assert report["per_n"]["6"]["even_extremal"] == 1
        assert report["per_n"]["6"]["recognized"] == 1
        assert report["mismatches"] == []
        expected = canonical_form(path_graph(5).with_vertex(0b00111)).decode()
        assert report["recognized"][0]["graph6"] == expected

    def test_requires_range(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify"])
        assert err.value.code == 2

    def test_bad_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--n", "3", "--suites", "bogus"])
        assert err.value.code == 2

    def test_order_above_census_limit_is_usage_error(self, capsys):
        for argv in (["--n", str(MAX_CENSUS_ORDER + 2)], ["--n-range", f"1..{MAX_CENSUS_ORDER + 1}"]):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--suites", "", *argv])
            assert err.value.code == 2
            assert f"up to {MAX_CENSUS_ORDER}" in capsys.readouterr().err

    def test_order_below_one_is_usage_error(self, capsys):
        for argv in (["--n", "0"], ["--n", "-1"], ["--n-range", "0..3"], ["--n-range", "2..0"]):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--suites", "", *argv])
            assert err.value.code == 2
            assert f"1..{MAX_CENSUS_ORDER}" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--n", "x"), ("--n-range", "3..x"), ("--n-range", "x..3")])
    def test_order_that_is_not_a_number_is_usage_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suites", "", option, value])
        assert err.value.code == 2
        expected = f"argument {option}: expected a number of vertices in 1..{MAX_CENSUS_ORDER}, got 'x'"
        assert expected in capsys.readouterr().err

    def test_reversed_range_is_usage_error(self, capsys):
        # an empty range would verify nothing and still exit 0
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suites", "", "--n-range", "5..3"])
        assert err.value.code == 2
        assert "argument --n-range: expected A..B with A <= B, got '5..3'" in capsys.readouterr().err

    def test_range_without_two_bounds_is_usage_error(self, capsys):
        for value in ("3", "1..2..3"):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--suites", "", "--n-range", value])
            assert err.value.code == 2
            assert f"argument --n-range: expected A..B, got {value!r}" in capsys.readouterr().err

    def test_single_job_run_never_imports_multiprocessing(self):
        # a --jobs 1 run opens no pool, so it should not pay the import;
        # a fresh interpreter, since this one may have imported it already
        script = (
            "import sys\n"
            "from nulldiam import cli\n"
            "code = cli.main(['verify', '--n', '3', '--suites', '', '--jobs', '1'])\n"
            "print(code, 'multiprocessing' in sys.modules, file=sys.stderr)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["per_n"]["3"]["connected"] == 2
        assert done.stderr.splitlines()[-1] == "0 False"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--n", "4", "--suites", "", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["per_n"]["4"]["connected"] == 6


WRITING_COMMANDS = [(command,) for command in RECORD_COMMANDS] + [
    ("gen", "--d", "8"),
    ("verify", "--n", "4", "--suites", ""),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteErrors:
    """Output that cannot be written is an input error, like an ``--out``
    that cannot be opened: one stderr line and exit 2, in a fresh
    interpreter, so that its final flush of stdout is part of the run."""

    @staticmethod
    def nulldiam(argv, stdout):
        return subprocess.run(
            [sys.executable, "-m", "nulldiam.cli", *argv],
            input="A_\n",
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )

    @pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: argv[0])
    def test_out_that_cannot_be_written(self, argv):
        done = self.nulldiam([*argv, "--out", "/dev/full"], subprocess.PIPE)
        reason = os.strerror(errno.ENOSPC)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"nulldiam {argv[0]}: cannot write /dev/full: {reason}\n"

    @pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: argv[0])
    def test_stdout_that_cannot_be_written(self, argv):
        with open("/dev/full", "w") as full:
            done = self.nulldiam(argv, full)
        reason = os.strerror(errno.ENOSPC)
        assert done.returncode == 2
        assert done.stderr == f"nulldiam {argv[0]}: cannot write standard output: {reason}\n"

    def test_a_broken_pipe_ends_quietly(self):
        # gen --d 30 writes more than a pipe holds, so it is still writing
        # when the reader goes away after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "nulldiam.cli", "gen", "--d", "30"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
        )
        assert proc.stdout.readline().startswith(b"_")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


def test_readme_names_only_accepted_options():
    # every option the README shows, in inline code or in a ``nulldiam``
    # command line, is accepted by some subcommand
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    shown = re.findall(r"`([^`\n]+)`", readme)
    shown += [line for line in readme.splitlines() if re.search(r"\bnulldiam [a-z]", line)]
    named = {flag for text in shown for flag in re.findall(r"--[a-z][a-z0-9-]*", text)}
    [subparsers] = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {flag for p in subparsers.choices.values() for flag in p._option_string_actions}
    assert named and named <= accepted, sorted(named - accepted)


def test_readme_library_tour_runs():
    # the tour calls the public API, so a stale example fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    tour = {}
    exec(block, tour)
    g = tour["g"]
    assert tour["nullity"](g) == 1
    assert tour["recognize"](g).verdict is Verdict.EVEN_EXTREMAL
    assert tour["report"].mismatches == []


def test_unknown_log_level_is_usage_error(capsys, monkeypatch, g6_file):
    path = g6_file("A_")
    monkeypatch.setenv("NULLITY_LOG", "chatty")
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--input", path])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "environment variable NULLITY_LOG: unknown log level 'chatty'" in stderr
    assert "Traceback" not in stderr
    # a known level is accepted in any case
    monkeypatch.setenv("NULLITY_LOG", "warning")
    assert run(capsys, "invariants", "--input", path)[0] == 0
