"""Acceptance suite: one test per exit criterion, each printed as a
pass/fail line with its elapsed time against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s``.  The n = 9 extended
sweep is gated behind ``NULLDIAM_ACCEPT_N9=1`` (it enumerates ~261k
classes); everything else runs by default.
"""

import math
import os
import random
import time

import pytest

from nulldiam import (
    adjacency_matrix,
    canonical_form,
    char_poly,
    cycle_graph,
    cycle_nullity,
    enumerate_family,
    generate_family,
    is_extremal,
    nullity,
    parse_graph6,
    path_graph,
    path_nullity,
    rank_exact,
    rank_mod_p,
    recognize,
    to_graph6,
    verify_theorem,
    zero_root_multiplicity,
    Graph,
    Verdict,
)
from nulldiam.lemmas import (
    check_interlacing,
    check_pendant_deletion,
    check_rank_bound_diam,
    check_rank_lower_bound,
    check_reduction_equivalence,
    check_twin_deletion,
    check_twin_extension,
)

from helpers import (
    automorphism_count,
    labeled_connected_count,
    labeled_connected_count_vectorized,
    random_graph,
)

CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)


def _finish(num: int, description: str, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"\ncriterion {num}: PASS ({elapsed:.2f}s{budget_note}) {description}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_closed_form_nullities():
    started = time.perf_counter()
    for m in range(1, 31):
        assert path_nullity(m) == nullity(path_graph(m)), f"path on {m} vertices"
    for m in range(3, 31):
        assert cycle_nullity(m) == nullity(cycle_graph(m)), f"cycle on {m} vertices"
    _finish(1, "path/cycle closed-form nullities match exact rank, m <= 30", started, 1.0)


def test_criterion_2_rank_oracle_cross_check(census8):
    started = time.perf_counter()
    escalations = 0
    total = 0
    for n in range(1, 9):
        for g in census8[n]:
            total += 1
            m = adjacency_matrix(g)
            r = rank_exact(m)
            if rank_mod_p(m, 65521) != r:
                escalations += 1
                if rank_mod_p(m, 32003) != r and rank_mod_p(m, 1000003) != r:
                    pytest.fail(f"no prime confirmed rank {r} of {to_graph6(g)}")
    assert total == 12113
    assert escalations == 0
    _finish(2, f"rank_exact == rank mod 65521 on all {total} classes, n <= 8", started, 120.0)


def test_criterion_3_char_poly_consistency(census8):
    started = time.perf_counter()
    total = 0
    for n in range(1, 8):
        for g in census8[n]:
            total += 1
            assert zero_root_multiplicity(char_poly(adjacency_matrix(g))) == nullity(g)
    _finish(3, f"nullity == zero-root multiplicity on all {total} classes, n <= 7", started, 60.0)


def test_criterion_4_lemma_suites_clean(census8):
    started = time.perf_counter()
    checkers = (
        check_interlacing,
        check_twin_deletion,
        check_pendant_deletion,
        check_rank_bound_diam,
        check_twin_extension,
        check_rank_lower_bound,
    )
    instances = 0
    for n in range(1, 8):
        for g in census8[n]:
            for checker in checkers:
                report = checker(g)
                assert report.ok, report.to_dict()
                assert not report.truncated
                instances += report.checked
    _finish(
        4,
        f"interlacing/twin/pendant/rank-bound/twin-extension/rank-lower-bound clean "
        f"({instances} instances), n <= 7",
        started,
        300.0,
    )


def test_criterion_5_reduction_equivalence_finding(census8):
    started = time.perf_counter()
    violations = []
    for n in range(2, 8):
        for g in census8[n]:
            violations.extend(check_reduction_equivalence(g).violations)
    assert violations, "the reduction-equivalence suite is expected to find violations"
    c4 = canonical_form(cycle_graph(4)).decode()
    assert c4 in {v.graph6 for v in violations}
    for v in violations:
        assert v.witness["d_reduced"] < v.witness["d"], v.to_dict()
        assert v.severity == "violation"
    _finish(
        5,
        f"reduction-equivalence reports {len(violations)} violations incl. C_4, "
        "every one with a diameter drop, n <= 7",
        started,
        None,
    )


def _family_forms(d: int, n_max: int) -> set[str]:
    return {
        canonical_form(g, limit=max(10, g.n)).decode() for g in enumerate_family(d, n_max)
    }


def test_criterion_6_exhaustive_theorem_sweep():
    started = time.perf_counter()
    report = verify_theorem(1, 8, suites=())
    assert report.mismatches == []
    assert report.inconclusive == []
    assert report.unreduced_failures == []
    for n, totals in report.per_n.items():
        assert totals.recognized == totals.even_extremal, f"shortfall at n={n}"
    census_by_d: dict[int, set[str]] = {}
    for rec in report.recognized:
        census_by_d.setdefault(rec["d"], set()).add(rec["graph6"])
    for d in (2, 4, 6):
        assert _family_forms(d, 8) == census_by_d.get(d, set()), f"family/census split at d={d}"
    recognized = sum(t.recognized for t in report.per_n.values())
    _finish(
        6,
        f"zero mismatches over all connected graphs n <= 8; {recognized} even-extremal "
        "classes match the generated family exactly",
        started,
        600.0,
    )


@pytest.mark.skipif(
    not os.environ.get("NULLDIAM_ACCEPT_N9"),
    reason="extended n=9 sweep (~261k classes); set NULLDIAM_ACCEPT_N9=1 to run",
)
def test_criterion_6_extended_n9():
    started = time.perf_counter()
    jobs = int(os.environ.get("NULLDIAM_JOBS", "1"))
    report = verify_theorem(1, 9, suites=(), jobs=jobs)
    assert report.mismatches == []
    assert report.inconclusive == []
    assert report.unreduced_failures == []
    assert report.per_n[9].connected == 261080
    census_by_d: dict[int, set[str]] = {}
    for rec in report.recognized:
        census_by_d.setdefault(rec["d"], set()).add(rec["graph6"])
    for d in (2, 4, 6):
        assert _family_forms(d, 9) == census_by_d.get(d, set()), f"family/census split at d={d}"
    _finish(6, "extended sweep: zero mismatches over all connected graphs n <= 9", started, None)


def test_criterion_7_generator_round_trip():
    started = time.perf_counter()
    members = 0
    for d in (2, 4, 6, 8, 10):
        for g in enumerate_family(d, d + 5):
            members += 1
            assert is_extremal(g)
            result = recognize(g)
            assert result.verdict is Verdict.EVEN_EXTREMAL, result.to_dict()
            regenerated = generate_family(result.params)
            assert isinstance(regenerated, Graph), regenerated
            assert canonical_form(regenerated, limit=regenerated.n) == canonical_form(
                g, limit=g.n
            )
    _finish(
        7,
        f"{members} family members over even d <= 10 recognized and regenerated "
        "up to isomorphism",
        started,
        60.0,
    )


def test_criterion_8_census_against_labeled_oracle(census8):
    started = time.perf_counter()
    for n, expected in enumerate(CONNECTED_CLASS_COUNTS, start=1):
        assert len(census8[n]) == expected
    # independent oracle: labelled enumeration plus orbit-stabilizer folding
    for n in range(2, 8):
        labeled = (
            labeled_connected_count(n) if n <= 6 else labeled_connected_count_vectorized(n)
        )
        folded = sum(math.factorial(n) // automorphism_count(g.rows) for g in census8[n])
        assert folded == labeled, f"orbit-stabilizer mismatch at n={n}"
    _finish(
        8,
        "census counts (1,1,2,6,21,112,853) confirmed by labelled enumeration "
        "via orbit-stabilizer",
        started,
        120.0,
    )


def test_criterion_9_graph6_round_trip(census8):
    started = time.perf_counter()
    for n in range(1, 8):
        for g in census8[n]:
            assert parse_graph6(to_graph6(g)) == g
    rng = random.Random(20260810)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 32), p=rng.random())
        assert parse_graph6(to_graph6(g)) == g
    _finish(9, "graph6 round-trip identity on the n <= 7 corpus plus 1000 random graphs", started, None)
