"""``python -m nulldiam`` and the ``nulldiam`` script: the command line
run as the program, so that each command loads only the modules it runs
(see :mod:`nulldiam.cli`)."""

import runpy


def main() -> None:
    runpy.run_module("nulldiam.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
