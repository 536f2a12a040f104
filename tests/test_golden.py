"""stdout of the wss command, pinned byte for byte to files in tests/golden.

Each case runs cli.main in-process and compares what it printed with the
checked-in file. To regenerate the files after an intended change of
output, run `PYTHONPATH=src python tests/test_golden.py` and review the diff.
argparse wraps --help to the terminal width, so every case runs with
COLUMNS=80.
"""

import os
import sys
from pathlib import Path

import pytest

from wallsunsun.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEARCH = ("search", "--k-min", "1", "--k-max", "20", "--p-max", "2000")

# (golden file name, argv); a .json file is the --format json stdout.
CASES = [
    ("check_2_13.json", ("check", "--k", "2", "--p", "13")),
    ("check_2_13.txt", ("check", "--k", "2", "--p", "13")),
    ("check_1_2.json", ("check", "--k", "1", "--p", "2")),
    ("check_1_2.txt", ("check", "--k", "1", "--p", "2")),
    ("check_2_1546463.json", ("check", "--k", "2", "--p", "1546463")),
    ("check_2_1546463.txt", ("check", "--k", "2", "--p", "1546463")),
    ("monogenic_report_1_3.json", ("monogenic", "--k", "1", "--p", "3", "--report")),
    ("monogenic_report_7_5.json", ("monogenic", "--k", "7", "--p", "5", "--report")),
    # F_p is not monogenic here: case 4 at q = p, case 2 at q = 2 and case 5 say "divides"
    ("monogenic_report_2_13.json", ("monogenic", "--k", "2", "--p", "13", "--report")),
    ("monogenic_report_3_241.json", ("monogenic", "--k", "3", "--p", "241", "--report")),
    # |disc F_673| has 4278 digits, just inside str()'s default limit of 4300
    ("monogenic_1_673.txt", ("monogenic", "--k", "1", "--p", "673")),
    ("period_1_169.json", ("period", "--k", "1", "--m", "169")),
    ("discriminant_2_13.json", ("discriminant", "--k", "2", "--p", "13")),
    # p = 101 and a 20-digit k: about 4,243 digits per line
    ("discriminant_1e19_101.txt", ("discriminant", "--k", "10000000000000000000", "--p", "101")),
    # the largest p at k = 1 whose 4278-digit discriminant prints at the default limit
    ("discriminant_1_673.txt", ("discriminant", "--k", "1", "--p", "673")),
    *(
        (f"search_{criterion}.json", (*SEARCH, "--criterion", criterion, "--jobs", "1"))
        for criterion in ("period", "entry", "alpha", "monogenic", "all")
    ),
    # stdout does not depend on --jobs, so both runs share one file
    ("search_all.json", (*SEARCH, "--criterion", "all", "--jobs", "2")),
    ("search_all.txt", (*SEARCH, "--criterion", "all", "--jobs", "1")),
    ("help.txt", ("--help",)),
    *(
        (f"help_{command}.txt", (command, "--help"))
        for command in ("check", "search", "monogenic", "period", "discriminant")
    ),
]


def _argv(name, argv):
    return [*argv, "--format", "json"] if name.endswith(".json") else list(argv)


@pytest.mark.parametrize("name,argv", CASES, ids=[f"{n}:{' '.join(a)}" for n, a in CASES])
def test_stdout_matches_golden_file(capsys, monkeypatch, name, argv):
    monkeypatch.delenv("WSS_FACTOR_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(_argv(name, argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode(), name


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(name, argv))
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_bytes(buf.getvalue().encode())
