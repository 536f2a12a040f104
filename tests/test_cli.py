"""Command line surface: JSON schema, exit codes, determinism."""

import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest depends on tomli below 3.11
    import tomli as tomllib

import wallsunsun
from wallsunsun import cli
from wallsunsun.cli import SCHEMA_VERSION, main
from wallsunsun.errors import FactorizationBudgetError, ResourceBudgetError
from wallsunsun.intmath import is_prime
from wallsunsun.lucas import pisano_period
from wallsunsun.trinomial import fp_discriminant

HARD_K = "4001742"  # see test_wss.py: rho-hard hypothesis quantity
# k = 2 mod 4 whose D = (k^2+4)/4 factors within 300 rho iterations while
# k^2+4, whose rho is seeded differently, does not: a command that factored
# k^2+4 again after validate_k ran out of budget on a valid k.
RHO_SEED_K = "19816596295742"
# 1000003 * 1000033: both factors lie above trial division's bound, so
# factoring it takes rho iterations.
SEMIPRIME_M = "1000036000099"
# 2 * 1000037 * 1000117 + 1: a prime whose Wall multiple p - 1 (k = 1) takes
# rho iterations to factor.
RHO_PERIOD_P = "2000308008659"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, (code, out, err)
    return json.loads(out)


# -------------------------------------------------------------------- schema


def test_check_json_schema(capsys):
    doc = run_json(capsys, "check", "--k", "2", "--p", "13")
    assert doc["schema_version"] == SCHEMA_VERSION == "1"
    assert doc["command"] == "check"
    assert doc["inputs"] == {"k": 2, "p": 13}
    result = doc["result"]
    assert set(result) == {
        "delta", "delta_applicable", "pi_p", "pi_p2",
        "by_period", "by_entry", "by_alpha", "by_monogenic",
        "entry_alpha_derived", "consistent", "is_wss",
    }
    assert result["is_wss"] is True
    assert result["delta"] == -1
    assert (result["pi_p"], result["pi_p2"]) == (28, 28)


def test_json_rendering_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "check", "--k", "1", "--p", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_round_trips_for_every_command(capsys):
    invocations = [
        ("check", "--k", "3", "--p", "5"),
        ("search", "--k-min", "1", "--k-max", "3", "--p-max", "40"),
        ("monogenic", "--k", "1", "--p", "3", "--report"),
        ("period", "--k", "1", "--m", "10"),
        ("discriminant", "--k", "2", "--p", "3"),
    ]
    for argv in invocations:
        doc = run_json(capsys, *argv)
        assert doc["command"] == argv[0]
        assert doc["schema_version"] == "1"
        assert json.loads(json.dumps(doc)) == doc


def test_timing_field_only_on_request(capsys):
    doc = run_json(capsys, "period", "--k", "1", "--m", "5")
    assert "timing_ms" not in doc
    code, out, err = run_cli(capsys, "period", "--k", "1", "--m", "5", "--format", "json", "--timing")
    assert code == 0
    assert "timing_ms" in json.loads(out)
    assert "timing_ms=" in err


def test_timing_always_reported_on_stderr(capsys):
    code, out, err = run_cli(capsys, "period", "--k", "1", "--m", "5")
    assert code == 0
    assert "timing_ms=" in err
    assert "timing_ms" not in out


# ------------------------------------------------------------------ commands


def test_check_text_output(capsys):
    code, out, _ = run_cli(capsys, "check", "--k", "2", "--p", "13")
    assert code == 0
    assert "k=2, p=13" in out
    assert "is_wss        yes" in out


def test_period_command_matches_library(capsys):
    doc = run_json(capsys, "period", "--k", "1", "--m", "25")
    assert doc["inputs"] == {"k": 1, "m": 25}
    assert doc["result"] == {"pi": 100}


def test_period_of_a_large_prime_is_immediate(capsys):
    t0 = time.perf_counter()
    doc = run_json(capsys, "period", "--k", "1", "--m", "1000000007")
    assert time.perf_counter() - t0 < 1.0
    assert doc["result"] == {"pi": 2000000016}


def test_period_honours_the_factor_budget(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "period", "--k", "1", "--m", SEMIPRIME_M, "--factor-budget", "1"
    )
    assert (code, out) == (4, "")
    assert "budget" in err.lower()
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "1")
    assert run_cli(capsys, "period", "--k", "1", "--m", SEMIPRIME_M)[0] == 4
    doc = run_json(capsys, "period", "--k", "1", "--m", SEMIPRIME_M, "--factor-budget", str(10**7))
    expected = math.lcm(pisano_period(1, 1000003), pisano_period(1, 1000033))
    assert doc["result"] == {"pi": expected}


def test_check_budget_also_bounds_the_period(capsys):
    code, out, err = run_cli(
        capsys, "check", "--k", "1", "--p", RHO_PERIOD_P, "--factor-budget", "1"
    )
    assert (code, out) == (4, "")
    assert "budget" in err.lower()
    doc = run_json(capsys, "check", "--k", "1", "--p", RHO_PERIOD_P)
    assert doc["result"]["consistent"] is True


def test_discriminant_command_cross_checks(capsys):
    doc = run_json(capsys, "discriminant", "--k", "2", "--p", "13")
    want = fp_discriminant(2, 13)
    assert doc["result"]["closed_form"] == want
    assert doc["result"]["resultant"] == want
    assert doc["result"]["match"] is True


DISCRIMINANT_2_13_JSON = """{
  "command": "discriminant",
  "inputs": {
    "k": 2,
    "p": 13
  },
  "result": {
    "closed_form": 50430931601057032690046355770574469332992,
    "match": true,
    "resultant": 50430931601057032690046355770574469332992
  },
  "schema_version": "1"
}
"""
DISCRIMINANT_2_13_TEXT = """discriminant of x^26 + (-2)*x^13 + (-1)
  closed form  50430931601057032690046355770574469332992
  resultant    50430931601057032690046355770574469332992
  match        yes
"""


def test_discriminant_is_bounded_by_digits_not_by_p(capsys, default_str_digits):
    # |disc F_p| at k = 1 has 4278 digits at p = 673 and 4307 at p = 677
    assert issubclass(FactorizationBudgetError, ResourceBudgetError)
    for p, want in (("673", 0), ("677", 4)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "discriminant", "--k", "1", "--p", p)
        assert time.perf_counter() - start < 1.0
        assert code == want, err
    assert out == "" and err.startswith("resource budget exceeded:")
    # p is still tested before the digits: a composite is invalid, not over budget
    assert run_cli(capsys, "discriminant", "--k", "1", "--p", "1000")[0] == 2
    assert run_cli(capsys, "discriminant", "--k", "2", "--p", "13", "--format", "json")[:2] == (
        0,
        DISCRIMINANT_2_13_JSON,
    )
    assert run_cli(capsys, "discriminant", "--k", "2", "--p", "13")[:2] == (0, DISCRIMINANT_2_13_TEXT)


@pytest.mark.parametrize("command", ["monogenic", "discriminant"])
def test_with_the_digit_limit_off_the_default_limit_still_bounds_the_output(capsys, command):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        at_default = run_cli(capsys, command, "--k", "1", "--p", "673")[:2]
        sys.set_int_max_str_digits(0)
        assert run_cli(capsys, command, "--k", "1", "--p", "673")[:2] == at_default
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--k", "1", "--p", "677")
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(old)
    assert at_default[0] == 0
    assert (code, out) == (4, "")
    assert err.startswith("resource budget exceeded: disc F_p for k=1, p=677 has over 4300 digits")


def test_discriminant_at_p_101_with_a_twenty_digit_k_is_quick(capsys, default_str_digits):
    k = 10**19
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discriminant", "--k", str(k), "--p", "101")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert out.splitlines()[1:] == [
        f"  closed form  {fp_discriminant(k, 101)}",
        f"  resultant    {fp_discriminant(k, 101)}",
        "  match        yes",
    ]


@pytest.fixture
def default_str_digits():
    """str() of an int at the interpreter's default limit of 4300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        ("monogenic", "--k", "1", "--p", "677"),  # |disc F_677| has 4307 digits
        ("discriminant", "--k", str(10**20), "--p", "101"),  # 4445 digits
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_discriminant_too_long_to_print_is_over_budget(capsys, default_str_digits, argv, fmt):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith(f"resource budget exceeded: disc F_p for k={argv[2]}, p={argv[4]}")


def _least_unprintable_k(p, limit):
    """The least k with |disc F_p| >= 10^limit, by bisection."""
    lo, hi = 1, 10 ** (limit // (2 * p) + 1)  # k^(2p) alone reaches 10^limit at hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if abs(fp_discriminant(mid, p)) >= 10**limit else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_the_digit_check_matches_str_exactly(default_str_digits, limit):
    # str() fails exactly when |disc| >= 10^limit, and limit 0 (off) counts
    # as the default 4300. The check decides that on floats away from the
    # limit, so the cells include the k either side of it.
    digits = limit or 4300
    sys.set_int_max_str_digits(digits)
    cells = [(k, p) for k in (1, 2, 3, 10**6, 10**40) for p in filter(is_prime, range(2, 700))]
    for p in (2, 13, 101):
        k = _least_unprintable_k(p, digits)
        cells += [(k - 1, p), (k, p)]
    for k, p in cells:
        try:
            str(fp_discriminant(k, p))
            printable = True
        except ValueError:
            printable = False
        sys.set_int_max_str_digits(limit)
        try:
            passed = cli._printable_discriminant(k, p) == fp_discriminant(k, p)
        except ResourceBudgetError:
            passed = False
        sys.set_int_max_str_digits(digits)
        assert passed == printable, (k, p, limit)


def test_monogenic_report_toggle(capsys):
    bare = run_json(capsys, "monogenic", "--k", "1", "--p", "3")
    assert "verdicts" not in bare["result"]
    assert bare["result"]["monogenic"] is True
    assert bare["result"]["discriminant"] == 91125

    full = run_json(capsys, "monogenic", "--k", "1", "--p", "3", "--report")
    verdicts = full["result"]["verdicts"]
    assert {v["q"] for v in verdicts} == {3, 5}
    assert all(v["divides_index"] is False for v in verdicts)


@pytest.mark.parametrize(
    "argv,inputs",
    [
        (("check", "--k", "2", "--p", "13"), {"k": 2, "p": 13}),
        (("search", "--k-min", "1", "--k-max", "3", "--p-max", "20", "--jobs", "1"),
         {"k_min": 1, "k_max": 3, "p_max": 20, "criterion": "all"}),
        (("monogenic", "--k", "1", "--p", "3", "--report"), {"k": 1, "p": 3}),
        (("period", "--k", "1", "--m", "10"), {"k": 1, "m": 10}),
        (("discriminant", "--k", "2", "--p", "13"), {"k": 2, "p": 13}),
    ],
)
def test_json_inputs_echo_what_determines_the_result(capsys, argv, inputs):
    # --jobs and --report are left out: the result does not depend on --jobs,
    # and --report only adds the verdicts field
    doc = run_json(capsys, *argv)
    assert (doc["command"], doc["inputs"]) == (argv[0], inputs)


def test_search_json_shape_and_known_hits(capsys):
    doc = run_json(capsys, "search", "--k-min", "1", "--k-max", "4", "--p-max", "50")
    result = doc["result"]
    assert result["skipped_k"] == [4]
    assert [(h["k"], h["p"]) for h in result["hits"]] == [(2, 13), (2, 31)]
    for h in result["hits"]:
        assert h["classification"]["is_wss"] is True


def test_search_period_criterion_has_no_classification(capsys):
    doc = run_json(
        capsys, "search", "--k-min", "4", "--k-max", "4", "--p-max", "5",
        "--criterion", "period",
    )
    hits = doc["result"]["hits"]
    assert [(h["k"], h["p"]) for h in hits] == [(4, 2), (4, 3)]
    assert all("classification" not in h for h in hits)
    assert doc["result"]["skipped_k"] == []


def test_search_text_mentions_skips(capsys):
    code, out, _ = run_cli(capsys, "search", "--k-min", "4", "--k-max", "4", "--p-max", "20")
    assert code == 0
    assert "skipped" in out


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv,code",
    [
        (("check", "--k", "2", "--p", "13"), 0),
        (("check", "--k", "4", "--p", "3"), 1),      # 4 | k
        (("check", "--k", "11", "--p", "3"), 1),     # 125 not squarefree
        (("monogenic", "--k", "4", "--p", "3"), 1),
        (("check", "--k", "2", "--p", "6"), 2),      # composite p
        (("check", "--k", "0", "--p", "3"), 2),
        (("period", "--k", "1", "--m", "1"), 2),
        (("search", "--k-min", "5", "--k-max", "3", "--p-max", "10"), 2),
        (("search", "--k-min", "1", "--k-max", "2", "--p-max", "10", "--criterion", "bogus"), 2),
        (("check", "--k", HARD_K, "--p", "3", "--factor-budget", "10"), 4),
        (("check", "--k", HARD_K, "--p", "3"), 0),   # default budget suffices
        (("check", "--k", "1", "--p", "5", "--factor-budget", "0"), 0),  # 0 spends no rho
    ],
)
def test_exit_code_matrix(capsys, argv, code):
    got = main(list(argv))
    capsys.readouterr()
    assert got == code, argv


def test_unknown_arguments_exit_2(capsys):
    assert main(["check", "--k", "2"]) == 2            # missing --p
    capsys.readouterr()
    assert main(["check", "--k", "2", "--p", "3", "--frobnicate"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_one_process_parses_like_fresh_ones(capsys):
    """main builds its parser once per process; a failed parse leaves nothing behind."""
    bad = ["check", "--k", "2", "--p", "x"]
    good = ["check", "--k", "2", "--p", "13", "--format", "json"]
    fresh = []
    for argv in (bad, good):
        proc = subprocess.run(
            [sys.executable, "-m", "wallsunsun.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [2, 0]
    in_process = [run_cli(capsys, *argv)[:2] for argv in (bad, good, bad)]
    assert in_process == [fresh[0], fresh[1], fresh[0]]


def test_error_messages_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "check", "--k", "4", "--p", "3")
    assert code == 1
    assert out == ""
    assert "hypothesis violation" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "10")
    code, _, err = run_cli(capsys, "check", "--k", HARD_K, "--p", "3")
    assert code == 4
    assert "budget" in err.lower()


def test_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "10")
    code, _, _ = run_cli(capsys, "check", "--k", HARD_K, "--p", "3",
                         "--factor-budget", str(10**7))
    assert code == 0


def test_budget_that_validates_k_also_completes_the_command(capsys):
    doc = run_json(capsys, "check", "--k", RHO_SEED_K, "--p", "3", "--factor-budget", "300")
    assert doc["result"]["consistent"] is True
    doc = run_json(capsys, "monogenic", "--k", RHO_SEED_K, "--p", "3", "--factor-budget", "300")
    assert doc["result"]["monogenic"] is True


def test_malformed_budget_env_is_invalid_arguments(capsys, monkeypatch):
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "ten")
    code, _, err = run_cli(capsys, "check", "--k", "2", "--p", "3")
    assert code == 2
    assert "WSS_FACTOR_BUDGET" in err


def test_malformed_budget_env_is_invalid_arguments_for_discriminant_too(capsys, monkeypatch):
    # discriminant factors nothing, but every command resolves the budget the same way
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "ten")
    code, out, err = run_cli(capsys, "discriminant", "--k", "2", "--p", "13")
    assert (code, out) == (2, "")
    assert "WSS_FACTOR_BUDGET" in err


NEGATIVE_BUDGET_COMMANDS = [
    ("period", "--k", "1", "--m", SEMIPRIME_M),
    ("check", "--k", "1", "--p", "5"),
    ("monogenic", "--k", "1", "--p", "5"),
    ("search", "--k-min", "1", "--k-max", "2", "--p-max", "50"),
    ("discriminant", "--k", "2", "--p", "13"),
]


@pytest.mark.parametrize("argv", NEGATIVE_BUDGET_COMMANDS, ids=lambda argv: argv[0])
def test_negative_budget_is_invalid_arguments(capsys, monkeypatch, argv):
    # exit 2, not 4: no budget ran out, the argument is wrong, whether flag or env
    code, out, err = run_cli(capsys, *argv, "--factor-budget", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("invalid arguments:") and "--factor-budget" in err
    monkeypatch.setenv("WSS_FACTOR_BUDGET", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid arguments:") and "WSS_FACTOR_BUDGET" in err


# -------------------------------------------------------------- determinism


def test_search_stdout_identical_across_jobs(capsys):
    outs = []
    for jobs in ("1", "4", "1"):
        code, out, _ = run_cli(
            capsys, "search", "--k-min", "1", "--k-max", "6", "--p-max", "150",
            "--format", "json", "--jobs", jobs,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


# -------------------------------------------------------------- entry points


def test_module_invocation_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "wallsunsun.cli", "check", "--k", "2", "--p", "13",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["is_wss"] is True
    assert "timing_ms=" in proc.stderr


COLD_START_UNLOADED = (
    "dataclasses",
    "inspect",
    "argparse",
    "json",
    "fractions",
    "decimal",
    "multiprocessing",
    "concurrent.futures.process",
)


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only a search that starts workers needs multiprocessing, only a parsed
    # command needs argparse and only JSON output needs json; the records are
    # named tuples, so dataclasses (and the inspect it pulls in) is never needed.
    # The modules the import adds are diffed, so whatever site preloads is ignored.
    src = str(Path(wallsunsun.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import wallsunsun, wallsunsun.cli; "
        f"print(sorted((set(sys.modules) - before) & set({COLD_START_UNLOADED!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PUBLIC_NAMES = """
    CriterionUnsupportedError FactorizationBudgetError HypothesisError InconsistencyError
    ResourceBudgetError DEFAULT_FACTOR_BUDGET Factorization factorize is_prime jacobi lucas_u
    period_p_squared pisano_period QuadElem conjugate eval_fp_alpha IndexVerdict
    MonogenicityReport Trinomial discriminant_resultant fp_discriminant index_check_prime
    index_d_value is_monogenic_fp wss_trinomial SearchHit SearchResult WssClassification
    WssHypotheses classify delta_p is_wss_by_alpha is_wss_by_entry is_wss_by_monogenicity
    is_wss_by_period search validate_k __version__
""".split()


def test_star_import_exports_the_public_names_and_no_submodule():
    namespace = {}
    exec("from wallsunsun import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert sorted(wallsunsun.__all__) == sorted(PUBLIC_NAMES)


def declared_console_script(name):
    """The ``[project.scripts]`` value for ``name`` in this checkout's pyproject.toml."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name} script"
    return scripts[name]


def run_period_k1_m10(exe, env=None):
    proc = subprocess.run(
        [exe, "period", "--k", "1", "--m", "10", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert json.loads(proc.stdout)["result"]["pi"] == 60


def test_console_script_installed(tmp_path):
    # The launcher an installer writes for the declared entry point, run as
    # its own process, so a plain checkout checks the same `wss` an install gets.
    ep = importlib.metadata.EntryPoint(
        name="wss", value=declared_console_script("wss"), group="console_scripts",
    )
    assert callable(ep.load())
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "wss"
    launcher.write_text(
        f"#!{sys.executable}\n"
        f"import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    launcher.chmod(0o755)

    # Run the package the suite imported, whatever the cwd.
    pkg_root = str(Path(wallsunsun.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", os.defpath)])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")])
    )
    exe = shutil.which("wss", path=env["PATH"])
    assert exe == str(launcher)
    run_period_k1_m10(exe, env)

    # A usage error leaves through sys.exit(main()) with code 2.
    proc = subprocess.run(
        [exe, "period", "--k", "1"], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "--m" in proc.stderr


def test_installed_console_script_matches_declaration():
    try:
        dist = importlib.metadata.distribution("wallsunsun")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the wallsunsun distribution is not installed")
    installed = dist.entry_points.select(group="console_scripts", name="wss")
    assert [ep.value for ep in installed] == [declared_console_script("wss")]
    # This interpreter's scripts directory first, so an unactivated venv works.
    search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", os.defpath)])
    exe = shutil.which("wss", path=search)
    assert exe, "console script wss not found"
    run_period_k1_m10(exe)
