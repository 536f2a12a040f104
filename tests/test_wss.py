"""Hypothesis validation, the four criteria, classify, and search."""

import ast
import concurrent.futures
import inspect
import json
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime

import wallsunsun
from wallsunsun import cli, intmath, lucas, quadring, trinomial, wss
from wallsunsun.errors import (
    CriterionUnsupportedError,
    FactorizationBudgetError,
    HypothesisError,
    InconsistencyError,
)
from wallsunsun.trinomial import is_monogenic_fp
from wallsunsun.wss import (
    CRITERIA,
    SearchResult,
    WssClassification,
    WssHypotheses,
    classify,
    delta_p,
    is_wss_by_alpha,
    is_wss_by_entry,
    is_wss_by_monogenicity,
    is_wss_by_period,
    search,
    validate_k,
)

import sweep_fp_index
import sweep_full_period
from oracles import (
    fp_is_reducible,
    is_wss_brute,
    legendre_euler,
    lifted_wss_k,
    quad_pow_rtl,
    sieve_primes,
    u_term,
)

# k = 2 mod 4 whose hypothesis quantity is 2 * (a semiprime of two 7-digit
# primes); trial division cannot touch the semiprime, so a tiny rho budget
# must fail loudly while the default budget sails through
HARD_K = 4001742


# ----------------------------------------------------------------- validate_k


def test_validate_k_accepts_and_rejects_known_values():
    assert [k for k in range(1, 21) if validate_k(k).satisfied] == [
        1, 2, 3, 5, 6, 7, 9, 10, 13, 15, 17, 18, 19
    ]


@pytest.mark.parametrize(
    "k,four_ok,squarefree_ok,d_value",
    [
        (1, True, True, 5),
        (2, True, True, 2),
        (4, False, True, 5),      # 4 | k
        (11, True, False, 125),   # 5^3
        (14, True, False, 50),
        (12, False, True, 37),    # only the 4 | k test fails
    ],
)
def test_validate_k_fields(k, four_ok, squarefree_ok, d_value):
    h = validate_k(k)
    assert isinstance(h, WssHypotheses)
    assert h.k == k
    assert h.four_ok == four_ok
    assert h.d_value == d_value
    assert h.squarefree_ok == squarefree_ok
    assert h.satisfied == (four_ok and squarefree_ok)


def test_validate_k_d_value_convention():
    # odd k keeps k^2+4; even k divides by 4
    assert validate_k(3).d_value == 13
    assert validate_k(6).d_value == 10
    assert validate_k(1).d_value == 5


def test_validate_k_rejects_nonpositive():
    with pytest.raises(ValueError):
        validate_k(0)


def test_validate_k_budget_propagates():
    with pytest.raises(FactorizationBudgetError) as exc:
        validate_k(HARD_K, factor_budget=10)
    assert (exc.value.cofactor, exc.value.partial) == (1122533 * 1783237, ((2, 1),))
    # with the default budget the rho stage resolves it
    assert validate_k(HARD_K).satisfied


# -------------------------------------------------------------------- delta_p


def test_delta_p_matches_euler_oracle():
    for k in range(1, 31):
        for p in sieve_primes(200):
            if p == 2:
                continue
            assert delta_p(k, p) == legendre_euler(k * k + 4, p), (k, p)


@pytest.mark.parametrize(
    "k,p,expected",
    [(2, 13, -1), (2, 31, 1), (1, 5, 0), (1, 11, 1), (1, 13, -1), (9, 3, 1)],
)
def test_delta_p_known(k, p, expected):
    assert delta_p(k, p) == expected


def test_delta_p_undefined_at_2():
    with pytest.raises(ValueError):
        delta_p(1, 2)


# ------------------------------------------------------------- four criteria


def test_period_criterion_matches_brute_oracle():
    for k in range(1, 13):
        for p in sieve_primes(100):
            assert is_wss_by_period(k, p) == is_wss_brute(k, p), (k, p)


@pytest.mark.parametrize("k,p", [(2, 13), (2, 31), (9, 3), (18, 5), (5, 11)])
def test_all_four_criteria_flag_known_hits(k, p):
    assert is_wss_by_period(k, p)
    assert is_wss_by_entry(k, p)
    assert is_wss_by_alpha(k, p)
    assert is_wss_by_monogenicity(k, p)


@pytest.mark.parametrize("k,p", [(1, 3), (1, 5), (2, 7), (3, 13), (10, 101)])
def test_all_four_criteria_clear_known_misses(k, p):
    assert not is_wss_by_period(k, p)
    assert not is_wss_by_entry(k, p)
    assert not is_wss_by_alpha(k, p)
    assert not is_wss_by_monogenicity(k, p)


def test_entry_and_alpha_refuse_p_2():
    with pytest.raises(CriterionUnsupportedError):
        is_wss_by_entry(1, 2)
    with pytest.raises(CriterionUnsupportedError):
        is_wss_by_alpha(1, 2)


def test_entry_returns_false_on_ramified_p():
    # delta = 0: the divisor clause says never a hit
    assert not is_wss_by_entry(1, 5)
    assert not is_wss_by_alpha(1, 5)
    assert not is_wss_by_entry(5, 29)


def test_alpha_and_monogenic_enforce_hypotheses():
    with pytest.raises(HypothesisError):
        is_wss_by_alpha(4, 3)
    with pytest.raises(HypothesisError):
        is_wss_by_monogenicity(11, 3)
    # period and entry work from the recurrence alone
    assert is_wss_by_period(4, 2)
    assert not is_wss_by_entry(11, 3)


# ------------------------------------------------------------------ classify


def test_classify_known_hit_all_fields():
    c = classify(2, 13)
    assert isinstance(c, WssClassification)
    assert (c.k, c.p) == (2, 13)
    assert c.delta == -1 and c.delta_applicable
    assert (c.pi_p, c.pi_p2) == (28, 28)
    assert c.by_period and c.by_entry and c.by_alpha and c.by_monogenic
    assert not c.entry_alpha_derived
    assert c.consistent and c.is_wss


def test_classify_p_2_is_derived():
    c = classify(1, 2)
    assert c.delta == 0 and not c.delta_applicable
    assert c.entry_alpha_derived
    assert (c.pi_p, c.pi_p2) == (3, 6)
    assert not c.is_wss and c.consistent


def test_classify_p_2_even_k():
    c = classify(2, 2)
    assert not c.is_wss
    assert c.consistent and c.entry_alpha_derived


def test_classify_ramified_case():
    c = classify(1, 5)
    assert c.delta == 0 and c.delta_applicable
    assert not c.is_wss and c.consistent


def test_classify_p2_divides_k_edge():
    # p^2 | k makes U_{p-delta} = 0 mod p^2 automatic; still a real hit
    c = classify(9, 3)
    assert c.is_wss and c.consistent
    assert c.delta == 1


def test_classify_rejects_bad_inputs():
    with pytest.raises(HypothesisError):
        classify(4, 3)
    with pytest.raises(ValueError):
        classify(1, 9)


def test_p2_never_wss_and_f2_monogenic_for_valid_k():
    """The p = 2 case split: not a hit, and the quartic stays monogenic,
    for every hypothesis-satisfying k <= 50."""
    for k in range(1, 51):
        if not validate_k(k).satisfied:
            continue
        c = classify(k, 2)
        assert not c.is_wss, k
        assert c.consistent, k
        assert is_monogenic_fp(k, 2).monogenic, k


def test_inconsistency_error_carries_classification():
    err = InconsistencyError("criteria disagree", classification={"k": 1})
    assert err.classification == {"k": 1}


def test_inconsistency_error_keeps_classification_across_pickling():
    record = classify(2, 13)
    back = pickle.loads(pickle.dumps(InconsistencyError("criteria disagree", classification=record)))
    assert type(back) is InconsistencyError
    assert str(back) == "criteria disagree"
    assert back.classification == record


# -------------------------------------------------------------------- search


def test_search_known_window_all_criteria():
    res = search(1, 10, 250, "all")
    assert isinstance(res, SearchResult)
    assert [(h.k, h.p) for h in res.hits] == [
        (2, 13), (2, 31), (3, 241), (5, 3), (5, 11), (6, 191), (7, 5), (9, 3)
    ]
    assert res.skipped_k == (4, 8)
    for h in res.hits:
        assert h.classification is not None
        assert h.classification.consistent
        assert (h.pi_p, h.pi_p2) == (h.classification.pi_p, h.classification.pi_p2)


def test_search_period_criterion_scans_every_k():
    res = search(1, 10, 250, "period")
    assert res.skipped_k == ()
    hits = [(h.k, h.p) for h in res.hits]
    # period hits exist even where the hypotheses fail; equivalence is
    # only claimed under them
    assert (4, 2) in hits and (4, 3) in hits and (8, 2) in hits
    assert set(hits) >= {(2, 13), (2, 31), (9, 3)}
    for h in res.hits:
        assert h.classification is None


def test_search_entry_criterion_small_window():
    res = search(5, 5, 5, "entry")
    assert [(h.k, h.p) for h in res.hits] == [(5, 3)]


def test_search_results_are_sorted_and_deterministic_across_jobs():
    a = search(1, 6, 150, "all", jobs=1)
    b = search(1, 6, 150, "all", jobs=4)
    c = search(1, 6, 150, "all", jobs=4)
    assert a.hits == b.hits == c.hits
    assert a.skipped_k == b.skipped_k
    assert a.hits == tuple(sorted(a.hits, key=lambda h: (h.k, h.p)))


@pytest.mark.parametrize(
    "window,hit_ps,skipped",
    [
        ((2, 2, 5000), [13, 31], ()),  # a single k: its range alone is cut into the units
        ((11, 12, 500), [], (11, 12)),  # every k fails the hypotheses: no unit at all
    ],
)
def test_search_results_do_not_depend_on_jobs(window, hit_ps, skipped):
    # jobs 0 and -1 run in-process like jobs 1
    results = [search(*window, "all", jobs=jobs) for jobs in (1, 2, 4, 0, -1)]
    assert all(res == results[0] for res in results)
    assert [h.p for h in results[0].hits] == hit_ps
    assert results[0].skipped_k == skipped


def test_search_starts_at_most_one_worker_per_cpu_and_per_unit(monkeypatch):
    started = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    before = set(multiprocessing.active_children())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(wss.os, "cpu_count", lambda: 3)
    reference = search(1, 6, 150, "all", jobs=1)
    assert search(1, 6, 150, "all", jobs=5000) == reference
    assert search(1, 6, 150, "all", jobs=2) == reference
    monkeypatch.setattr(wss.os, "cpu_count", lambda: 64)
    # p_max = 10 leaves 9 integers in [2, 10], so at most 9 units whatever jobs is
    assert search(2, 2, 10, "period", jobs=5000) == search(2, 2, 10, "period", jobs=1)
    monkeypatch.setattr(wss.os, "cpu_count", lambda: None)
    assert search(1, 6, 150, "all", jobs=4) == reference
    assert started == [3, 2, 9]
    assert not set(multiprocessing.active_children()) - before


@pytest.fixture
def recorded_units(monkeypatch):
    """The units a pooled search maps, in order; no unit runs, so nothing is sieved."""
    mapped = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            mapped.extend(iterable)
            return map(fn, mapped)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(wss.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wss, "_search_unit", lambda unit: [])
    return mapped


def test_search_units_are_capped_and_partition_each_k_range(recorded_units):
    # At p_max = 10^7 an uncapped unit would sieve an eighth of [2, p_max].
    mapped = recorded_units
    p_max = 10**7
    assert search(1, 3, p_max, "entry", jobs=2).hits == ()
    # every unit carries every scanned k, so its p-range covers each k's range
    assert all([k for k, _ in unit[0]] == [1, 2, 3] for unit in mapped)
    ranges = [(lo, hi) for _, lo, hi, *_ in mapped]
    assert len(ranges) >= 4 * 2
    assert all(0 < hi - lo <= wss.UNIT_WIDTH for lo, hi in ranges)
    bounds = [2] + [hi for _, hi in ranges]
    assert [lo for lo, _ in ranges] == bounds[:-1] and bounds[-1] == p_max + 1


@pytest.mark.parametrize("criterion", CRITERIA)
def test_search_passes_the_factor_budget_into_every_unit(recorded_units, criterion):
    search(1, 6, 3000, criterion, jobs=2, factor_budget=12345)
    assert recorded_units and all(unit[-1] == 12345 for unit in recorded_units)


# p - 1 = 2 * 1013 * 1033 for this prime, and (5 | p) = 1, so pi(p) is found by
# factoring p - 1, which takes rho iterations: a budget of 1 cannot pay for them.
# It is no hit, so search factors that multiple only when the period verdict is
# stubbed to report it.
RHO_MULTIPLE_P = 2092859


@pytest.mark.parametrize("criterion", ["period", "all"])
def test_search_unit_honours_the_factor_budget_in_period_factoring(monkeypatch, criterion):
    unit = ((1, validate_k(1)),), RHO_MULTIPLE_P - 50, RHO_MULTIPLE_P + 50, criterion, 1
    assert wss._search_unit(unit) == []
    real = lucas._period_hit
    monkeypatch.setattr(wss, "_period_hit", lambda k, p: p == RHO_MULTIPLE_P or real(k, p))
    with pytest.raises(FactorizationBudgetError) as info:
        wss._search_unit(unit)
    assert info.value.cofactor == 1013 * 1033


# Tests that patch a cell function search with jobs=1: workers forked earlier miss the patch.


def test_pooled_searches_share_one_pool_that_ends_with_the_process():
    # The last line keeps wss alive into the end of interpreter teardown, as a test
    # runner's objects do; a pool still held then is collected after multiprocessing is gone.
    src = str(Path(wallsunsun.__file__).resolve().parents[1])
    code = (
        f"import builtins, multiprocessing, os, sys; sys.path.insert(0, {src!r})\n"
        "from wallsunsun import wss\n"
        "os.cpu_count = lambda: 2\n"
        "for criterion in ('period', 'all'):\n"
        "    wss.search(1, 6, 300, criterion, jobs=2)\n"
        "    print(sorted(child.pid for child in multiprocessing.active_children()))\n"
        "builtins.kept = wss\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    first, second = map(json.loads, proc.stdout.splitlines())
    assert len(first) == 2 and first == second
    for pid in first:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture
def kept_pool(monkeypatch):
    """A new two-worker pool kept by a pooled search; gives its window, result and workers."""
    monkeypatch.setattr(wss.os, "cpu_count", lambda: 2)
    wss._close_pool()
    window = (1, 6, 300, "period")
    reference = search(*window, jobs=1)
    before = set(multiprocessing.active_children())
    assert search(*window, jobs=2) == reference
    workers = set(multiprocessing.active_children()) - before
    assert len(workers) == 2
    return window, reference, workers


def test_a_killed_idle_worker_does_not_break_the_next_pooled_search(kept_pool):
    window, reference, workers = kept_pool
    victim = workers.pop()
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(10)
    assert search(*window, jobs=2) == reference
    assert search(*window, jobs=2) == reference


def test_a_fake_executor_still_replaces_a_kept_real_pool(kept_pool, monkeypatch):
    window, reference, workers = kept_pool
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert search(*window, jobs=2) == reference
    assert search(*window, jobs=2) == reference
    assert started == [2]  # built once and kept
    assert not any(worker.is_alive() for worker in workers)


def test_a_worker_error_keeps_its_payload_and_the_pool_its_workers(kept_pool):
    window, reference, workers = kept_pool
    # k makes RHO_MULTIPLE_P a hit, so the period criterion factors p - 1 there
    k = lifted_wss_k(RHO_MULTIPLE_P, 1, 1)
    lows = (RHO_MULTIPLE_P - 49, RHO_MULTIPLE_P + 1)
    units = [(((k, None),), lo, lo + 50, "period", 1) for lo in lows]
    with pytest.raises(FactorizationBudgetError) as info:
        wss._pool_map(units, 2)
    assert info.value.cofactor == 1013 * 1033 and info.value.partial == ((2, 1),)
    assert search(*window, jobs=2) == reference
    assert workers <= set(multiprocessing.active_children())


def test_search_allocates_no_object_per_cell(monkeypatch):
    # 20 k times the 1,000 primes up to 7,919 is 20,000 cells. The criterion is
    # stubbed out so that only the driver allocates; an object per cell would
    # cost tens of bytes per cell.
    monkeypatch.setattr(wss, "_cell_is_hit", lambda k, p, hyp, criterion, budget: None)
    tracemalloc.start()
    try:
        search(1, 20, 7919, "entry", jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 20_000, peak


INDEX_RECORDS = (trinomial.Trinomial, trinomial.IndexVerdict, trinomial.MonogenicityReport)


@pytest.fixture
def records_built(monkeypatch):
    """Constructions of the index criterion's records, by class name."""
    built = Counter()
    for cls in INDEX_RECORDS:

        def counting(klass, *args, _new=cls.__new__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            return _new(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    return built


@pytest.mark.parametrize("criterion", ["monogenic", "all"])
def test_search_decides_the_index_without_records(records_built, criterion):
    # k = 34 (even, D = 2 * 5 * 29) and k = 35 have no hit up to 1,000; 36 is skipped
    result = search(34, 36, 1000, criterion, jobs=1)
    assert result.hits == () and result.skipped_k == (36,)
    assert not records_built


def test_only_the_report_builds_index_records(records_built):
    # 10^2 + 4 = 8 * 13, so the index primes of F_101 are 2, 13 and 101
    assert classify(10, 101).consistent
    assert not is_wss_by_monogenicity(10, 101)
    assert not records_built
    report = is_monogenic_fp(10, 101)
    assert [v.q for v in report.verdicts] == [2, 13, 101]
    assert records_built == {"Trinomial": 1, "IndexVerdict": 3, "MonogenicityReport": 1}


def test_case4_inconsistency_reaches_search_and_the_cli(monkeypatch, capsys):
    # x^p = 1 makes the case-4 numerator 1 + A + B = -k mod p^2, which p | k avoids
    monkeypatch.setattr(trinomial, "_pair_powmod", lambda *args: (1, 0))
    for criterion in ("monogenic", "all"):
        with pytest.raises(InconsistencyError, match="case-4 numerator"):
            search(1, 3, 50, criterion, jobs=1)
    with pytest.raises(InconsistencyError):
        classify(2, 13)
    with pytest.raises(InconsistencyError):
        is_wss_by_monogenicity(2, 13)
    argv = ["search", "--k-min", "1", "--k-max", "3", "--p-max", "50"]
    assert cli.main([*argv, "--criterion", "monogenic", "--jobs", "1"]) == 3
    capsys.readouterr()
    with pytest.raises(ValueError, match="does not divide the discriminant"):
        trinomial.index_check_prime(trinomial.Trinomial(2, 1, -1, -1), 3)


@pytest.mark.parametrize(
    "criterion,detector,yes",
    [
        ("entry", "_entry_hit", True),
        ("alpha", "_fp_alpha", (0, 0)),
        ("monogenic", "_fp_divides_index", True),
        ("period", "_period_hit", True),
    ],
)
def test_a_single_criterion_hit_must_have_equal_periods(
    monkeypatch, capsys, criterion, detector, yes
):
    # pi(7) = 16 and pi(49) = 112 at k = 3, so a detector that reports (3, 7) broke ranks
    real = getattr(wss, detector)
    monkeypatch.setattr(wss, detector, lambda *args: yes if args[1] == 7 else real(*args))
    message = rf"{criterion} hits k=3, p=7 but pi\(p\)=16, pi\(p\^2\)=112"
    with pytest.raises(InconsistencyError, match=message):
        search(3, 3, 20, criterion, jobs=1)
    argv = ["search", "--k-min", "3", "--k-max", "3", "--p-max", "20", "--jobs", "1"]
    assert cli.main([*argv, "--criterion", criterion]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_classify_raises_when_the_periods_deny_the_period_verdict(monkeypatch):
    # the verdict alone reports (3, 7), where pi(7) = 16 and pi(49) = 112, and alone
    # denies (2, 13), a hit; either way the periods settle the record
    real = wss._period_hit
    monkeypatch.setattr(wss, "_period_hit", lambda k, p: (k, p) == (3, 7) or real(k, p))
    with pytest.raises(InconsistencyError, match=r"period=True with pi\(p\)=16, pi\(p\^2\)=112"):
        classify(3, 7)
    with pytest.raises(InconsistencyError, match="k=3, p=7"):
        search(3, 3, 20, "all", jobs=1)
    monkeypatch.setattr(wss, "_period_hit", lambda k, p: (k, p) != (2, 13) and real(k, p))
    with pytest.raises(InconsistencyError) as info:
        classify(2, 13)
    c = info.value.classification
    assert (c.pi_p, c.pi_p2, c.by_period, c.by_entry, c.consistent) == (28, 28, False, True, False)


def test_search_validation():
    with pytest.raises(ValueError):
        search(0, 5, 100, "all")
    with pytest.raises(ValueError):
        search(5, 3, 100, "all")
    with pytest.raises(ValueError):
        search(1, 3, 1, "all")
    with pytest.raises(ValueError):
        search(1, 3, 100, "periodic")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("window", [(2, 2, 3), (1, 3, 5)])
def test_search_checks_the_factor_budget_before_any_work(monkeypatch, window, criterion, jobs):
    # (2, 2, 3) closes no cell, so nothing would be factored with the budget; at (1, 3, 5)
    # the first factoring would reject it from inside a cell or from validate_k
    def no_work(*args, **kwargs):
        raise AssertionError("search did work before it checked its factor budget")

    monkeypatch.setattr(wss, "_search_unit", no_work)
    monkeypatch.setattr(wss, "validate_k", no_work)
    with pytest.raises(ValueError, match="^factor_budget must be >= 0, got -1$"):
        search(*window, criterion, jobs=jobs, factor_budget=-1)


def test_search_criteria_enum_is_frozen():
    assert CRITERIA == ("period", "entry", "alpha", "monogenic", "all")


def test_search_budget_propagates_loudly():
    with pytest.raises(FactorizationBudgetError):
        search(HARD_K, HARD_K, 3, "monogenic", factor_budget=10)


def test_search_result_fields_echo_request():
    res = search(2, 3, 40, "period")
    assert (res.criterion, res.k_min, res.k_max, res.p_max) == ("period", 2, 3, 40)


@given(
    k=st.integers(min_value=1, max_value=25),
    p_idx=st.integers(min_value=0, max_value=24),
)
@settings(deadline=None, max_examples=60)
def test_search_agrees_with_pointwise_period_check(k, p_idx):
    p = sieve_primes(100)[p_idx]
    res = search(k, k, p, "period")
    assert ((k, p) in [(h.k, h.p) for h in res.hits]) == is_wss_by_period(k, p)


@pytest.mark.parametrize("criterion", ["period", "all"])
def test_search_hits_equal_the_pointwise_periods(criterion):
    # Search rejects most cells on the period verdict's ladder alone; its hits must
    # still be exactly the cells where _periods_p_p2 finds pi(p^2) = pi(p),
    # with the same periods, over a grid holding p = 2 and delta_p = 0.
    res = search(1, 30, 499, criterion, jobs=1)
    expected = [
        (k, p, *periods)
        for k in range(1, 31)
        if k not in res.skipped_k
        for p in sieve_primes(499)
        if len(set(periods := lucas._periods_p_p2(k, p))) == 1
    ]
    assert [(h.k, h.p, h.pi_p, h.pi_p2) for h in res.hits] == expected


# ---------------------------------------------------------- work per k and cell


PACKAGE_MODULES = (wallsunsun, cli, intmath, lucas, quadring, trinomial, wss)


def _record_calls(monkeypatch, fn, modules=PACKAGE_MODULES):
    """Replace every binding of fn in modules with a wrapper that logs its positional args."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args if len(args) > 1 else args[0])
        return fn(*args, **kwargs)

    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def factorize_calls(monkeypatch):
    """The n of every factorize call outside lucas, in order: the factoring of k^2+4."""
    others = tuple(mod for mod in PACKAGE_MODULES if mod is not lucas)
    return _record_calls(monkeypatch, intmath.factorize, others)


@pytest.fixture
def period_factorize_calls(monkeypatch):
    """The n of every factorize call lucas makes for a period, in order."""
    return _record_calls(monkeypatch, intmath.factorize, (lucas,))


@pytest.fixture
def period_walks(monkeypatch):
    """The (k, p) of every _periods_p_p2 call, in order."""
    return _record_calls(monkeypatch, lucas._periods_p_p2)


@pytest.fixture
def general_periods(monkeypatch):
    """The (k, m) of every pisano_period call, in order."""
    return _record_calls(monkeypatch, lucas.pisano_period)


def test_each_public_criterion_factors_once_per_call(factorize_calls):
    classify(2, 13)
    assert factorize_calls == [2]
    is_monogenic_fp(3, 13)
    assert factorize_calls == [2, 13]
    is_wss_by_alpha(5, 11)
    assert factorize_calls == [2, 13, 29]


@pytest.mark.parametrize("criterion", ["alpha", "monogenic", "all"])
def test_search_factors_once_per_k(factorize_calls, criterion):
    search(1, 10, 60, criterion, jobs=1)
    assert factorize_calls == [(k * k + 4) // (4 if k % 2 == 0 else 1) for k in range(1, 11)]


def _wall_multiple(k, p):
    """The multiple of pi(p) that lucas factors: 6, p - 1, 2(p + 1) or 4p."""
    if p == 2:
        return 6
    return {1: p - 1, -1: 2 * (p + 1), 0: 4 * p}[legendre_euler(k * k + 4, p)]


def _closing_cells(ks, primes):
    """(k, p, L), p-major, for each cell whose sequence closes mod p^2 at Wall's multiple L."""
    cells = [(k, p, _wall_multiple(k, p)) for p in primes for k in ks]
    return [
        (k, p, L) for k, p, L in cells if (u_term(k, L, p * p), u_term(k, L + 1, p * p)) == (0, 1)
    ]


@pytest.mark.parametrize("criterion", ["period", "all"])
def test_search_factors_only_the_wall_multiple_per_cell(period_factorize_calls, criterion):
    # p comes from the sieve, so p itself is never factored: the calls are Wall's
    # multiples only. A cell whose sequence does not close mod p^2 at its multiple L
    # factors nothing. One that closes factors L once where p | L, for the period
    # verdict, and once more if search reports it, for its periods.
    res = search(1, 10, 60, criterion, jobs=1)
    scanned = [k for k in range(1, 11) if k not in res.skipped_k]
    closing = _closing_cells(scanned, sieve_primes(60))
    hits = {(h.k, h.p) for h in res.hits}
    assert 0 < len(hits) < len(closing) < len(scanned) * len(sieve_primes(60))
    assert period_factorize_calls == [
        L for k, p, L in closing for _ in range((L % p == 0) + ((k, p) in hits))
    ]


@pytest.fixture
def period_verdicts(monkeypatch):
    """The (k, p) of every _period_hit call, in order."""
    return _record_calls(monkeypatch, lucas._period_hit)


@pytest.mark.parametrize("criterion", ["period", "all"])
def test_search_walks_each_period_once_per_cell(
    period_verdicts, period_walks, general_periods, criterion
):
    # One period verdict per cell; only a cell search reports is factored and stripped.
    res = search(1, 10, 60, criterion, jobs=1)
    scanned = [k for k in range(1, 11) if k not in res.skipped_k]
    cells = [(k, p) for p in sieve_primes(60) for k in scanned]
    assert period_verdicts == cells
    assert period_walks == [(h.k, h.p) for h in sorted(res.hits, key=lambda h: (h.p, h.k))]
    assert general_periods == []


def test_period_criterion_and_classify_walk_once(period_verdicts, period_walks, general_periods):
    is_wss_by_period(2, 13)
    classify(2, 13)
    assert period_verdicts == [(2, 13), (2, 13)]
    assert period_walks == [(2, 13)]
    assert general_periods == []


def test_the_period_criterion_factors_only_where_p_divides_wall_multiple(
    period_factorize_calls, period_walks
):
    # The verdict reads the ladder at L where p does not divide L; where p | L and
    # U closes mod p^2 at L, it factors L, 6 or 4p, with no budget and strips it.
    ks, primes = range(1, 31), sieve_primes(499)
    for p in primes:
        for k in ks:
            is_wss_by_period(k, p)
    assert period_walks == []
    expected = [L for k, p, L in _closing_cells(ks, primes) if L % p == 0]
    assert period_factorize_calls == expected == [6] * 22


def test_search_period_window_runs_about_one_ladder_per_cell(monkeypatch):
    # The benchmark's seed-1 search-period window: 20 k times the 430 primes
    # up to 3,000. A cell that is factored and stripped runs about 4 ladders,
    # so these bounds hold only if a cell its period verdict rejects runs no
    # other ladder and factors nothing.
    ladders = _record_calls(monkeypatch, lucas._u_pair)
    factorings = _record_calls(monkeypatch, intmath.factorize, (lucas,))
    res = search(42, 61, 3000, "period", jobs=1)
    cells = 20 * len(sieve_primes(3000))
    assert len(res.hits) == 30
    assert len(ladders) <= 1.05 * cells
    assert len(factorings) < 60


# ------------------------------------------------------- primality, proven once

# The Pell case k = 2 has the Wall-Sun-Sun prime 1,546,463; no other prime
# within 10^4 of it is a 2-Wall-Sun-Sun prime.
PELL_WSS_P = 1546463


@pytest.fixture
def prime_tests(monkeypatch):
    """The n of every is_prime call, in order."""
    return _record_calls(monkeypatch, intmath.is_prime)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_search_never_tests_a_sieved_prime(prime_tests, criterion):
    search(1, 10, 300, criterion, jobs=1)
    assert not set(prime_tests) & set(sieve_primes(300))


@pytest.mark.parametrize("criterion", ["entry", "all"])
def test_search_cells_make_no_input_check(monkeypatch, criterion):
    # every public entry point checks k and m with require_k_m; a search cell has k and p
    # proven by its caller and runs the private ladders. Only calls made while the units
    # run count: validate_k checks each k at search's door, before any unit.
    checks = _record_calls(monkeypatch, intmath.require_k_m)
    in_cells = []
    run_unit = wss._search_unit

    def search_unit(unit):
        before = len(checks)
        hits = run_unit(unit)
        in_cells.extend(checks[before:])
        return hits

    monkeypatch.setattr(wss, "_search_unit", search_unit)
    assert search(1, 20, 3000, criterion, jobs=1).hits
    assert not in_cells


def _index_check_at_p(k, p):
    return trinomial.index_check_prime(trinomial.Trinomial(2 * p, p, -k, -1), p)


# Every public function that takes a prime: each tests it exactly once.
PRIME_ENTRY_POINTS = {
    "classify": classify,
    "is_wss_by_period": is_wss_by_period,
    "is_wss_by_entry": is_wss_by_entry,
    "is_wss_by_alpha": is_wss_by_alpha,
    "is_wss_by_monogenicity": is_wss_by_monogenicity,
    "delta_p": delta_p,
    "period_p_squared": lucas.period_p_squared,
    "eval_fp_alpha": quadring.eval_fp_alpha,
    "is_monogenic_fp": is_monogenic_fp,
    "wss_trinomial": trinomial.wss_trinomial,
    "fp_discriminant": trinomial.fp_discriminant,
    "index_check_prime": _index_check_at_p,
}


@pytest.mark.parametrize(
    "name,p",
    # the closed-form discriminant has about 2p log2(p) bits: small p only
    [(name, p) for p in (13, PELL_WSS_P) for name in PRIME_ENTRY_POINTS
     if not (name == "fp_discriminant" and p > 100)],
)
def test_each_public_call_tests_p_once(prime_tests, name, p):
    PRIME_ENTRY_POINTS[name](2, p)
    assert prime_tests.count(p) == 1, prime_tests


def test_pisano_period_of_a_large_prime_tests_it_once(prime_tests):
    # m is factored, not checked: above TRIAL_BOUND**2 the cofactor left
    # after trial division is m itself, and is_prime settles it
    lucas.pisano_period(2, PELL_WSS_P)
    assert prime_tests.count(PELL_WSS_P) == 1


@pytest.mark.parametrize("name", PRIME_ENTRY_POINTS)
@pytest.mark.parametrize("p", [1, 9, 1_000_001])  # 1_000_001 = 101 * 9901
def test_each_public_entry_point_rejects_composite_p(name, p):
    with pytest.raises(ValueError):
        PRIME_ENTRY_POINTS[name](2, p)


# ----------------------------------------------------------- large-p anchor


def test_pell_wall_sun_sun_prime_is_isolated(capsys):
    assert cli.main(["check", "--k", "2", "--p", str(PELL_WSS_P), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["is_wss"] and result["consistent"]
    assert all(result[f"by_{c}"] for c in ("period", "entry", "alpha", "monogenic"))
    window = [q for q in sieve_primes(PELL_WSS_P + 10**4) if abs(q - PELL_WSS_P) <= 10**4]
    assert PELL_WSS_P in window and len(window) > 1000
    assert [q for q in window if is_wss_by_entry(2, q)] == [PELL_WSS_P]


def _closes(k, n, m):
    """C^n = I mod m for the companion matrix C = [[0, 1], [1, k]], by matrix powering."""

    def mul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)

    acc, base = (1, 0, 0, 1), (0, 1, 1, k % m)
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc == (1, 0, 0, 1)


def test_classify_agrees_at_large_p():
    """20 seeded cells with p log-uniform in [10^9, 10^13], where every fast path runs.

    sympy proves p prime and factors pi(p). U closes at pi(p) and at no
    pi(p)/r, and it closes mod p^2 at pi(p) exactly when pi(p^2) = pi(p).
    """
    rng = random.Random(0x1A26E)
    valid_k = [k for k in range(1, 200) if validate_k(k).satisfied]
    for _ in range(20):
        k = rng.choice(valid_k)
        p = 4
        while not isprime(p):
            p = int(10 ** rng.uniform(9, 13))
        c = classify(k, p)
        cell = (k, p)
        assert c.consistent, cell
        assert _closes(k, c.pi_p, p), cell
        for r in factorint(c.pi_p):
            assert not _closes(k, c.pi_p // r, p), (cell, r)
        assert c.pi_p2 in (c.pi_p, p * c.pi_p), cell
        assert _closes(k, c.pi_p, p * p) == (c.pi_p2 == c.pi_p), cell


LIFT_BUDGET = 10**5  # rho iterations per factoring: a draw that needs more is skipped


def _within_hypotheses(k):
    try:
        return validate_k(k, factor_budget=LIFT_BUDGET).satisfied
    except FactorizationBudgetError:
        return False


def test_lifted_hits_at_large_p_are_flagged_by_every_criterion():
    """Four seeded cells, one per quarter of [10^7, 10^12] in log p, each a hit by construction.

    oracles.lifted_wss_k solves for the one k = k0 mod p that makes p a
    k-Wall-Sun-Sun prime, and its own ladder proves the hit. Every
    criterion must say so, and must say no at a control k + j*p (j a
    multiple of 4, so k mod 4 is kept): the same line mod p, so no hit.
    Draws that fail the hypotheses or the factoring budget are skipped
    and counted.
    """
    rng = random.Random(0x11F7ED)
    cells = skipped = 0
    while cells < 4:
        p = 4
        while not isprime(p):
            p = int(10 ** rng.uniform(7 + 1.25 * cells, 8.25 + 1.25 * cells))
        k0 = rng.randrange(1, p)
        delta = legendre_euler(k0 * k0 + 4, p)
        k = lifted_wss_k(p, k0, rng.choice((1, 2, 3))) if delta else None
        try:
            c = classify(k, p, factor_budget=LIFT_BUDGET) if k and _within_hypotheses(k) else None
        except FactorizationBudgetError:  # factoring pi(p)
            c = None
        if c is None:
            skipped += 1
            assert skipped < 20, "too many draws skipped"
            continue
        cells += 1
        assert quad_pow_rtl(0, 1, p - delta, k, p * p)[1] == 0, (k, p)  # U_{p-delta}(k)
        assert c.is_wss and c.by_period and c.by_entry and c.by_alpha and c.by_monogenic, c
        assert c.pi_p == c.pi_p2, c
        control = next(k + j * p for j in range(4, 400, 4) if _within_hypotheses(k + j * p))
        c = classify(control, p, factor_budget=LIFT_BUDGET)
        assert not (c.is_wss or c.by_period or c.by_entry or c.by_alpha or c.by_monogenic), c


def test_the_p_part_of_the_criterion_holds_on_k_outside_the_hypotheses():
    """For odd p with p^2 not dividing k^2+4: p is k-Wall-Sun-Sun iff F_p(alpha) = 0 in R_{p^2}
    iff p divides the index of F_p, on every k <= 200 that fails the hypotheses and odd p < 500.

    That is a statement measured, not proved. The index theorem needs F_p irreducible, so the
    cells where it factors are skipped and counted. Where p^2 | k^2+4, p is never k-Wall-Sun-Sun
    though alpha and the q = p verdict both say yes. Entry matches the period on every cell,
    and at p = 2 the q = 2 verdict does. A counterexample fails this test with its cell.
    """
    ks = [k for k in range(1, 201) if not validate_k(k).satisfied]
    counts = Counter()
    for k in ks:
        for p in sieve_primes(499)[1:]:
            pi_p, pi_p2 = lucas._periods_p_p2(k, p)
            period = pi_p == pi_p2
            assert wss._entry_hit(k, p, legendre_euler(k * k + 4, p)) == period, (k, p)
            alpha = quadring._fp_alpha(k, p) == (0, 0)
            d, norm = trinomial._d_norm(2 * p, p, -k, -1)
            q_p = trinomial._index_case(2 * p, p, -k, -1, p, d, norm)[0]
            if (k * k + 4) % (p * p) == 0:
                counts["p^2 | k^2+4"] += 1
                assert alpha and q_p and not period, (k, p)
            elif fp_is_reducible(k, p):
                counts["reducible"] += 1
            else:
                counts["hit" if period else "no hit"] += 1
                assert alpha == q_p == period, (k, p, alpha, q_p, period)
        pi_2, pi_4 = lucas._periods_p_p2(k, 2)
        q_2 = trinomial._index_case(4, 2, -k, -1, 2, *trinomial._d_norm(4, 2, -k, -1))[0]
        assert q_2 == (pi_2 == pi_4), k
        counts["hit at p = 2"] += pi_2 == pi_4
    assert len(ks) == 66
    assert counts == {
        "hit": 86, "no hit": 6088, "p^2 | k^2+4": 22, "reducible": 8, "hit at p = 2": 50
    }


def test_every_k_mod_p_squared_agrees_at_small_p():
    """Every k in [1, p^2] at every prime p < 60 (see tests/sweep_full_period.py), a range
    chosen by run time (about 0.3 s). Each verdict depends on k mod p^2 only, so this covers
    every k >= 1 at these p: 16,738 cells where the period, entry, alpha and q = p verdicts
    agree, and 14 where p^2 | k^2+4, the two roots at each p = 1 mod 4 (5, 13, 17, 29, 37,
    41 and 53). Each odd p has exactly p - 1 - (-1 | p) hits, and p = 2 one class mod 4.

    The count law, proved by the slope law. Let p be odd, delta = ((k0^2+4) | p) nonzero
    and n = p - delta. Differentiating Binet's formula gives (k^2+4) dU_n/dk = n V_n - k U_n.
    Mod p, U_n = 0 and V_n = 2 delta, since alpha^(p-1) = 1 when delta = 1 and
    alpha^(p+1) = alpha beta = -1 when delta = -1. By Taylor's formula, U_n(k0 + p t)/p is
    then affine in t mod p with slope 2 n delta/(k0^2+4) = -2/(k0^2+4), never 0. So exactly
    one t mod p gives p^2 | U_n, the entry criterion: one hit lift of each k0 mod p with
    p !| k0^2+4. The 1 + (-1 | p) residues k0 with p | k0^2+4 give none, since a ramified
    odd prime is never k-Wall-Sun-Sun. That leaves p - 1 - (-1 | p) hits mod p^2.
    """
    counts, bad = sweep_full_period.sweep(sieve_primes(59))
    assert not bad, bad
    assert counts == Counter({"cells": 16_738, "p^2 | k^2+4": 14, "cells at p = 2": 4})


def test_the_index_from_a_maximal_order_agrees_with_the_period():
    """On every k <= 40 at p = 2 and 3, the index of F_p from sympy's round_two, with no code
    from the index cases or alpha, says what the period says (see tests/sweep_fp_index.py).

    For valid k, p divides the index exactly when p is k-Wall-Sun-Sun, and no prime of
    k^2+4 divides it. For every k with p^2 not dividing k^2+4, p divides the index exactly
    when p is k-Wall-Sun-Sun. Reducible cells are skipped, and so are cells where the oracle
    fails; all are counted.
    """
    counts, bad = sweep_fp_index.sweep(range(1, 41), (2, 3))
    assert not bad, bad
    assert counts == Counter(
        {"cells": 77, "hits": 20, "valid k": 52, "reducible": 3, "oracle failure": 0}
    )


def test_the_index_from_a_maximal_order_agrees_with_the_period_at_p_5_and_7():
    """As above on every k <= 12 at p = 5 and 7, a range chosen by run time (about 1 s).

    The hits are (7, 5), under the hypotheses, and (12, 7), outside them since 4 | 12, so
    the slice checks both the paper's statement and the p-local one; k = 11 is reducible at
    p = 5.
    """
    counts, bad = sweep_fp_index.sweep(range(1, 13), (5, 7))
    assert not bad, bad
    assert counts == Counter(
        {"cells": 23, "hits": 2, "valid k": 16, "reducible": 1, "oracle failure": 0}
    )


def test_largest_known_hit_is_flagged_by_every_criterion():
    """(26, 2461951) is the only known hit above 2 * 10^6 under the hypotheses."""
    k, p = 26, 2461951
    c = classify(k, p)
    assert c.is_wss and c.consistent
    assert c.by_period and c.by_entry and c.by_alpha and c.by_monogenic
    hyp = validate_k(k)
    assert trinomial._fp_divides_index(hyp, p)
    assert not trinomial.is_monogenic_fp(k, p).monogenic


# ------------------------------------------------------------ public k check


def _check_public_calls_reject(param, bad_values, valid, match):
    """Call every public function taking param with each bad value and every other argument
    valid, so only param can be at fault; each must raise ValueError. Returns the functions."""
    takes_param = [
        value
        for value in map(vars(wallsunsun).get, wallsunsun.__all__)
        if callable(value)
        and not (isinstance(value, type) and issubclass(value, (tuple, Exception)))  # records
        and param in inspect.signature(value).parameters
    ]
    for func in takes_param:
        params = inspect.signature(func).parameters.values()
        for bad in bad_values:
            args = [
                bad if q.name == param else valid[q.name] for q in params if q.default is q.empty
            ]
            with pytest.raises(ValueError, match=match):
                func(*args)
    return takes_param


def test_every_public_function_taking_k_rejects_k_below_1():
    valid = {"p": 13, "m": 13, "n": 3, "a": 1, "b": 1}
    takes_k = _check_public_calls_reject("k", (0, -1), valid, "k must be >= 1")
    assert {is_wss_by_period, lucas.period_p_squared, validate_k, classify} <= set(takes_k)


def test_every_public_function_taking_m_rejects_m_below_2():
    valid = {"k": 2, "n": 3, "a": 1, "b": 1}
    takes_m = _check_public_calls_reject("m", (1, 0, -1), valid, "m must be >= 2")
    assert {lucas.lucas_u, lucas.pisano_period, quadring.QuadElem} <= set(takes_m)


def test_src_has_no_assert_statement():
    # python -O strips asserts, so every invariant check in the package is an explicit raise
    src = Path(wallsunsun.__file__).resolve().parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts
