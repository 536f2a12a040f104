"""k-Wall-Sun-Sun classification through four independent criteria.

A prime p is k-Wall-Sun-Sun when pi(p^2) = pi(p). Under the standing
hypotheses (4 does not divide k, D = (k^2+4)/gcd(2,k)^2 squarefree) this
is equivalent to three other computable statements, and classify() runs
all of them side by side as a cross-check:

  period       pi(p^2) = pi(p)                      (the definition)
  entry        U_{p - delta_p} = 0 mod p^2          (p >= 3)
  alpha        x^{2p} - kx^p - 1 vanishes at alpha in R_{p^2}  (p >= 3)
  monogenic    x^{2p} - kx^p - 1 is NOT monogenic
"""

from __future__ import annotations

import atexit
import os
from collections import namedtuple

from .errors import CriterionUnsupportedError, InconsistencyError
from .intmath import jacobi, primes_between, require_k_m, require_prime
from .lucas import _period_hit, _periods_p_p2, _u_pair
from .quadring import _fp_alpha
from .trinomial import WssHypotheses, _fp_divides_index, validate_k

CRITERIA = ("period", "entry", "alpha", "monogenic", "all")
# The widest p-range one search unit sieves, so a unit's memory does not grow with p_max.
UNIT_WIDTH = 2**18


class WssClassification(
    namedtuple(
        "WssClassification",
        "k p delta delta_applicable pi_p pi_p2 by_period by_entry by_alpha by_monogenic"
        " entry_alpha_derived consistent",
    )
):
    """Every criterion's verdict on (k, p).

    At p = 2, where delta is not defined, delta_applicable is False and
    entry_alpha_derived is True: the entry and alpha fields mirror the period verdict.
    """

    __slots__ = ()

    @property
    def is_wss(self) -> bool:
        return self.by_period


def delta_p(k: int, p: int) -> int:
    """Legendre symbol (k^2+4 | p) for odd prime p."""
    require_k_m(k)
    if p == 2:
        raise ValueError("delta_p is defined for odd primes only")
    require_prime(p)
    return jacobi(k * k + 4, p)


def is_wss_by_period(k: int, p: int) -> bool:
    require_prime(p)
    require_k_m(k)
    return _period_hit(k, p)


def is_wss_by_entry(k: int, p: int) -> bool:
    """U_{p - delta_p} = 0 mod p^2, for p >= 3.

    The delta_p = 0 branch returns false outright: a ramified odd prime is
    never k-Wall-Sun-Sun. The sweeps verify this against the period
    criterion rather than trusting the shortcut.
    """
    if p == 2:
        raise CriterionUnsupportedError(
            "entry criterion needs p >= 3; use the period criterion at p = 2"
        )
    return _entry_hit(k, p, delta_p(k, p))


def _entry_hit(k: int, p: int, delta: int) -> bool:
    """is_wss_by_entry for a proven odd prime p with delta = delta_p(k, p)."""
    return delta != 0 and _u_pair(k, p - delta, p * p)[0] == 0


def is_wss_by_alpha(k: int, p: int, *, factor_budget: int | None = None) -> bool:
    """F_p(alpha) = 0 in R_{p^2}, for p >= 3 under the hypotheses."""
    if p == 2:
        raise CriterionUnsupportedError(
            "alpha criterion needs p >= 3; use the period criterion at p = 2"
        )
    validate_k(k, factor_budget=factor_budget).require()
    require_prime(p)
    return _fp_alpha(k, p) == (0, 0)


def is_wss_by_monogenicity(k: int, p: int, *, factor_budget: int | None = None) -> bool:
    """F_p is not monogenic: some prime divides its index, under the hypotheses."""
    hyp = validate_k(k, factor_budget=factor_budget).require()
    require_prime(p)
    return _fp_divides_index(hyp, p)


def classify(k: int, p: int, *, factor_budget: int | None = None) -> WssClassification:
    """Run every applicable criterion on (k, p) and check they agree.

    At p = 2 the entry and alpha criteria are not defined; their fields
    mirror the period verdict and entry_alpha_derived is set. Disagreement
    between criteria, or periods that deny the period verdict, raises
    InconsistencyError carrying the classification, since agreement is a
    theorem under the hypotheses.
    """
    hyp = validate_k(k, factor_budget=factor_budget).require()
    require_prime(p)
    return _classify(hyp, p, factor_budget=factor_budget)


def _classify(
    hyp: WssHypotheses, p: int, *, factor_budget: int | None = None, hits_only: bool = False
) -> WssClassification | None:
    """classify for a k whose hypotheses hold and a proven prime p; factors only Wall's multiple.

    With hits_only, a cell where every criterion says no gives None before
    any factoring. The periods must confirm the period verdict.
    """
    k = hyp.k
    by_period = _period_hit(k, p)
    derived = p == 2  # entry and alpha mirror the period verdict there
    delta = 0 if derived else jacobi(k * k + 4, p)
    by_entry = by_period if derived else _entry_hit(k, p, delta)
    by_alpha = by_period if derived else _fp_alpha(k, p) == (0, 0)
    by_monogenic = _fp_divides_index(hyp, p)
    if hits_only and not (by_period or by_entry or by_alpha or by_monogenic):
        return None
    pi_p, pi_p2 = _periods_p_p2(k, p, factor_budget=factor_budget)
    consistent = (pi_p2 == pi_p) == by_period == by_entry == by_alpha == by_monogenic
    record = WssClassification(
        k=k,
        p=p,
        delta=delta,
        delta_applicable=not derived,
        pi_p=pi_p,
        pi_p2=pi_p2,
        by_period=by_period,
        by_entry=by_entry,
        by_alpha=by_alpha,
        by_monogenic=by_monogenic,
        entry_alpha_derived=derived,
        consistent=consistent,
    )
    if not consistent:
        raise InconsistencyError(
            f"criteria disagree at k={k}, p={p}: period={by_period} with pi(p)={pi_p}, "
            f"pi(p^2)={pi_p2}, entry={by_entry}, alpha={by_alpha}, monogenic={by_monogenic}",
            classification=record,
        )
    return record


class SearchHit(namedtuple("SearchHit", "k p pi_p pi_p2 classification", defaults=(None,))):
    """A hit of search; classification is the WssClassification when the criterion is all."""

    __slots__ = ()


class SearchResult(namedtuple("SearchResult", "criterion k_min k_max p_max hits skipped_k")):
    """The hits of a search in (k, p) order, and the k it skipped because the hypotheses fail."""

    __slots__ = ()


def _cell_is_hit(
    k: int, p: int, hyp: WssHypotheses | None, criterion: str, budget: int | None
) -> SearchHit | None:
    """The hit at (k, p) for a sieved prime p, if any; hyp is validate_k(k) where needed."""
    if criterion == "all":
        c = _classify(hyp, p, factor_budget=budget, hits_only=True)
        if c is None:
            return None
        return SearchHit(k=k, p=p, pi_p=c.pi_p, pi_p2=c.pi_p2, classification=c)
    # entry and alpha are undefined at p = 2; ground truth there is the period
    if criterion == "entry" and p != 2:
        hit = _entry_hit(k, p, jacobi(k * k + 4, p))
    elif criterion == "alpha" and p != 2:
        hit = _fp_alpha(k, p) == (0, 0)
    elif criterion == "monogenic":
        hit = _fp_divides_index(hyp, p)
    else:
        hit = _period_hit(k, p)
    if not hit:
        return None
    pi_p, pi_p2 = _periods_p_p2(k, p, factor_budget=budget)
    if pi_p != pi_p2:
        raise InconsistencyError(f"{criterion} hits k={k}, p={p} but pi(p)={pi_p}, pi(p^2)={pi_p2}")
    return SearchHit(k=k, p=p, pi_p=pi_p, pi_p2=pi_p2)


def _search_unit(unit: tuple) -> list[SearchHit]:
    """The hits of unit (scan, lo, hi, criterion, budget): each (k, hyp) in scan, p in [lo, hi)."""
    scan, lo, hi, criterion, budget = unit
    hits = []
    for p in primes_between(lo, hi):
        for k, hyp in scan:
            hit = _cell_is_hit(k, p, hyp, criterion, budget)
            if hit is not None:
                hits.append(hit)
    return hits


_pool = []  # [(executor class, workers, pid), pool]: the pool pooled searches share, once built


@atexit.register
def _close_pool() -> None:
    """Shut the kept pool down; a process forked from the one that built it only drops it."""
    if _pool and _pool[0][2] == os.getpid():
        _pool[1].__exit__(None, None, None)
    _pool.clear()


def _pool_map(units: list, workers: int) -> list:
    """map _search_unit over units on the kept pool; a broken pool is rebuilt and rerun once."""
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # loads multiprocessing
    key = (ProcessPoolExecutor, workers, os.getpid())
    for retry in (False, True):
        if not _pool or _pool[0] != key:
            _close_pool()  # first, so no old pool's manager thread runs across the fork
            _pool[:] = key, ProcessPoolExecutor(max_workers=workers).__enter__()
        try:
            return list(_pool[1].map(_search_unit, units))
        except BrokenExecutor:  # a worker died; units are pure, so rerunning them all is safe
            _close_pool()
            if retry:
                raise


def search(
    k_min: int,
    k_max: int,
    p_max: int,
    criterion: str = "all",
    *,
    jobs: int | None = None,
    factor_budget: int | None = None,
) -> SearchResult:
    """Scan k in [k_min, k_max] and primes p <= p_max for k-Wall-Sun-Sun hits.

    criterion picks the detector; "all" runs the full cross-checked classification per
    cell. alpha, monogenic and all skip each k that fails the hypotheses and report it in
    skipped_k; period and entry scan every k. Hits are sorted by (k, p), whatever jobs is.
    factor_budget caps each factoring: of k^2+4, and of the period multiple of each hit;
    no other cell spends budget. jobs <= 1 or a single unit runs in-process; otherwise
    min(jobs, cpu count, units) workers run the units, from one pool per process (a forked
    child builds its own): built by the first pooled call, reused while the worker count
    holds, replaced when it changes, shut down at exit, and rebuilt once, with the whole
    map rerun, if a worker dies. The pool's slot has no lock: pooled searches from several
    threads at once are not supported. A negative factor_budget is rejected before any work.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_min > k_max:
        raise ValueError(f"empty k range: k_min {k_min} > k_max {k_max}")
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if factor_budget is not None and factor_budget < 0:
        raise ValueError(f"factor_budget must be >= 0, got {factor_budget}")

    # The units of a k get its hypotheses from here, so workers never factor.
    needs_hypotheses = criterion in ("alpha", "monogenic", "all")
    skipped = []
    scan = []
    for k in range(k_min, k_max + 1):
        hyp = validate_k(k, factor_budget=factor_budget) if needs_hypotheses else None
        if hyp is None or hyp.satisfied:
            scan.append((k, hyp))
        else:
            skipped.append(k)

    if jobs is None:
        jobs = os.cpu_count() or 1
    # A unit is one p-range over every scanned k, about 4 ranges per job to keep the workers busy.
    width = min(-(-(p_max - 1) // (4 * max(jobs, 1))), UNIT_WIDTH)
    units = [
        (scan, lo, min(lo + width, p_max + 1), criterion, factor_budget)
        for lo in (range(2, p_max + 1, width) if scan else ())
    ]
    workers = min(jobs, os.cpu_count() or 1, len(units))
    if workers <= 1:
        parts = list(map(_search_unit, units))
    else:
        parts = _pool_map(units, workers)
    return SearchResult(
        criterion=criterion,
        k_min=k_min,
        k_max=k_max,
        p_max=p_max,
        hits=tuple(sorted((hit for part in parts for hit in part), key=lambda h: (h.k, h.p))),
        skipped_k=tuple(skipped),
    )
