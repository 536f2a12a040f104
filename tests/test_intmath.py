"""Integer arithmetic layer: Jacobi, primality, factoring."""

import bisect
import math
import multiprocessing
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, nextprime

from wallsunsun import intmath
from wallsunsun.errors import FactorizationBudgetError
from wallsunsun.intmath import (
    DEFAULT_FACTOR_BUDGET,
    DETERMINISTIC_PRIMALITY_BOUND,
    TRIAL_BOUND,
    Factorization,
    factorize,
    is_prime,
    jacobi,
    primes_between,
)

from oracles import legendre_euler, sieve_primes, squarefree_slow, trial_factor

PRIMES_1000 = sieve_primes(1000)


# ---------------------------------------------------------------- jacobi


def test_jacobi_equals_euler_criterion_on_odd_primes():
    """jacobi(a, p) must be the Legendre symbol for every odd prime p <= 1000."""
    for p in PRIMES_1000:
        if p == 2:
            continue
        for a in range(0, 2 * p, max(1, p // 11)):
            assert jacobi(a, p) == legendre_euler(a, p), (a, p)


@pytest.mark.parametrize(
    "a,n,expected",
    [
        (0, 1, 1),
        (5, 1, 1),
        (2, 3, -1),
        (2, 7, 1),
        (5, 21, 1),   # (5|3)(5|7) = (-1)(-1)
        (8, 15, 1),
        (1001, 9907, -1),
        (19, 45, 1),
        (30, 7, 1),
        (30, 15, 0),  # shared factor
    ],
)
def test_jacobi_known_values(a, n, expected):
    assert jacobi(a, n) == expected


@given(
    a=st.integers(min_value=-500, max_value=500),
    b=st.integers(min_value=-500, max_value=500),
    n=st.integers(min_value=1, max_value=999).filter(lambda v: v % 2 == 1),
)
def test_jacobi_multiplicative_in_numerator(a, b, n):
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_or_nonpositive_denominator():
    for n in (0, -5, 4, 100):
        with pytest.raises(ValueError):
            jacobi(3, n)


# ---------------------------------------------------------------- is_prime


def test_is_prime_matches_sieve_below_2e5():
    """Covers the early return below 101^2 and the Miller-Rabin path above it."""
    limit = 200_000
    truth = set(sieve_primes(limit))
    for n in range(limit):
        assert is_prime(n) == (n in truth), n


@pytest.mark.parametrize(
    "n",
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 294409, 56052361, 118901521],
)
def test_is_prime_rejects_carmichael_numbers(n):
    assert not is_prime(n)


@pytest.mark.parametrize(
    "n,expected",
    [
        (2**61 - 1, True),           # Mersenne prime
        (2**61 + 1, False),          # divisible by 3
        (10**18 + 9, True),
        (10**18 + 7, False),
        (3215031751, False),         # strong pseudoprime to bases 2,3,5,7
        (3825123056546413051, False),
        ((2**61 - 1) ** 2, False),
    ],
)
def test_is_prime_desk_scale_values(n, expected):
    assert is_prime(n) == expected


def test_is_prime_nonpositive_and_one():
    assert not is_prime(-7)
    assert not is_prime(0)
    assert not is_prime(1)


def test_deterministic_bound_is_the_published_12_base_threshold():
    assert DETERMINISTIC_PRIMALITY_BOUND == 3_317_044_064_679_887_385_961_981


def test_is_prime_above_deterministic_bound_is_stable():
    # beyond the 12-base window the test goes probabilistic but seeded,
    # so repeated calls must not flap
    n = DETERMINISTIC_PRIMALITY_BOUND * 4 + 3
    first = is_prime(n)
    assert all(is_prime(n) == first for _ in range(3))


# ---------------------------------------------------------------- primes_between

PRIMES_1E6 = sieve_primes(10**6)


def _oracle_between(lo, hi):
    """The primes p with lo <= p < hi, cut from the oracle sieve."""
    return PRIMES_1E6[bisect.bisect_left(PRIMES_1E6, lo) : bisect.bisect_left(PRIMES_1E6, hi)]


def test_primes_between_matches_the_sieve_for_every_hi_to_3000():
    for hi in range(3001):
        for lo in (-5, 2, hi // 2, hi - 1, hi):
            assert primes_between(lo, hi) == _oracle_between(lo, hi), (lo, hi)


def test_primes_between_matches_the_sieve_on_seeded_segments_to_1e6():
    rng = random.Random(0x5E6)
    for _ in range(300):
        lo = rng.randrange(-10, 10**6)
        hi = min(10**6, lo + rng.randrange(-100, 5000))  # hi <= lo gives an empty range
        assert primes_between(lo, hi) == _oracle_between(lo, hi), (lo, hi)


def test_primes_between_partitions_exactly():
    rng = random.Random(0xAB)
    for _ in range(100):
        a, b, c = sorted(rng.randrange(-10, 10**6) for _ in range(3))
        c = min(c, a + 20_000)
        b = min(b, c)
        assert primes_between(a, b) + primes_between(b, c) == primes_between(a, c), (a, b, c)


def test_the_trial_and_small_prime_tables_come_from_the_sieve():
    assert intmath._SMALL_PRIMES == tuple(_oracle_between(0, 100))
    assert intmath._TRIAL_PRIMES == tuple(_oracle_between(0, TRIAL_BOUND + 1))


# ---------------------------------------------------------------- factorize


def test_factorize_reconstructs_sampled_range_to_1e6():
    rng = random.Random(20240816)
    sample = set(range(1, 2000)) | {rng.randrange(1, 10**6 + 1) for _ in range(3000)}
    for n in sorted(sample):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p), (n, p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_factorize_matches_trial_division_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(1, 10**7)
        assert dict(factorize(n).factors) == trial_factor(n)


@pytest.mark.parametrize(
    "n,factors",
    [
        (1, ()),
        (2, ((2, 1),)),
        (360, ((2, 3), (3, 2), (5, 1))),
        (2**20, ((2, 20),)),
        (10**12 + 39, ((10**12 + 39, 1),)),  # prime
        (1000003 * 1000033, ((1000003, 1), (1000033, 1))),
        (613**4, ((613, 4),)),
        (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1))),
    ],
)
def test_factorize_known_values(n, factors):
    f = factorize(n)
    assert f.n == n
    assert f.factors == factors


def test_factorize_large_semiprime_needs_rho():
    # both primes sit far above the trial-division bound
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_builds_no_rho_generator_unless_rho_runs(monkeypatch):
    def refuse(seed):
        raise AssertionError(f"rho generator built for {seed}")

    monkeypatch.setattr(intmath, "random", SimpleNamespace(Random=refuse))
    # trial division alone, a prime cofactor above 10^12, a square cofactor
    p = 1_000_000_000_039
    assert factorize(3000).factors == ((2, 3), (3, 1), (5, 3))
    assert factorize(p).factors == ((p, 1),)
    assert factorize(3 * p * p).factors == ((3, 1), (p, 2))


def test_factorize_budget_exhaustion_is_loud():
    d = 4000640025601  # 1150949 * 3475949, no factor below 10^6
    with pytest.raises(FactorizationBudgetError) as exc:
        factorize(d, budget=10)
    assert exc.value.cofactor == d
    assert exc.value.partial == ()


def test_factorize_budget_error_carries_partial_progress():
    d = 97 * 1150949 * 3475949
    with pytest.raises(FactorizationBudgetError) as exc:
        factorize(d, budget=10)
    assert exc.value.partial == ((97, 1),)
    assert exc.value.cofactor == 1150949 * 3475949


def test_factorize_budget_pays_for_factors_between_trial_bound_and_1e6():
    # trial division stops at TRIAL_BOUND, so 1009 * 1013 is rho's to split
    assert TRIAL_BOUND < 1009
    with pytest.raises(FactorizationBudgetError) as exc:
        factorize(8 * 1009 * 1013, budget=1)
    assert (exc.value.cofactor, exc.value.partial) == (1009 * 1013, ((2, 3),))
    assert factorize(8 * 1009 * 1013, budget=10**3).factors == ((2, 3), (1009, 1), (1013, 1))


def test_factorize_rejects_a_negative_budget_before_any_work():
    # 12 needs no rho iteration, yet a negative budget is still an invalid argument
    for n in (12, 8 * 1009 * 1013):
        with pytest.raises(ValueError, match="budget"):
            factorize(n, budget=-1)
    assert factorize(12, budget=0).factors == ((2, 2), (3, 1))


def test_factorize_budget_error_survives_pickling():
    err = FactorizationBudgetError("budget gone", cofactor=15, partial=((7, 2),))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FactorizationBudgetError
    assert (str(back), back.cofactor, back.partial) == ("budget gone", 15, ((7, 2),))


def test_factorize_budget_error_crosses_the_process_pool_boundary():
    """Raised in a worker, the error reaches the parent with its type and payload."""
    d = 97 * 1150949 * 3475949
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        futures = [pool.submit(factorize, d, budget=10), pool.submit(factorize, 360)]
        with pytest.raises(FactorizationBudgetError) as exc:
            futures[0].result(timeout=60)
        assert futures[1].result(timeout=60).factors == ((2, 3), (3, 2), (5, 1))
    assert exc.value.cofactor == 1150949 * 3475949
    assert exc.value.partial == ((97, 1),)


# ------------------------------------------- factorize against independent oracles
# Derandomized samples up to 10^14 against sympy.factorint, and against the
# trial-division oracle where it stays cheap. The constructed cases aim at
# what trial division no longer reaches: factors above TRIAL_BOUND.

MID_PRIMES = [q for q in PRIMES_1E6 if q > TRIAL_BOUND]


def _assert_factorization(n, expected):
    f = factorize(n)
    assert f.n == n
    assert dict(f.factors) == expected == factorint(n), n
    assert list(f.factors) == sorted(f.factors)


def test_factorize_matches_sympy_to_1e14():
    rng = random.Random(14)
    for digits in range(6, 15):
        for _ in range(40):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            assert dict(factorize(n).factors) == factorint(n), n


def test_factorize_matches_trial_division_on_mid_size_factors():
    rng = random.Random(15)
    smooth = [q for q in MID_PRIMES if q < 20_000]
    for _ in range(60):
        n = rng.choice((1, 2, 3, 45, 97)) * math.prod(rng.sample(smooth, rng.randrange(1, 4)))
        assert dict(factorize(n).factors) == trial_factor(n), n


def test_factorize_semiprimes_between_trial_bound_and_1e6():
    rng = random.Random(16)
    for _ in range(60):
        p, q = sorted(rng.sample(MID_PRIMES, 2))
        _assert_factorization(p * q, {p: 1, q: 1})
    _assert_factorization(1009 * 1013, {1009: 1, 1013: 1})
    _assert_factorization(999_983 * 999_979, {999_979: 1, 999_983: 1})


def test_factorize_semiprimes_above_1e6():
    rng = random.Random(17)
    for _ in range(20):
        p, q = sorted({nextprime(rng.randrange(10**6, 10**7)) for _ in range(2)})
        _assert_factorization(p * q, {p: 1, q: 1})


def test_factorize_prime_powers_above_trial_bound():
    rng = random.Random(18)
    for e in range(1, 6):
        for q in [1009, MID_PRIMES[-1], *rng.sample(MID_PRIMES, 6)]:
            _assert_factorization(q**e, {q: e})
            _assert_factorization(6 * q**e, {2: 1, 3: 1, q: e})
    p, q = 1009, 999_983
    _assert_factorization(p**2 * q**3, {p: 2, q: 3})


def test_factorize_rejects_nonpositive():
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


def test_default_budget_value():
    assert DEFAULT_FACTOR_BUDGET == 10_000_000


# ------------------------------------------------------------ squarefree


def test_is_squarefree_matches_slow_oracle():
    for n in range(1, 3000):
        assert factorize(n).is_squarefree() == squarefree_slow(n), n


@given(st.integers(min_value=2, max_value=10**4))
@settings(deadline=None)
def test_perfect_squares_are_never_squarefree(n):
    assert not factorize(n * n).is_squarefree()


def test_factorization_primes_listing():
    f = Factorization(n=360, factors=((2, 3), (3, 2), (5, 1)))
    assert f.primes() == (2, 3, 5)
    assert f.is_squarefree() is False
