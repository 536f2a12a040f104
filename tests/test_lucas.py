"""Lucas sequence kernel: fast doubling, periods, the p^2 dichotomy."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wallsunsun import lucas, wss
from wallsunsun.errors import InconsistencyError
from wallsunsun.intmath import jacobi
from wallsunsun.lucas import lucas_u, period_p_squared, pisano_period

from oracles import (
    is_wss_brute,
    log_uniform_integers,
    matrix_order,
    periods_two_step,
    sampled_primes,
    sieve_primes,
    state_period,
    trial_factor,
    u_term,
)

RNG_SEED = 0x5EED
PRIMES_200 = sieve_primes(200)
PRIMES_50 = sieve_primes(50)
PRIMES_2000 = frozenset(sieve_primes(2000))


# ---------------------------------------------------------------- lucas_u


def test_lucas_u_small_exhaustive_against_iteration():
    for k in (1, 2, 3, 5):
        for m in (2, 5, 97):
            for n in range(0, 200):
                assert lucas_u(k, n, m) == u_term(k, n, m), (k, n, m)


def test_fast_doubling_agrees_with_iteration_on_stated_grid():
    """Walk the recurrence once per (k, m) and compare every n <= 10^4."""
    for k in range(1, 11):
        for m in (97, 10**4):
            a, b = 0, 1  # (U_n, U_{n+1}) mod m
            for n in range(0, 10**4 + 1):
                assert lucas_u(k, n, m) == a, (k, n, m)
                a, b = b, (k * b + a) % m


@given(
    k=st.integers(min_value=1, max_value=10**6),
    n=log_uniform_integers(0, 10**9),
    m=log_uniform_integers(2, 10**9),
)
def test_lucas_u_index_addition_identity(k, n, m):
    # U_{2n+1} = U_{n+1}^2 + U_n^2 specializes the addition law; an
    # independent consistency check at indices far beyond iteration range
    un = lucas_u(k, n, m)
    un1 = lucas_u(k, n + 1, m)
    assert lucas_u(k, 2 * n + 1, m) == (un1 * un1 + un * un) % m


@pytest.mark.parametrize("min_value,max_value", [(0, 10**9), (2, 10**9), (2, 10**4), (1, 10**6)])
def test_log_uniform_draws_reach_the_top_decade(min_value, max_value):
    """At least a tenth of the draws land in [max_value / 10, max_value], and none outside."""
    drawn = []

    @settings(max_examples=100, derandomize=True, database=None)
    @given(log_uniform_integers(min_value, max_value))
    def draw(n):
        drawn.append(n)

    draw()
    assert min_value <= min(drawn) and max(drawn) <= max_value
    assert sum(n >= max_value // 10 for n in drawn) >= len(drawn) / 10


@given(
    k=st.integers(min_value=1, max_value=1000),
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
    m=st.integers(min_value=2, max_value=10**6),
)
def test_lucas_u_general_addition_law(k, a, b, m):
    lhs = lucas_u(k, a + b, m)
    rhs = lucas_u(k, a + 1, m) * lucas_u(k, b, m) + lucas_u(k, a, m) * lucas_u(k, b - 1, m)
    assert lhs == rhs % m


def test_lucas_u_validation():
    with pytest.raises(ValueError):
        lucas_u(0, 3, 5)
    with pytest.raises(ValueError):
        lucas_u(1, -1, 5)
    with pytest.raises(ValueError):
        lucas_u(1, 3, 1)


# ------------------------------------------------------------- pisano_period


@pytest.mark.parametrize(
    "k,m,expected",
    [
        (1, 2, 3),
        (1, 4, 6),
        (1, 5, 20),
        (1, 7, 16),
        (1, 10, 60),
        (1, 25, 100),
        (1, 169, 364),
        (2, 13, 28),
        (2, 169, 28),   # 13 is a 2-Wall-Sun-Sun prime
        (9, 3, 2),
        (9, 9, 2),
    ],
)
def test_pisano_period_known_values(k, m, expected):
    assert pisano_period(k, m) == expected


def test_period_base_cases_odd_k():
    for k in range(1, 20, 2):
        assert pisano_period(k, 2) == 3
        assert pisano_period(k, 4) == 6


def test_pisano_period_matches_state_walk_oracle():
    """Every k < 40 and 2 <= m < 400, composite m included."""
    for k in range(1, 40):
        for m in range(2, 400):
            assert pisano_period(k, m) == state_period(k, m), (k, m)


@given(st.sampled_from(sieve_primes(10**4)), st.integers(min_value=1, max_value=10**6))
@settings(deadline=None, max_examples=60, derandomize=True)
def test_pisano_period_at_primes_to_10_4_matches_state_walk(p, k):
    assert pisano_period(k, p) == state_period(k, p), (k, p)


@given(
    st.integers(min_value=1, max_value=60),
    st.sampled_from(["two", "ramified", "small"]),
    st.data(),
)
@settings(deadline=None, max_examples=80, derandomize=True)
def test_pisano_period_at_prime_powers_matches_state_walk(k, kind, data):
    """q^e below 5000 for q = 2, q | k^2+4 (the 4q multiple) and small q."""
    if kind == "two":
        q = 2
    elif kind == "ramified":
        q = data.draw(st.sampled_from(sorted(trial_factor(k * k + 4))))
    else:
        q = data.draw(st.sampled_from(PRIMES_50))
    top = 1
    while q ** (top + 1) < 5000:
        top += 1
    m = q ** data.draw(st.integers(min_value=1, max_value=top))
    assert pisano_period(k, m) == state_period(k, m), (k, m)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=4, max_value=1999).filter(lambda m: m not in PRIMES_2000),
)
@settings(deadline=None, max_examples=80, derandomize=True)
def test_pisano_period_at_composites_below_2000_matches_state_walk(k, m):
    assert pisano_period(k, m) == state_period(k, m), (k, m)


def test_pisano_period_refuses_a_multiple_that_does_not_close(monkeypatch):
    # With the symbol forced to 1, pi(7) = 16 for k = 1 is sought in 6. The
    # check is explicit, so it also holds under -O.
    monkeypatch.setattr(lucas, "jacobi", lambda a, n: 1)
    with pytest.raises(InconsistencyError):
        pisano_period(1, 7)


def test_pisano_period_divides_composite_structure():
    # pi(lcm is not required, but pi(d) | pi(m) whenever d | m
    for k in (1, 2, 3, 7):
        for m in (6, 10, 12, 50, 100):
            for d in range(2, m):
                if m % d == 0:
                    assert pisano_period(k, m) % pisano_period(k, d) == 0


def test_pisano_period_validation():
    with pytest.raises(ValueError):
        pisano_period(1, 1)
    with pytest.raises(ValueError):
        pisano_period(-1, 5)


# ------------------------------------------------------------ companion_order
# pi(m) is also the order of the companion matrix [[k,1],[1,0]] mod m; the
# matrix oracle computes that order without the state walk.


def test_companion_order_equals_pisano_period_sampled_grid():
    """Matrix order and state period must agree; exhaustive core plus a
    seeded sample of the full k <= 30, m <= 500 contract grid."""
    rng = random.Random(RNG_SEED + 1)
    cells = [(k, m) for k in range(1, 31) for m in range(2, 41)]
    cells += [(rng.randrange(1, 31), rng.randrange(41, 501)) for _ in range(60)]
    for k, m in cells:
        assert matrix_order(k, m) == pisano_period(k, m), (k, m)


def test_companion_order_defined_at_m_2():
    for k in range(1, 31):
        assert matrix_order(k, 2) == pisano_period(k, 2) == (2 if k % 2 == 0 else 3), k


def test_companion_order_against_independent_matrix_oracle():
    """At prime squares: the direct walk, the p^2 dichotomy and the matrix order agree."""
    for k in (1, 2, 3, 9):
        for p in (3, 5, 13):
            expected = matrix_order(k, p * p)
            assert pisano_period(k, p * p) == expected, (k, p)
            assert period_p_squared(k, p) == expected, (k, p)


# --------------------------------------------------------- period_p_squared


def test_period_p_squared_dichotomy_and_brute_force():
    for k in range(1, 31):
        for p in PRIMES_50:
            got = period_p_squared(k, p)
            pi_p = pisano_period(k, p)
            assert got in (pi_p, p * pi_p), (k, p)
            assert got == state_period(k, p * p), (k, p)
            assert lucas._periods_p_p2(k, p) == (state_period(k, p), got), (k, p)


@given(st.sampled_from(sieve_primes(2000)), st.integers(min_value=1, max_value=10**6))
@example(13, 2)
@example(31, 2)
@example(241, 3)
@example(3, 5)
@example(11, 5)
@example(191, 6)
@example(5, 7)
@example(3, 9)
@settings(deadline=None, max_examples=60, derandomize=True)
def test_period_p_squared_matches_brute_oracle_to_2000(p, k):
    pi_p = pisano_period(k, p)
    expected = pi_p if is_wss_brute(k, p) else p * pi_p
    assert period_p_squared(k, p) == expected, (k, p)


def test_period_p_squared_sampled_to_200():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(40):
        k = rng.randrange(1, 31)
        p = rng.choice(PRIMES_200)
        assert period_p_squared(k, p) == state_period(k, p * p), (k, p)


@pytest.mark.parametrize(
    "k,p,expected",
    [
        (1, 5, 100),    # inflates
        (2, 13, 28),    # stays, Wall-Sun-Sun case
        (2, 31, 30),
        (9, 3, 2),
        (1, 2, 6),
    ],
)
def test_period_p_squared_known_values(k, p, expected):
    assert period_p_squared(k, p) == expected


# ------------------------------------------------ (pi(p), pi(p^2)) in one pass
# _periods_p_p2 strips Wall's multiple L to pi(p) and reads pi(p^2) off one
# ladder at pi(p) mod p^2. The cells below are those where p divides L, at p = 2
# or delta_p = 0, where a ladder at L alone cannot decide.


@pytest.mark.parametrize(
    "k,p,expected",
    [
        (1, 2, (3, 6)),  # U closes mod 4 at L = 6 but not at pi(2) = 3
        (4, 2, (2, 2)),  # a hit where p divides L
        (1, 5, (20, 100)),
        (3, 13, (52, 676)),
        (11, 5, (20, 100)),
    ],
)
def test_periods_p_p2_where_p_divides_the_multiple(k, p, expected):
    assert p == 2 or jacobi(k * k + 4, p) == 0
    assert lucas._periods_p_p2(k, p) == expected == (state_period(k, p), state_period(k, p * p))


# Hits of the period criterion: three of k = 2 and 3, and four above 10^6.
KNOWN_HITS = [(2, 13), (2, 31), (3, 241), (40, 1525021), (2, 1546463), (14, 1546463), (26, 2461951)]


def _two_step_cells():
    """Seeded primes up to 10^7, each with a small and a large k, and the known hits."""
    rng = random.Random(RNG_SEED + 3)
    return KNOWN_HITS + [
        (k, p)
        for p in sampled_primes(RNG_SEED + 3, 40, 10**7)
        for k in (rng.randrange(1, 31), rng.randrange(31, 10**6))
    ]


def test_periods_p_p2_match_the_two_step_oracle():
    for k, p in _two_step_cells():
        assert lucas._periods_p_p2(k, p) == periods_two_step(k, p), (k, p)
    for k, p in KNOWN_HITS:
        pi_p, pi_p2 = lucas._periods_p_p2(k, p)
        assert pi_p == pi_p2, (k, p)


def test_closing_rejects_exactly_the_cells_whose_period_grows():
    # U closes mod p^2 at Wall's multiple L exactly when pi(p^2) | L. Where p
    # does not divide L that is exactly pi(p^2) = pi(p). Where it does, at p = 2
    # and the delta_p = 0 cells of the grid, a closing decides nothing, but one
    # that fails still proves pi(p^2) != pi(p). The period verdict is exact on all.
    grid = [(k, p) for k in range(1, 31) for p in sieve_primes(499)]
    p_divides_a_closing_multiple = 0
    for k, p in grid + _two_step_cells():
        top = lucas._prime_multiple(k, p)
        closes = lucas._closes_mod_p2(k, top, p)
        pi_p, pi_p2 = periods_two_step(k, p)
        assert top % pi_p == 0 and closes == (top % pi_p2 == 0), (k, p)
        if top % p:
            assert closes == (pi_p2 == pi_p), (k, p)
        else:
            p_divides_a_closing_multiple += closes
        assert lucas._period_hit(k, p) == (pi_p2 == pi_p), (k, p)
    assert p_divides_a_closing_multiple == 22  # p = 2 at the odd k and at k = 0 mod 4


def test_periods_p_p2_refuse_a_multiple_that_does_not_close(monkeypatch):
    # pi(7) = 16 for k = 1 divides neither 6 nor 8. U_6 = 1 mod 7, and U_8 = 0
    # but U_9 = -1 mod 7, so only a check of the whole pair catches 8. The
    # check is explicit, so it also holds under -O, and every path runs it,
    # search's early rejection included.
    real = lucas._prime_multiple
    scan = ((1, wss.validate_k(1)),)
    paths = (
        lambda: lucas._period_hit(1, 7),
        lambda: wss.is_wss_by_period(1, 7),
        lambda: lucas._periods_p_p2(1, 7),
        lambda: period_p_squared(1, 7),
        lambda: wss.classify(1, 7),
        lambda: wss._search_unit((scan, 7, 8, "period", None)),
        lambda: wss._search_unit((scan, 7, 8, "all", None)),
    )
    for multiple in (6, 8):
        stub = {7: multiple}
        monkeypatch.setattr(lucas, "_prime_multiple", lambda k, q: stub.get(q) or real(k, q))
        for path in paths:
            with pytest.raises(InconsistencyError):
                path()


def test_period_p_squared_rejects_composites():
    for p in (1, 4, 6, 100):
        with pytest.raises(ValueError):
            period_p_squared(1, p)


# -------------------------------------------------------------- period laws


def test_period_divides_p_minus_1_when_delta_is_1():
    for k in range(1, 31):
        for p in PRIMES_200:
            if p < 3 or jacobi(k * k + 4, p) != 1:
                continue
            assert (p - 1) % pisano_period(k, p) == 0, (k, p)


def test_twice_p_plus_1_divisible_when_delta_is_minus_1():
    for k in range(1, 31):
        for p in PRIMES_200:
            if p < 3 or jacobi(k * k + 4, p) != -1:
                continue
            assert 2 * (p + 1) % pisano_period(k, p) == 0, (k, p)
