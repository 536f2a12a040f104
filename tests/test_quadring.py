"""Arithmetic in R_m = (Z/mZ)[alpha] with alpha^2 = k*alpha + 1."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from wallsunsun.intmath import jacobi
from wallsunsun.lucas import lucas_u, pisano_period
from wallsunsun.quadring import QuadElem, _fp_alpha, _pair_pow, conjugate, eval_fp_alpha
from wallsunsun.wss import validate_k

from oracles import (
    log_uniform_integers,
    quad_mul,
    quad_pow_rtl,
    quad_pow_slow,
    sampled_primes,
    sieve_primes,
    trial_factor,
)

RNG = random.Random(0xA1FA)
PRIMES_TO_1E7 = st.sampled_from(sampled_primes(0x1E7, 100, 10**7))
ODD_PRIMES_200 = [p for p in sieve_primes(200) if p >= 3]
VALID_K_30 = [k for k in range(1, 31) if validate_k(k).satisfied]


def _rand_elem(k: int, m: int) -> QuadElem:
    return QuadElem(RNG.randrange(m), RNG.randrange(m), k, m)


# ------------------------------------------------------------- construction


def test_coordinates_reduce_into_canonical_range():
    x = QuadElem(-1, 107, 3, 10)
    assert (x.a, x.b) == (9, 7)


def test_ring_constants():
    one = QuadElem.one(3, 10)
    assert (one.a, one.b) == (1, 0) and one.is_one()
    alpha = QuadElem.alpha(3, 10)
    assert (alpha.a, alpha.b) == (0, 1)
    assert QuadElem.scalar(-2, 3, 10).a == 8


def test_invalid_ring_parameters():
    with pytest.raises(ValueError):
        QuadElem(0, 0, 3, 1)
    with pytest.raises(ValueError):
        QuadElem(0, 0, 0, 10)


def test_mixed_ring_operations_refused():
    x = QuadElem.alpha(3, 10)
    with pytest.raises(ValueError):
        x + QuadElem.alpha(3, 11)
    with pytest.raises(ValueError):
        x * QuadElem.alpha(4, 10)
    with pytest.raises(TypeError):
        x + 1


def test_elements_are_hashable_values():
    assert QuadElem(2, 3, 5, 7) == QuadElem(2 + 7, 3 - 7, 5, 7)
    assert len({QuadElem(2, 3, 5, 7), QuadElem(9, -4, 5, 7)}) == 1


def test_elements_are_not_sequences():
    x = QuadElem(2, 3, 5, 7)
    with pytest.raises(TypeError):
        3 * x
    with pytest.raises(TypeError):
        len(x)


def test_elements_refuse_new_and_deleted_attributes():
    x = QuadElem(2, 3, 5, 7)
    with pytest.raises(AttributeError):
        x.c = 1
    with pytest.raises(AttributeError):
        del x.a
    assert not hasattr(x, "__dict__")


# --------------------------------------------------------------- ring axioms


def test_ring_axioms_on_seeded_samples():
    """Associativity, commutativity, distributivity; 10^3 triples per cell."""
    for k, m in [(1, 2), (1, 9), (3, 97), (5, 100), (2, 4), (9, 81)]:
        for _ in range(1000):
            x, y, z = (_rand_elem(k, m) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
        one = QuadElem.one(k, m)
        x = _rand_elem(k, m)
        assert x * one == x
        assert x + (-x) == QuadElem(0, 0, k, m)


@given(
    k=st.integers(min_value=1, max_value=50),
    m=st.integers(min_value=2, max_value=10**6),
    coords=st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 6),
)
def test_mul_commutes_and_matches_functional_form(k, m, coords):
    a1, b1, a2, b2 = coords[:4]
    x = QuadElem(a1, b1, k, m)
    y = QuadElem(a2, b2, k, m)
    # (a1 + b1 t)(a2 + b2 t) with t^2 = k t + 1
    assert x * y == y * x == QuadElem(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + k * b1 * b2, k, m)


def test_alpha_is_a_unit():
    # alpha * (alpha - k) = alpha^2 - k*alpha = 1
    for k in range(1, 31):
        for m in (2, 3, 4, 9, 97, 323):
            alpha = QuadElem.alpha(k, m)
            assert (alpha * (alpha - QuadElem.scalar(k, k, m))).is_one(), (k, m)


def test_alpha_satisfies_defining_quadratic():
    for k, m in [(1, 5), (7, 97), (30, 499)]:
        alpha = QuadElem.alpha(k, m)
        assert alpha * alpha == QuadElem(1, k, k, m)


# ---------------------------------------------------------------- conjugate


def test_conjugate_is_a_ring_homomorphism():
    for k, m in [(1, 9), (3, 97), (8, 100)]:
        for _ in range(400):
            x, y = _rand_elem(k, m), _rand_elem(k, m)
            assert conjugate(x * y) == conjugate(x) * conjugate(y)
            assert conjugate(x + y) == conjugate(x) + conjugate(y)
            assert conjugate(conjugate(x)) == x


def test_norm_lands_in_the_scalar_subring():
    for k, m in [(2, 25), (5, 97)]:
        for _ in range(200):
            x = _rand_elem(k, m)
            n = x * conjugate(x)
            assert n.b == 0


def test_conjugate_of_alpha_is_k_minus_alpha():
    for k, m in [(1, 5), (4, 9), (11, 121)]:
        assert conjugate(QuadElem.alpha(k, m)) == QuadElem(k, -1, k, m)


# ------------------------------------------------------------------- powers


def test_alpha_power_tracks_lucas_sequence():
    """alpha^n = U_n * alpha + U_{n-1}, walked incrementally to n = 500."""
    for k, m in [(1, 2), (1, 97), (2, 169), (7, 50), (9, 9), (30, 500)]:
        alpha = QuadElem.alpha(k, m)
        cur = QuadElem.one(k, m)
        for n in range(1, 501):
            cur = cur * alpha
            assert cur == QuadElem(lucas_u(k, n - 1, m), lucas_u(k, n, m), k, m), (k, m, n)


@given(
    k=st.integers(min_value=1, max_value=30),
    m=log_uniform_integers(2, 10**4),
    n=log_uniform_integers(1, 10**6),
)
@settings(deadline=None)
def test_pow_is_the_lucas_closed_form(k, m, n):
    # square-and-multiply must land on the same coordinates as fast doubling
    got = QuadElem.alpha(k, m) ** n
    assert got == QuadElem(lucas_u(k, n - 1, m), lucas_u(k, n, m), k, m)


@given(
    k=st.integers(min_value=1, max_value=10**4),
    p=PRIMES_TO_1E7,
    coords=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    e=st.integers(min_value=0, max_value=10**7),
)
@settings(deadline=None, max_examples=60, derandomize=True)
def test_pow_matches_repeated_multiplication(k, p, coords, e):
    """Pair square-and-multiply against the object-free slow power in R_{p^2}."""
    a, b = coords
    got = QuadElem(a, b, k, p * p) ** e
    assert (got.a, got.b) == quad_pow_slow(a, b, e, k, p * p)


def test_pair_pow_small_exponents_match_both_oracles():
    """e = 0, 1, 2 exercise the ladder's first bits: no step, one set bit, one square."""
    for p in sampled_primes(0x5EED, 20, 10**7):
        m = p * p
        for k in (1, 2, 3, 10**4):
            for x, y in [(0, 1), (1, 0), (m - 1, m - 1), (RNG.randrange(m), RNG.randrange(m))]:
                for e in (0, 1, 2):
                    want = quad_pow_rtl(x, y, e, k, m)
                    assert _pair_pow(x, y, e, k, m) == want == quad_pow_slow(x, y, e, k, m), (
                        p, k, x, y, e,
                    )


@given(
    k=st.integers(min_value=1, max_value=10**4),
    p=PRIMES_TO_1E7,
    coords=st.tuples(*[st.integers(min_value=0, max_value=10**14)] * 2),
    e=log_uniform_integers(0, 10**13),
)
@settings(deadline=None, max_examples=150, derandomize=True)
def test_pair_pow_matches_the_right_to_left_oracle(k, p, coords, e):
    """The left-to-right ladder against the right-to-left loop it replaced, in R_{p^2}."""
    m = p * p
    x, y = (c % m for c in coords)
    assert _pair_pow(x, y, e, k, m) == quad_pow_rtl(x, y, e, k, m)


def test_pow_zero_exponent_is_one():
    assert (QuadElem.alpha(5, 37) ** 0).is_one()


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        QuadElem.alpha(1, 5) ** -1


def test_alpha_order_laws_on_prime_grid():
    for k in VALID_K_30:
        d = k * k + 4
        for p in ODD_PRIMES_200:
            delta = jacobi(d, p)
            alpha = QuadElem.alpha(k, p)
            if delta == 1:
                assert (alpha ** (p - 1)).is_one(), (k, p)
            elif delta == -1:
                assert alpha ** (p + 1) == QuadElem.scalar(-1, k, p), (k, p)


# ---------------------------------------------------------------- ord_alpha


def test_ord_alpha_equals_pisano_period():
    """alpha^pi(m) is one and alpha^(pi/q) is not, for each prime q | pi(m)."""
    for k in range(1, 16):
        for m in (2, 3, 4, 5, 9, 25, 97, 120):
            pi = pisano_period(k, m)
            alpha = QuadElem.alpha(k, m)
            assert (alpha**pi).is_one(), (k, m)
            for q in trial_factor(pi):
                assert not (alpha ** (pi // q)).is_one(), (k, m, q)


# ------------------------------------------------------------ eval_fp_alpha


@pytest.mark.parametrize(
    "k,p,is_zero",
    [
        (1, 3, False),
        (2, 13, True),
        (2, 31, True),
        (2, 7, False),
        (9, 3, True),
        (1, 5, False),
    ],
)
def test_eval_fp_alpha_zero_pattern(k, p, is_zero):
    assert eval_fp_alpha(k, p).is_zero() == is_zero


def test_eval_fp_alpha_frozen_coordinates():
    # F_3(alpha) = alpha^6 - alpha^3 - 1 over Z/9: known nonzero value
    v = eval_fp_alpha(1, 3)
    assert (v.a, v.b) == (3, 6)
    assert v.m == 9


@given(k=st.integers(min_value=1, max_value=10**4), p=PRIMES_TO_1E7)
@settings(deadline=None, max_examples=60, derandomize=True)
def test_eval_fp_alpha_matches_repeated_multiplication(k, p):
    """F_p(alpha) = ap^2 - k*ap - 1 with ap = alpha^p built by the slow power."""
    m = p * p
    ap = quad_pow_slow(0, 1, p, k, m)
    a, b = quad_mul(ap, ap, k, m)
    want = ((a - k * ap[0] - 1) % m, (b - k * ap[1]) % m)
    got = eval_fp_alpha(k, p)
    assert (got.a, got.b, got.k, got.m) == (*want, k, m)


@given(k=st.integers(min_value=1, max_value=10**4), p=PRIMES_TO_1E7)
@settings(deadline=None, max_examples=60, derandomize=True)
def test_fp_alpha_pair_matches_ring_operations(k, p):
    """The closed-form evaluation of ap^2 - k*ap - 1 against QuadElem arithmetic."""
    m = p * p
    ap = QuadElem.alpha(k, m) ** p
    want = ap * ap - QuadElem.scalar(k, k, m) * ap - QuadElem.one(k, m)
    assert _fp_alpha(k, p) == (want.a, want.b)


def test_conjugate_root_evaluation_agrees():
    """F_p has integer coefficients, so evaluating at beta = conjugate(alpha)
    must give the conjugate value; zero iff zero in particular."""
    for k in VALID_K_30:
        for p in ODD_PRIMES_200:
            m = p * p
            beta = conjugate(QuadElem.alpha(k, m))
            bp = beta**p
            val_beta = bp * bp - QuadElem.scalar(k, k, m) * bp - QuadElem.one(k, m)
            val_alpha = eval_fp_alpha(k, p)
            assert val_beta == conjugate(val_alpha), (k, p)
            assert val_beta.is_zero() == val_alpha.is_zero(), (k, p)
