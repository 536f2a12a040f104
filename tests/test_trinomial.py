"""Trinomial discriminants and the five-case prime-index criterion."""

import ast
import inspect
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols, ZZ
from sympy.polys.numberfields.basis import round_two

from wallsunsun import quadring, trinomial
from wallsunsun.errors import HypothesisError, InconsistencyError
from wallsunsun.intmath import factorize, is_prime, jacobi
from wallsunsun.trinomial import (
    IndexVerdict,
    MonogenicityReport,
    Trinomial,
    _case4_g_h,
    _fp_divides_index,
    _index_case,
    _mulmod,
    _pair_powmod,
    _poly_gcd,
    _powmod,
    _quotient,
    _valuation,
    discriminant_resultant,
    fp_discriminant,
    index_check_prime,
    index_d_value,
    is_monogenic_fp,
    validate_k,
    wss_trinomial,
)

from oracles import (
    case4_gh_exact,
    disc_from_resultant,
    fp_is_reducible,
    log_uniform_integers,
    poly_gcd_mod,
    poly_mul,
    poly_rem_mod,
    sampled_primes,
    sieve_primes,
    trial_factor,
    trinomial_coeffs,
)

X = symbols("x")

nonzero_coeff = st.integers(min_value=-20, max_value=20).filter(lambda v: v != 0)


def _random_trinomials(seed, count, max_n=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(2, max_n + 1)
        m = rng.randrange(1, n)
        a = rng.choice([v for v in range(-20, 21) if v])
        b = rng.choice([v for v in range(-20, 21) if v])
        out.append(Trinomial(n, m, a, b))
    return out


def _sympy_poly(t: Trinomial) -> Poly:
    return Poly(X**t.N + t.A * X**t.M + t.B, X, domain=ZZ)


# ---------------------------------------------------------------- Trinomial


def test_trinomial_fields_and_normalization():
    t = Trinomial(6, 3, -1, -1)
    assert math.gcd(t.N, t.M) == 3
    assert t.coeffs() == trinomial_coeffs(6, 3, -1, -1)
    assert str(t) == "x^6 + (-1)*x^3 + (-1)"


def test_trinomial_rejects_degenerate_shapes():
    for args in [(1, 0, 1, 1), (4, 0, 1, 1), (4, 4, 1, 1), (4, 2, 0, 1), (4, 2, 1, 0)]:
        with pytest.raises(ValueError):
            Trinomial(*args)
    with pytest.raises(ValueError):
        Trinomial(4, 2, 1, 1)._replace(M=4)
    with pytest.raises(ValueError):
        Trinomial._make((4, 2, 0, 1))


def test_wss_trinomial_shape():
    t = wss_trinomial(3, 7)
    assert (t.N, t.M, t.A, t.B) == (14, 7, -3, -1)


# ------------------------------------------------------------- discriminants


@pytest.mark.parametrize(
    "t,expected",
    [
        (Trinomial(2, 1, -1, -1), 5),
        (Trinomial(4, 2, -1, -1), -400),
        (Trinomial(6, 3, -3, -1), 1601613),
        (Trinomial(4, 2, 1, 1), 144),
        (Trinomial(3, 1, 1, 4), -436),
        # a repeated factor: the remainder sequence ends in a zero remainder
        (Trinomial(2, 1, 2, 1), 0),  # (x + 1)^2
        (Trinomial(4, 2, -2, 1), 0),  # (x^2 - 1)^2
        (Trinomial(3, 1, -3, 2), 0),  # (x - 1)^2 (x + 2)
    ],
)
def test_discriminant_resultant_known_values(t, expected):
    assert discriminant_resultant(t) == expected


def test_discriminant_resultant_matches_fraction_free_oracle():
    for t in _random_trinomials(101, 250, max_n=7):
        assert discriminant_resultant(t) == disc_from_resultant(t.coeffs()), t


def test_discriminant_resultant_matches_sympy():
    for t in _random_trinomials(202, 120, max_n=8):
        assert discriminant_resultant(t) == _sympy_poly(t).discriminant(), t


def test_fp_discriminant_closed_form_equals_resultant_grid():
    """Contract grid: k <= 10, p in the first six primes, sign included."""
    for k in range(1, 11):
        for p in (2, 3, 5, 7, 11, 13):
            assert fp_discriminant(k, p) == discriminant_resultant(wss_trinomial(k, p)), (k, p)


@pytest.mark.parametrize("k", [1, 2, 3, 10**6 + 3, 10**19])
def test_fp_discriminant_equals_resultant_up_to_p_101(k):
    for p in sieve_primes(101):
        if p >= 17:
            assert fp_discriminant(k, p) == discriminant_resultant(wss_trinomial(k, p)), (k, p)


def test_fp_discriminant_sign_negative_only_at_p_2():
    assert fp_discriminant(1, 2) == -400
    for k in (1, 2, 9):
        assert fp_discriminant(k, 2) < 0
        for p in (3, 5, 13):
            assert fp_discriminant(k, p) > 0


def test_fp_discriminant_factor_shape():
    # p^{2p} * (k^2+4)^p up to sign, so only p and primes of k^2+4 appear
    for k, p in [(2, 5), (7, 3), (10, 13)]:
        d = abs(fp_discriminant(k, p))
        allowed = {p} | set(factorize(k * k + 4).primes())
        assert set(factorize(d).primes()) <= allowed


# --------------------------------------------------------------- irreducibility


def test_fp_is_reducible_matches_sympy():
    """Every k <= 90 at p = 3, 5, 7, and k within 1 of V_p(1) at p = 11, 13."""
    cells = [(k, p) for p in (3, 5, 7) for k in range(1, 91)]
    cells += [(k, p) for p, lucas_p in ((11, 199), (13, 521)) for k in range(lucas_p - 1, lucas_p + 2)]
    reducible = set()
    for k, p in cells:
        by_sympy = not _sympy_poly(wss_trinomial(k, p)).is_irreducible
        assert fp_is_reducible(k, p) == by_sympy, (k, p)
        if by_sympy:
            reducible.add((k, p))
    assert reducible == {(4, 3), (14, 3), (36, 3), (76, 3), (11, 5), (82, 5), (29, 7), (199, 11), (521, 13)}


def test_every_reducible_fp_fails_the_hypotheses():
    # validate_k's premise: under the hypotheses every F_p is irreducible.
    # V_3(1) = 4 is the least reducible k, and V_p(1) > 10^4 from p = 23 on.
    reducible = [
        (k, p) for p in (3, 5, 7, 11, 13, 17, 19) for k in range(1, 10**4 + 1) if fp_is_reducible(k, p)
    ]
    assert len(reducible) == 34  # 21 at p = 3, 6 at 5, 3 at 7, and V_p(1) at 11, 13, 17, 19
    for k, p in reducible:
        assert not validate_k(k).satisfied, (k, p)


# -------------------------------------------------------------- index_d_value


@pytest.mark.parametrize(
    "t,d,d_normalized",
    [
        (Trinomial(2, 1, -1, -1), -5, -5),
        (Trinomial(4, 2, 1, 1), 12, 3),
        (Trinomial(6, 3, -1, -1), -45, -5),   # disc = -D^3 = 91125
        (Trinomial(6, 3, -3, -1), -117, -13),
    ],
)
def test_index_d_value_known(t, d, d_normalized):
    assert index_d_value(t) == (d, d_normalized)


def test_index_d_value_for_wss_family_is_minus_discriminant_of_x2_kx_1():
    # D/r^{N1} = -(k^2+4) for x^{2p} - k x^p - 1
    for k in (1, 2, 9, 30):
        for p in (2, 3, 13):
            _, dn = index_d_value(wss_trinomial(k, p))
            assert dn == -(k * k + 4)


def test_discriminant_identity_with_d_value():
    for t in _random_trinomials(303, 300, max_n=7):
        disc = discriminant_resultant(t)
        d_value, _ = index_d_value(t)
        sign = -1 if (t.N * (t.N - 1) // 2) % 2 else 1
        assert disc == sign * t.B ** (t.M - 1) * d_value ** math.gcd(t.N, t.M), t


def _grid(max_n, bound):
    coeffs = [c for c in range(-bound, bound + 1) if c]
    for n in range(2, max_n + 1):
        for m in range(1, n):
            for a in coeffs:
                for b in coeffs:
                    yield Trinomial(n, m, a, b)


def test_swan_closed_form_equals_resultant_on_full_grid():
    """disc = (-1)^(N(N-1)/2) B^(M-1) D^r for every N <= 12, |A|, |B| <= 6."""
    count = 0
    for t in _grid(12, 6):
        d_value, _ = index_d_value(t)
        sign = -1 if (t.N * (t.N - 1) // 2) % 2 else 1
        r = math.gcd(t.N, t.M)
        assert sign * t.B ** (t.M - 1) * d_value**r == discriminant_resultant(t), t
        count += 1
    assert count == 9504


def test_index_check_prime_without_discriminant_rejects_exactly_the_non_divisors():
    """With discriminant= omitted, q | disc is decided by Swan's formula; it
    must raise ValueError exactly for the primes the resultant rules out."""
    primes = sieve_primes(50)
    for t in _grid(8, 4):
        disc = discriminant_resultant(t)
        for q in primes:
            if disc % q:
                with pytest.raises(ValueError):
                    index_check_prime(t, q)
            else:
                assert isinstance(index_check_prime(t, q), IndexVerdict), (t, q)


# ----------------------------------------------------------- index criterion


# Irreducible synthetic trinomials chosen to land on specific criterion items;
# the expected q-verdicts below were produced by an independent maximal-order
# computation (sympy round_two), not by this package.
SYNTHETIC_ITEM_CASES = [
    (Trinomial(4, 2, 2, 2), 2, False, 1),    # Eisenstein
    (Trinomial(4, 2, 2, 4), 2, True, 1),     # q^2 | B
    (Trinomial(6, 3, 3, 3), 3, False, 1),
    (Trinomial(4, 2, 2, 3), 2, False, 2),
    (Trinomial(4, 2, 4, 1), 2, False, 2),
    (Trinomial(3, 1, 1, 4), 2, False, 3),
    (Trinomial(4, 2, 1, 27), 3, True, 3),
    (Trinomial(6, 3, 1, 1), 3, False, 4),    # ninth cyclotomic
    (Trinomial(3, 1, 2, 22), 5, True, 5),
    (Trinomial(9, 3, -5, -5), 3, True, 4),   # case-4 gcd of degree exactly 1
    (Trinomial(10, 5, -4, -2), 5, True, 4),  # case-4 gcd of degree exactly 1
]


@pytest.mark.parametrize("t,q,divides,item", SYNTHETIC_ITEM_CASES)
def test_index_criterion_synthetic_cases(t, q, divides, item):
    v = index_check_prime(t, q)
    assert isinstance(v, IndexVerdict)
    assert v.q == q
    assert v.divides_index is divides
    assert v.item_used == item
    assert v.detail


def test_index_criterion_against_maximal_order_oracle():
    """Every prime divisor of every synthetic discriminant, cross-checked
    against disc(f)/disc(K) from an independent integral-basis routine."""
    seen_items = set()
    for t in sorted({t for t, _, _, _ in SYNTHETIC_ITEM_CASES}, key=str):
        f = _sympy_poly(t)
        assert f.is_irreducible, t
        _, disc_k = round_two(f)
        index_sq = f.discriminant() // disc_k
        assert f.discriminant() == discriminant_resultant(t)
        for q in factorize(abs(discriminant_resultant(t))).primes():
            v = index_check_prime(t, q)
            assert v.divides_index == (index_sq % q == 0), (t, q)
            seen_items.add(v.item_used)
    assert seen_items == {1, 2, 3, 4, 5}


@pytest.mark.parametrize(
    "k,p,q,divides,item",
    [
        (1, 3, 3, False, 4),
        (1, 3, 5, False, 5),
        (2, 13, 13, True, 4),    # 13 is a 2-Wall-Sun-Sun prime
        (2, 31, 31, True, 4),
        (3, 3, 3, False, 2),     # p | k but p^2 does not
        (9, 3, 3, True, 2),      # p^2 | k forces a non-trivial index
        (18, 3, 3, True, 2),
        (2, 2, 2, False, 2),     # k = 2 mod 4 branch
        (1, 2, 2, False, 4),     # odd k branch
        (5, 29, 29, False, 4),   # ramified: p | k^2+4
    ],
)
def test_index_criterion_on_wss_family(k, p, q, divides, item):
    v = index_check_prime(wss_trinomial(k, p), q)
    assert (v.divides_index, v.item_used) == (divides, item), v


@pytest.mark.parametrize("t,q,divides,item", SYNTHETIC_ITEM_CASES)
def test_index_case_core_is_what_index_check_prime_reports(t, q, divides, item):
    v = index_check_prime(t, q)
    assert _index_case(*t, q, *index_d_value(t)) == (divides, item, v.detail), (t, q)


def test_index_criterion_validation():
    t = Trinomial(2, 1, -1, -1)
    with pytest.raises(ValueError):
        index_check_prime(t, 4)       # not prime
    with pytest.raises(ValueError):
        index_check_prime(t, 3)       # 3 does not divide disc = 5
    # disc(x^3 + x + 5) = -679 = -7 * 97: q = 5 divides B, but with M = 1
    # Swan's factor B^(M-1) is 1, so 5 does not divide the discriminant
    with pytest.raises(ValueError, match="does not divide the discriminant"):
        index_check_prime(Trinomial(3, 1, 1, 5), 5)


def test_quotient_is_the_exact_division_mod_q():
    # cases 2 and 3 read (c + (-c)^(q^e))/q mod q off mod q^2; q always divides
    # the numerator (Fermat), so the error path needs a prime q that is not prime
    for q in (2, 3, 5, 7):
        for e in (1, 2, 3):
            for c in (*range(-30, 31), 10**20 + 7, -(3**40)):
                exact, rem = divmod(c + (-c) ** (q**e), q)
                assert rem == 0 and _quotient(c, q, e, "", ()) == exact % q, (c, q, e)
    message = r"q = 4 does not divide B \+ \(-B\)\^\(q\^e\) for x\^2 \+ \(-1\)\*x\^1 \+ \(1\)"
    with pytest.raises(InconsistencyError, match=message):
        _quotient(1, 4, 1, "B + (-B)^(q^e)", (2, 1, -1, 1))


# ------------------------------------------------- wss-family invariant sweep


def _gh_coprime_exact(k, p):
    """gcd(G, H) = 1 over F_p for F_p at q = p, with H built in full by the oracle."""
    g, h = case4_gh_exact(2 * p, p, -k, -1, p, p)
    return len(poly_gcd_mod(g, h, p)) == 1


def test_only_p_can_divide_the_index_under_hypotheses():
    """Sweep valid k <= 30, p <= 50: any q != p always gets a clean verdict,
    and the verdict at p matches the exact G/H coprimality oracle."""
    for k in range(1, 31):
        if not validate_k(k).satisfied:
            continue
        d = k * k + 4
        for p in sieve_primes(50):
            report = is_monogenic_fp(k, p)
            assert isinstance(report, MonogenicityReport)
            by_q = {v.q: v for v in report.verdicts}
            for q, v in by_q.items():
                if q != p:
                    assert not v.divides_index, (k, p, q)
            assert report.monogenic == (not by_q[p].divides_index)
            if p >= 3 and d % p != 0:
                assert _gh_coprime_exact(k, p) == (not by_q[p].divides_index), (k, p)


def test_ramified_primes_yield_monogenic():
    # p >= 3 dividing k^2+4 always lands monogenic
    for k, p in [(1, 5), (3, 13), (5, 29), (6, 5), (7, 53), (13, 173)]:
        assert validate_k(k).satisfied
        assert (k * k + 4) % p == 0
        assert is_monogenic_fp(k, p).monogenic, (k, p)


# -------------------------------------------------------------- gh shortcut


@pytest.mark.parametrize(
    "k,p,coprime",
    [
        (1, 3, True),
        (1, 2, True),
        (2, 13, False),
        (2, 31, False),
        (2, 7, True),
        (3, 241, False),
    ],
)
def test_gh_coprimality_known(k, p, coprime):
    """Case 4 at q = p decides the G/H coprimality; the exact oracle agrees."""
    v = index_check_prime(wss_trinomial(k, p), p)
    assert v.item_used == 4
    assert v.divides_index is not coprime
    assert _gh_coprime_exact(k, p) is coprime


def test_x2_minus_kx_minus_1_has_a_root_mod_p_iff_jacobi_says_square():
    """Brute-force root search for G = x^2 - kx - 1 against jacobi(k^2+4, p)."""
    for p in sieve_primes(100)[1:]:
        for k in range(1, 3 * p):
            if k % p == 0 or (k * k + 4) % p == 0:
                continue
            has_root = any((x * x - k * x - 1) % p == 0 for x in range(p))
            assert has_root == (jacobi(k * k + 4, p) == 1), (k, p)


# ------------------------------------------------------------ is_monogenic_fp


def test_is_monogenic_fp_known_reports():
    rep = is_monogenic_fp(1, 3)
    assert rep.monogenic
    assert rep.trinomial == Trinomial(6, 3, -1, -1)
    assert rep.discriminant == 91125
    assert {v.q for v in rep.verdicts} == {3, 5}

    assert not is_monogenic_fp(2, 13).monogenic
    assert not is_monogenic_fp(9, 3).monogenic


def test_is_monogenic_fp_enforces_hypotheses():
    with pytest.raises(HypothesisError):
        is_monogenic_fp(4, 3)    # 4 | k
    with pytest.raises(HypothesisError):
        is_monogenic_fp(11, 3)   # 125 is not squarefree
    with pytest.raises(ValueError):
        is_monogenic_fp(1, 6)    # p must be prime


def test_streaming_h_handles_a_heavy_ramified_pair():
    # 46^2+4 = 2120 = 2^3 * 5 * 53, so q = p = 53 takes the item-4 path
    # with q^m = 53, where G = x^2 - 46x - 1 has a double root mod 53
    k, p = 46, 53
    assert (k * k + 4) % p == 0
    assert is_monogenic_fp(k, p).monogenic


def test_hypotheses_carry_the_primes_of_k2_plus_4():
    """For every valid k <= 3000 the carried factorization of D has exactly the
    primes of k^2+4, and the scan visits exactly p and those primes."""
    for k in range(1, 3001):
        hyp = validate_k(k)
        if not hyp.satisfied:
            continue
        primes = sorted(trial_factor(k * k + 4))
        assert list(hyp.factorization.primes()) == primes, k
        for p in (3, primes[-1]):
            qs = [v.q for v in is_monogenic_fp(k, p).verdicts]
            assert qs == sorted({p, *primes}), (k, p)


@given(st.integers(min_value=2, max_value=200))
@settings(deadline=None, max_examples=30)
def test_is_monogenic_fp_rejects_all_composite_p(p):
    if is_prime(p):
        return
    with pytest.raises(ValueError):
        is_monogenic_fp(1, p)


# -------------------------------------------------- case 4 by reduction mod G


def _gcd_degree(gcd):
    return len(gcd) - 1 if gcd else -1


def _assert_case4_matches_exact_oracle(n, m, a, b, q, qm):
    g, h_mod_g = _case4_g_h(n, m, a, b, q, qm)
    g_exact, h_exact = case4_gh_exact(n, m, a, b, q, qm)
    cell = (n, m, a, b, q, qm)
    assert g == g_exact, cell
    assert poly_rem_mod(h_mod_g, g, q) == poly_rem_mod(h_exact, g_exact, q), cell
    degree = _gcd_degree(_poly_gcd(g, h_mod_g, q))
    assert degree == _gcd_degree(poly_gcd_mod(g_exact, h_exact, q)), cell


@given(st.sampled_from(sieve_primes(3100)), st.integers(min_value=1, max_value=10**6))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_case4_reduction_matches_exact_oracle_on_fp_family(p, k):
    """x^{2p} - k x^p - 1 at q = p, for p up to about 3000."""
    if k % p == 0:
        return
    _assert_case4_matches_exact_oracle(2 * p, p, -k, -1, p, p)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_case4_reduction_matches_exact_oracle_on_general_trinomials(q, e, n0, data):
    """q^e | gcd(N, M) with e <= 3, and q divides neither A nor B."""
    m0 = data.draw(st.integers(min_value=1, max_value=n0 - 1))
    coeff = st.integers(min_value=-50, max_value=50).filter(lambda c: c % q)
    a, b = data.draw(coeff), data.draw(coeff)
    n, m = q**e * n0, q**e * m0
    qm = q ** min(_valuation(q, n), _valuation(q, m))
    _assert_case4_matches_exact_oracle(n, m, a, b, q, qm)


@pytest.mark.parametrize(
    "args,error",
    [
        ((8, 4, 1, 1, 4, 4), "edge coefficients"),  # q = 4 is not prime
        ((6, 3, 1, 1, 2, 3), "must divide C"),  # qm = 3 is not a power of q = 2
    ],
)
def test_case4_exact_oracle_refuses_a_q_it_cannot_divide_by(args, error):
    # explicit raises, so the oracle keeps its checks under python -O as well
    with pytest.raises(ArithmeticError, match=error):
        case4_gh_exact(*args)


PRIMES_TO_1E7 = sampled_primes(0x1E7, 100, 10**7)
residue = st.integers(min_value=0)


@given(
    st.sampled_from(PRIMES_TO_1E7),
    st.tuples(residue, residue, residue, residue, residue, residue),
)
@settings(deadline=None, max_examples=300, derandomize=True)
def test_degree_2_product_matches_schoolbook_division(q, coords):
    """The generic list product mod a monic quadratic, against long division mod q^2.

    The pair ladder's references below power with this product.
    """
    mod = q * q
    f0, f1, h0, h1, g0, g1 = (c % mod for c in coords)
    g = [g0, g1, 1]
    want = poly_rem_mod(poly_mul([f0, f1], [h0, h1]), g, mod)
    assert _mulmod([f0, f1], [h0, h1], g, mod) == want + [0] * (2 - len(want))


def _slow_pair_power(e, g0, g1, mod):
    """X^e mod (X^2 + g1*X + g0, mod) by e multiplications by X and long division."""
    g = [g0, g1, 1]
    acc = [1]
    for _ in range(e):
        acc = poly_rem_mod(poly_mul(acc, [0, 1]), g, mod)
    acc = poly_rem_mod(acc, g, mod)
    return tuple(acc + [0] * (2 - len(acc)))


def test_pair_powmod_small_exponents_match_repeated_multiplication():
    rng = random.Random(0x9A1)
    for q in PRIMES_TO_1E7[::5]:
        mod = q * q
        g = [(rng.randrange(mod), rng.randrange(mod)) for _ in range(2)] + [(mod - 1, mod - 3)]
        for g0, g1 in g:
            for e in range(12):
                want = _slow_pair_power(e, g0, g1, mod)
                assert _pair_powmod(e, g0, g1, mod) == want, (q, g0, g1, e)


@given(
    st.sampled_from(PRIMES_TO_1E7),
    log_uniform_integers(0, 10**13),
    st.tuples(*[st.one_of(residue, st.integers(-(10**6), 10**6))] * 2),
)
@settings(deadline=None, max_examples=300, derandomize=True)
def test_pair_powmod_matches_the_generic_list_power(q, e, g_low):
    """G's low coefficients reduced or signed as case 4 passes them."""
    mod = q * q
    g0, g1 = g_low
    want = _powmod([0, 1], e, [g0 % mod, g1 % mod, 1], mod)
    assert list(_pair_powmod(e, g0, g1, mod)) == want, (q, e, g0, g1)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_poly_gcd_closed_form_matches_euclid_exhaustively(monkeypatch, q):
    """Every monic quadratic f and every g = h0 + h1*x over F_q: double roots,
    h1 = 0 and g = 0 included. Euclid's division step must not run."""

    def no_division(*args):
        raise AssertionError("a monic quadratic f fell through to Euclid")

    monkeypatch.setattr(trinomial, "_reduce", no_division)
    for f0, f1, h0, h1 in itertools.product(range(q), repeat=4):
        f, g = [f0, f1, 1], [h0, h1]
        assert _poly_gcd(f, g, q) == poly_gcd_mod(f, g, q), (f, g, q)


def _case4_by_lists(p, k):
    """_case4_g_h(2p, p, -k, -1, p, p) by the generic list power of x and of kx + 1."""
    a, b, mod = -k, -1, p * p
    g = [b % mod, a % mod, 1]
    x_m = _powmod([0, 1], p, g, mod)
    num = _powmod([-b, -a], p, g, mod)
    num = [(num[0] + a * x_m[0] + b) % mod, (num[1] + a * x_m[1]) % mod]
    assert not any(c % p for c in num), (p, k)
    return [c % p for c in g], [c // p for c in num]


@given(st.sampled_from(PRIMES_TO_1E7), st.integers(min_value=1, max_value=10**6))
@settings(deadline=None, max_examples=100, derandomize=True)
def test_case4_at_q_p_matches_the_generic_product(p, k):
    """_case4_g_h on F_p at q = p, whose G is quadratic, against the list power."""
    if k % p == 0:
        return
    assert _case4_g_h(2 * p, p, -k, -1, p, p) == _case4_by_lists(p, k), (p, k)


def test_case4_rejects_an_inconsistent_q_power():
    # qm = 2 is no power of q = 3: the reduced numerator is x^2 + x + 1, which
    # q does not divide. The check is explicit, so it also holds under -O.
    with pytest.raises(InconsistencyError):
        _case4_g_h(6, 3, 1, 1, 3, 2)


def test_case4_on_a_quadratic_g_rejects_an_inconsistent_q_power():
    # N = 2 qm, so G = x^2 + x + 1 takes the pair branch; qm = 3 is no power
    # of q = 2, and the numerator reduces to 3 mod (G, 4), which 2 does not divide.
    with pytest.raises(InconsistencyError):
        _case4_g_h(6, 3, 1, 1, 2, 3)



def test_case4_on_a_quadratic_g_runs_one_ladder_for_x_alone(monkeypatch):
    assert list(inspect.signature(_pair_powmod).parameters) == ["e", "g0", "g1", "mod"]
    calls = []

    def counted(*args):
        calls.append(args)
        return _pair_powmod(*args)

    monkeypatch.setattr(trinomial, "_pair_powmod", counted)
    for p, k in [(2, 1), (13, 2), (1009, 3), (1546463, 2)]:
        calls.clear()
        _case4_g_h(2 * p, p, -k, -1, p, p)
        assert calls == [(p, -1, -k, p * p)], (p, k)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 26, 10**6 + 3])
def test_case4_numerator_at_q_p_is_fp_at_alpha(k):
    """Both are F_p(x) mod (x^2 - kx - 1, p^2): trinomial reduces F_p by its own
    ladder, quadring evaluates it at alpha by another."""
    for p in [*sieve_primes(2999), *PRIMES_TO_1E7]:
        if k % p:
            h = _case4_g_h(2 * p, p, -k, -1, p, p)[1]
            assert [p * c for c in h] == list(quadring._fp_alpha(k, p)), (k, p)


def _imported_modules(name):
    tree = ast.parse(Path(inspect.getfile(trinomial)).with_name(f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {(node.module or "").rpartition(".")[2]}
            found |= {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("module,other", [("trinomial", "quadring"), ("quadring", "trinomial")])
def test_alpha_and_monogenic_criteria_import_neither_each_other_nor_lucas(module, other):
    """The independence rule: the two criteria stay checks on each other and on entry."""
    imported = _imported_modules(module)
    assert "intmath" in imported and not imported & {other, "lucas"}, (module, imported)


# ------------------------------------------------ the F_p verdict on plain ints


KNOWN_FP_HITS = [(2, 13), (2, 31), (3, 241), (2, 1546463), (26, 2461951)]


def test_fp_divides_index_matches_the_report_on_every_small_cell():
    """Every valid k <= 30 with every p < 500: p = 2, and p | k^2+4, where p is
    also one of the primes of k^2+4, included."""
    ramified = 0
    for k in range(1, 31):
        hyp = validate_k(k)
        if not hyp.satisfied:
            continue
        for p in sieve_primes(499):
            want = not is_monogenic_fp(k, p).monogenic
            assert _fp_divides_index(hyp, p) is want, (k, p)
            ramified += p in hyp.factorization.primes()
    assert ramified >= 20


@pytest.mark.parametrize("k", [3, 10, 26])
def test_fp_divides_index_matches_the_report_below_1e7(k):
    hyp = validate_k(k)
    for p in PRIMES_TO_1E7:
        assert _fp_divides_index(hyp, p) is (not is_monogenic_fp(k, p).monogenic), (k, p)


@pytest.mark.parametrize("k,p", KNOWN_FP_HITS)
def test_fp_divides_index_flags_the_known_hits(k, p):
    hyp = validate_k(k)
    assert _fp_divides_index(hyp, p)
    assert not is_monogenic_fp(k, p).monogenic
