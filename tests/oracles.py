"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive: plain loops, no doubling tricks, no
imports from the package under test. Slow is fine; these only run at test
scale. If the library and this file disagree, trust this file first. The
one exception is periods_two_step, the library's earlier path to
(pi(p), pi(p^2)), kept to test the path that replaced it.

The checks on inputs and on intermediate results raise instead of asserting,
so they still run under python -O.
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st


def u_sequence(k: int, length: int, m: int | None = None) -> list[int]:
    """First `length` terms of U_0=0, U_1=1, U_n = k*U_{n-1} + U_{n-2}."""
    seq = [0, 1]
    while len(seq) < length:
        nxt = k * seq[-1] + seq[-2]
        if m is not None:
            nxt %= m
        seq.append(nxt)
    return seq[:length]


def u_term(k: int, n: int, m: int | None = None) -> int:
    a, b = 0, 1  # (U_0, U_1)
    for _ in range(n):
        a, b = b, k * b + a
        if m is not None:
            a, b = a % m, b % m
    return a


def v_term(k: int, n: int, m: int | None = None) -> int:
    """Companion sequence V_0=2, V_1=k, same recurrence."""
    a, b = 2, k
    for _ in range(n):
        a, b = b, k * b + a
        if m is not None:
            a, b = a % m, b % m
    return a


def fp_is_reducible(k: int, p: int) -> bool:
    """Whether F_p = x^(2p) - k x^p - 1 factors over Q, for k >= 1 and an odd prime p.

    F_p = g(x^p) with g = y^2 - k y - 1, so by Capelli's theorem it is
    reducible exactly when g's root beta is a p-th power in Q(beta). beta
    is a unit of norm -1, and a p-th root gamma of it is one too, with
    trace some t >= 1; then k = gamma^p + conj(gamma)^p = V_p(t). Since
    V_p(t) >= t^p, the search stops at t^p > k.
    """
    if k < 1 or p < 3 or p % 2 == 0:
        raise ValueError(f"need k >= 1 and an odd prime p, got k={k}, p={p}")
    t = 1
    while t**p <= k:
        if v_term(t, p) == k:
            return True
        t += 1
    return False


def fp_index_squared(k: int, p: int) -> int | None:
    """[Z_K : Z[theta]]^2 for an irreducible F_p = x^(2p) - k x^p - 1, as disc(F_p) / disc(Z_K).

    disc(Z_K) comes from sympy's round_two (Zassenhaus's Round Two; Cohen,
    A Course in Computational Algebraic Number Theory, 6.1), which shares
    nothing with the package's five-case index criterion. sympy 1.14.0
    returns disc(Z_K) = 0 for some irreducible F_5 (k = 36, 64, 136, 164);
    such an oracle failure gives None.
    """
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two

    x = symbols("x")
    f = Poly(x ** (2 * p) - k * x**p - 1, x, domain="ZZ")
    if not f.is_irreducible:
        raise ValueError(f"F_{p} is reducible at k = {k}")
    _, disc_k = round_two(f)
    if disc_k == 0:
        return None
    index_sq, rem = divmod(int(f.discriminant()), int(disc_k))
    if rem or index_sq < 1 or math.isqrt(index_sq) ** 2 != index_sq:
        raise ValueError(f"disc(F_{p}) / disc(Z_K) = {f.discriminant()} / {disc_k} at k = {k}")
    return index_sq


def state_period(k: int, m: int) -> int:
    """Period of (U_n, U_{n+1}) mod m by stepping until (0, 1) recurs."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    a, b = 0, 1
    n = 0
    while True:
        a, b = b % m, (k * b + a) % m
        n += 1
        if (a, b) == (0, 1):
            return n


def is_wss_brute(k: int, p: int) -> bool:
    """p is a k-Wall-Sun-Sun prime iff the mod-p period also works mod p^2.

    Runs the state pair mod p^2 for state_period(k, p) steps and checks the
    walk closed. The mod-p period divides the mod-p^2 one, so closing here
    is the same as the two periods being equal.
    """
    pi_p = state_period(k, p)
    p2 = p * p
    a, b = 0, 1
    for _ in range(pi_p):
        a, b = b % p2, (k * b + a) % p2
    return (a, b) == (0, 1)


def periods_two_step(k: int, p: int) -> tuple[int, int]:
    """(pi(p), pi(p^2)) as the library found them before its one-ladder path.

    pi(p) comes from the general pisano_period, which factors the prime p
    to ((p, 1),) itself, then pi(p^2) = pi(p) exactly when U also closes
    mod p^2 at pi(p).
    """
    from wallsunsun.lucas import lucas_u, pisano_period

    pi_p = pisano_period(k, p)
    p2 = p * p
    if (lucas_u(k, pi_p, p2), lucas_u(k, pi_p + 1, p2)) == (0, 1):
        return pi_p, pi_p
    return pi_p, p * pi_p


def matrix_order(k: int, m: int) -> int:
    """Multiplicative order of [[k,1],[1,0]] mod m by repeated multiply."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    cur = (k % m, 1 % m, 1 % m, 0)
    n = 1
    while cur != (1 % m, 0, 0, 1 % m):
        a, b, c, d = cur
        cur = (
            (a * k + b) % m,
            a % m,
            (c * k + d) % m,
            c % m,
        )
        n += 1
        if n > 8 * m * m:
            raise AssertionError("order search blew past any possible period")
    return n


def quad_mul(x: tuple[int, int], y: tuple[int, int], k: int, m: int) -> tuple[int, int]:
    """(a1 + b1*alpha)(a2 + b2*alpha) mod m as a pair, with alpha^2 = k*alpha + 1."""
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + b1 * b2) % m, (a1 * b2 + a2 * b1 + k * b1 * b2) % m


def quad_pow_rtl(a: int, b: int, e: int, k: int, m: int) -> tuple[int, int]:
    """(a + b*alpha)^e mod m as a pair by right-to-left square-and-multiply.

    The bits of e are read low to high: the base is squared at every bit and
    folded into the result at each set bit.
    """
    ra, rb = 1 % m, 0
    while e:
        if e & 1:
            ra, rb = (ra * a + rb * b) % m, (ra * b + rb * (a + k * b)) % m
        e >>= 1
        if e:
            a, b = (a * a + b * b) % m, b * (2 * a + k * b) % m
    return ra, rb


def quad_pow_slow(a: int, b: int, e: int, k: int, m: int) -> tuple[int, int]:
    """(a + b*alpha)^e mod m as a pair, by repeated multiplication only.

    With s = isqrt(e), e = s*t + r: x^s takes s steps, (x^s)^t takes t more and
    x^r another r, so about 3*sqrt(e) multiplications and no squaring at all.
    """

    def steps(base: tuple[int, int], n: int) -> tuple[int, int]:
        acc = (1 % m, 0)
        for _ in range(n):
            acc = quad_mul(acc, base, k, m)
        return acc

    x = (a % m, b % m)
    s = max(1, math.isqrt(e))
    return quad_mul(steps(steps(x, s), e // s), steps(x, e % s), k, m)


def lifted_wss_k(p: int, k0: int, k_mod_4: int) -> int:
    """The k in [1, 4p^2) with k = k0 mod p and k = k_mod_4 mod 4 that makes p k-Wall-Sun-Sun.

    p is an odd prime and (k0^2+4 | p) = delta is nonzero, so p divides
    U_{p-delta}(k) for every k = k0 + p*t. By Taylor's formula at k0,
    U_{p-delta}(k0 + p*t)/p mod p is affine in t: one quad_pow_rtl ladder
    mod p^2 at t = 0 and one at t = 1 give it, and the t where it vanishes
    is the one lift that is a hit. The slope law says the slope is
    -2/(k0^2+4) mod p, never 0 (the proof is in the docstring of
    test_wss.py::test_every_k_mod_p_squared_agrees_at_small_p); a slope that
    breaks it raises ArithmeticError. Being a hit depends on k mod p^2 only,
    and p^2 = 1 mod 4, so adding j*p^2 moves k mod 4 by j.
    """
    delta = legendre_euler(k0 * k0 + 4, p)
    if p == 2 or delta == 0:
        raise ValueError(f"need an odd p with (k0^2+4 | p) nonzero, got k0={k0}, p={p}")
    p2 = p * p
    u0, u1 = (quad_pow_rtl(0, 1, p - delta, k, p2)[1] for k in (k0, k0 + p))
    if u0 % p or u1 % p:
        raise ArithmeticError(f"p = {p} does not divide U_(p-delta) at k0 = {k0}")
    slope = (u1 - u0) // p % p
    if slope != -2 * pow(k0 * k0 + 4, -1, p) % p:
        raise ArithmeticError(f"slope {slope} at p = {p}, k0 = {k0} is not -2/(k0^2+4) mod p")
    k = (k0 + p * (-(u0 // p) * pow(slope, -1, p) % p)) % p2
    return k + (k_mod_4 - k) % 4 * p2


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion; p an odd prime."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def sieve_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= limit:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    return [i for i, f in enumerate(flags) if f]


def trial_factor(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sampled_primes(seed: int, count: int, limit: int) -> list[int]:
    """The primes below 100 plus `count` primes drawn uniformly below `limit`, sorted.

    Each draw is the largest prime at or below a seeded uniform integer,
    found by trial division.
    """
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
        n = rng.randrange(100, limit)
        while trial_factor(n) != {n: 1}:
            n -= 1
        drawn.append(n)
    return sieve_primes(100) + sorted(drawn)


def log_uniform_integers(min_value: int, max_value: int):
    """A Hypothesis strategy for integers in [min_value, max_value], power of ten first.

    A wide st.integers range is drawn mostly at its small end. Here each
    decade is drawn about equally often and the top one twice as often, so
    well over a tenth of the draws land within a factor of ten of max_value.
    """
    low, top = len(str(min_value)) - 1, len(str(max_value - 1)) - 1
    return st.sampled_from([*range(low, top + 1), top]).flatmap(
        lambda e: st.integers(min_value if e == low else 10**e, min(max_value, 10 ** (e + 1)))
    )


def squarefree_slow(n: int) -> bool:
    return all(e == 1 for e in trial_factor(n).values())


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def poly_eval(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def sylvester_det(f: list[int], g: list[int]) -> int:
    """Resultant via the Sylvester matrix and Gaussian elimination over Fraction.

    Coefficient lists are little-endian (f[i] is the x^i coefficient).
    """
    import fractions

    n = len(f) - 1
    m = len(g) - 1
    size = n + m
    rows = []
    frow = list(reversed(f))
    grow = list(reversed(g))
    for i in range(m):
        rows.append([0] * i + frow + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (n - 1 - i))
    mat = [[fractions.Fraction(x) for x in row] for row in rows]
    det = fractions.Fraction(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, size):
                mat[r][c] -= factor * mat[col][c]
    if det.denominator != 1:
        raise ArithmeticError(f"integer matrix gave a non-integer determinant {det}")
    return int(det)


def disc_from_resultant(f: list[int]) -> int:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f)."""
    n = len(f) - 1
    fp = [i * c for i, c in enumerate(f)][1:]
    res = sylvester_det(f, fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    lead = f[-1]
    if res % lead:
        raise ArithmeticError(f"lc(f) = {lead} does not divide Res(f, f') = {res}")
    return sign * (res // lead)


def trinomial_coeffs(n: int, m: int, a: int, b: int) -> list[int]:
    f = [0] * (n + 1)
    f[n] = 1
    f[m] += a
    f[0] += b
    return f


def _trim_mod(f: list[int], q: int) -> list[int]:
    f = [c % q for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_rem_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """f mod g over F_q by schoolbook long division, trimmed; g nonzero mod q."""
    g = _trim_mod(g, q)
    inv = pow(g[-1], -1, q)
    rem = [c % q for c in f]
    for top in range(len(rem) - 1, len(g) - 2, -1):
        c = rem[top] * inv % q
        off = top - (len(g) - 1)
        for i, gi in enumerate(g):
            rem[off + i] = (rem[off + i] - c * gi) % q
    return _trim_mod(rem, q)


def poly_gcd_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """Monic gcd over F_q by Euclid (empty list for gcd(0, 0))."""
    f, g = _trim_mod(f, q), _trim_mod(g, q)
    while g:
        f, g = g, poly_rem_mod(f, g, q)
    if not f:
        return []
    inv = pow(f[-1], -1, q)
    return [c * inv % q for c in f]


def case4_gh_exact(
    N: int, M: int, A: int, B: int, q: int, qm: int
) -> tuple[list[int], list[int]]:
    """The case-4 pair (G, H) mod q with H built in full, little-endian.

    G = x^(N/qm) + A x^(M/qm) + B and
    H = (A x^M + B + (-A x^(M/qm) - B)^qm) / q. Every binomial C(qm, i) is
    carried exactly along its row and only then divided by q, so this costs
    O(qm^2) bit operations; the A/B power factors are reduced mod q as they go.
    """
    u, v = N // qm, M // qm
    g = [0] * (u + 1)
    g[u] = 1
    g[v] = (g[v] + A) % q
    g[0] = (g[0] + B) % q

    h = [0] * (M + 1)
    q2 = q * q
    c0 = (B + pow(-B, qm, q2)) % q2
    cm = (A + pow(-A, qm, q2)) % q2
    if c0 % q or cm % q:
        raise ArithmeticError("edge coefficients of H's numerator must be divisible by q")
    h[0] = c0 // q % q
    h[M] = cm // q % q

    nega = (-A) % q
    negb = (-B) % q
    invb = pow(negb, -1, q)
    binom = 1
    powa = 1
    powb = pow(negb, qm, q)
    for i in range(1, qm):
        binom = binom * (qm - i + 1) // i  # exact: C(qm, i)
        powa = powa * nega % q
        powb = powb * invb % q  # (-B)^(qm-i)
        if binom % q:
            raise ArithmeticError(f"q must divide C(qm, i) for 0 < i < qm, not C({qm}, {i})")
        c = binom // q * powa * powb % q
        h[v * i] = (h[v * i] + c) % q
    return g, h
