"""Trinomial discriminants and the five-case prime-index criterion.

For a monic irreducible trinomial f(x) = x^N + A x^M + B with root theta,
every prime q dividing disc(f) either divides the index [Z_K : Z[theta]]
or does not, and which one is decidable case by case from the divisibility
pattern of (A, B, M) by q. f is monogenic exactly when no prime divides
the index. The family F_p(x) = x^{2p} - k x^p - 1 is wired in specially:
its non-monogenicity detects k-Wall-Sun-Sun primes. validate_k states
the hypotheses on k that make every F_p irreducible; the package
factors k^2+4 there and nowhere else.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import HypothesisError, InconsistencyError
from .intmath import factorize, require_k_m, require_prime


class Trinomial(namedtuple("Trinomial", "N M A B")):
    """x^N + A x^M + B with 0 < M < N and A, B nonzero."""

    __slots__ = ()

    def __new__(cls, N: int, M: int, A: int, B: int) -> "Trinomial":
        if N < 2:
            raise ValueError(f"degree N must be >= 2, got {N}")
        if not 0 < M < N:
            raise ValueError(f"middle exponent must satisfy 0 < M < N, got M={M}")
        if A == 0 or B == 0:
            raise ValueError("A and B must be nonzero (otherwise not a trinomial)")
        return tuple.__new__(cls, (N, M, A, B))

    @classmethod
    def _make(cls, iterable) -> "Trinomial":
        return cls(*iterable)  # so _replace checks its result too

    def coeffs(self) -> list[int]:
        """Little-endian coefficient list (index i holds the x^i coefficient)."""
        c = [0] * (self.N + 1)
        c[0] = self.B
        c[self.M] = self.A
        c[self.N] = 1
        return c

    def __str__(self) -> str:
        return f"x^{self.N} + ({self.A})*x^{self.M} + ({self.B})"


class IndexVerdict(namedtuple("IndexVerdict", "q divides_index item_used detail")):
    """Per-prime index decision: does q divide [Z_K : Z[theta]]? item_used is the deciding case."""

    __slots__ = ()


class MonogenicityReport(namedtuple("MonogenicityReport", "trinomial verdicts monogenic")):
    """The index verdict of each prime of the discriminant; monogenic when none divides."""

    __slots__ = ()

    @property
    def discriminant(self) -> int:
        """disc(F_p) by the closed form, built only when read (over 2p log2 p bits)."""
        return _fp_discriminant(-self.trinomial.A, self.trinomial.M)


class WssHypotheses(namedtuple("WssHypotheses", "k d_value four_ok squarefree_ok factorization")):
    """The standing hypotheses on k, under which F_p is irreducible for every prime p.

    factorization is the complete factorization of D = (k^2+4)/gcd(2,k)^2
    that decided squarefree_ok.
    """

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        return self.four_ok and self.squarefree_ok

    def require(self) -> "WssHypotheses":
        """self when both hypotheses hold; HypothesisError naming the failed one otherwise."""
        if not self.four_ok:
            raise HypothesisError(f"k = {self.k} is divisible by 4")
        if not self.squarefree_ok:
            raise HypothesisError(f"D = {self.d_value} is not squarefree for k = {self.k}")
        return self


def validate_k(k: int, *, factor_budget: int | None = None) -> WssHypotheses:
    """Check the two standing hypotheses on k, reporting both flags.

    This is the one place k^2+4 is factored: callers that need its primes
    read them from the returned factorization.
    """
    require_k_m(k)
    g = 2 if k % 2 == 0 else 1
    d = (k * k + 4) // (g * g)
    factorization = factorize(d, budget=factor_budget)
    return WssHypotheses(
        k=k,
        d_value=d,
        four_ok=k % 4 != 0,
        squarefree_ok=factorization.is_squarefree(),
        factorization=factorization,
    )


def wss_trinomial(k: int, p: int) -> Trinomial:
    """The detector trinomial x^{2p} - k x^p - 1."""
    require_k_m(k)
    require_prime(p)
    return Trinomial(N=2 * p, M=p, A=-k, B=-1)


def discriminant_resultant(t: Trinomial) -> int:
    """disc(t) = (-1)^(N(N-1)/2) * Res(t, t') computed by Euclid's remainder sequence.

    Independent of the closed form on purpose; the two are cross-checked in
    tests and by the discriminant CLI command. Over Q, each step is
    Res(f, g) = (-1)^(deg f deg g) * lc(g)^(deg f - deg r) * Res(g, r) with
    r = f mod g, and a constant c ends it as Res(f, c) = c^deg f.
    """
    import fractions

    f = [fractions.Fraction(c) for c in t.coeffs()]
    g = [i * c for i, c in enumerate(f)][1:]
    res = fractions.Fraction(1)
    while len(g) > 1:
        r, u = f[:], len(g) - 1
        for top in range(len(r) - 1, u - 1, -1):
            c = r[top] / g[-1]
            if c:
                for i, gi in enumerate(g):
                    if gi:
                        r[top - u + i] -= c * gi
        r = _trim(r[:u])
        if not r:
            return 0
        res *= (-1) ** ((len(f) - 1) * u) * g[-1] ** (len(f) - len(r))
        f, g = g, r
    res *= g[0] ** (len(f) - 1)
    if res.denominator != 1:
        raise InconsistencyError(f"Res(t, t') = {res} is not an integer for {t}")
    return (-1) ** (t.N * (t.N - 1) // 2) * int(res)


def fp_discriminant(k: int, p: int) -> int:
    """Closed form disc(F_p) = (-1)^((p+1)(2p-1)) * p^(2p) * (k^2+4)^p."""
    wss_trinomial(k, p)  # checks k and p
    return _fp_discriminant(k, p)


def _fp_discriminant(k: int, p: int) -> int:
    sign = -1 if ((p + 1) * (2 * p - 1)) % 2 else 1
    return sign * p ** (2 * p) * (k * k + 4) ** p


def index_d_value(t: Trinomial) -> tuple[int, int]:
    """The case-5 quantity D and its exact normalization D / r^N1.

    D = N^N1 * B^(N1-M1) - (-1)^N1 * M^M1 * (N-M)^(N1-M1) * A^N1.
    r^N1 always divides D; the division is checked.
    """
    return _d_norm(*t)


def _d_norm(n: int, m: int, a: int, b: int) -> tuple[int, int]:
    r = math.gcd(n, m)
    n1, m1 = n // r, m // r
    d = n**n1 * b ** (n1 - m1) - (-1) ** n1 * m**m1 * (n - m) ** (n1 - m1) * a**n1
    norm, rem = divmod(d, r**n1)
    if rem:
        raise InconsistencyError(f"r^N1 does not divide D for {Trinomial(n, m, a, b)}")
    return d, norm


def _valuation(q: int, n: int) -> int:
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _trim(f: list[int]) -> list[int]:
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return f[:i]


def _reduce(f: list[int], g: list[int], mod: int) -> list[int]:
    """f mod (g, mod) for monic g, as exactly deg(g) coefficients."""
    u = len(g) - 1
    f = f + [0] * (u - len(f))
    for top in range(len(f) - 1, u - 1, -1):
        c = f[top] % mod
        if c:
            off = top - u
            for i in range(u):
                f[off + i] -= c * g[i]
    return [c % mod for c in f[:u]]


def _poly_gcd(f: list[int], g: list[int], q: int) -> list[int]:
    """Monic gcd over F_q of a monic f and any g.

    A monic quadratic f with a g of two coefficients, which is what case 4
    gives at q = p, takes the closed form: g = h0 + h1 x with h1 nonzero
    shares a factor with f exactly when its root r = -h0/h1 is a root of f.
    """
    if len(f) == 3 and f[2] % q == 1 and len(g) == 2:
        (f0, f1, _), (h0, h1) = f, g
        if h1 % q:
            r = -h0 * pow(h1, -1, q) % q
            return [-r % q, 1] if (r * r + f1 * r + f0) % q == 0 else [1]
        return [1] if h0 % q else [f0 % q, f1 % q, 1]
    f = _trim([c % q for c in f])
    g = _trim([c % q for c in g])
    while g:
        inv = pow(g[-1], -1, q)
        f, g = g, _trim(_reduce(f, [c * inv % q for c in g], q))
    inv = pow(f[-1], -1, q)
    return [c * inv % q for c in f]


def _mulmod(f: list[int], h: list[int], g: list[int], mod: int) -> list[int]:
    """f*h mod (g, mod) for f, h reduced mod the monic g."""
    prod = [0] * (len(f) + len(h) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, hj in enumerate(h):
                prod[i + j] += fi * hj
    return _reduce(prod, g, mod)


def _powmod(base: list[int], e: int, g: list[int], mod: int) -> list[int]:
    """base^e in (Z/mod)[x]/(g) by square-and-multiply; g monic."""
    result = _reduce([1], g, mod)
    base = _reduce(base, g, mod)
    while e:
        if e & 1:
            result = _mulmod(result, base, g, mod)
        e >>= 1
        if e:
            base = _mulmod(base, base, g, mod)
    return result


def _pair_powmod(e: int, g0: int, g1: int, mod: int) -> tuple[int, int]:
    """X^e in (Z/mod)[X]/(X^2 + g1*X + g0) by left-to-right square-and-multiply.

    Each bit of e squares the running pair (a, b); a set bit then multiplies
    it by X, which is the shift (a, b) -> (-g0*b, a - g1*b). X^2 = -g1*X - g0
    folds each square back to a pair.
    """
    a, b = 1, 0
    for bit in bin(e)[2:]:
        t = b * b
        a, b = (a * a - g0 * t) % mod, (2 * a * b - g1 * t) % mod
        if bit == "1":
            a, b = -g0 * b % mod, (a - g1 * b) % mod
    return a, b


def _case4_g_h(N: int, M: int, A: int, B: int, q: int, qm: int) -> tuple[list[int], list[int]]:
    """The case-4 pair (G mod q, (H mod G) mod q), little-endian.

    G = x^(N/qm) + A x^(M/qm) + B.
    H = (A x^M + B + (-A x^(M/qm) - B)^qm) / q, where qm = q^m strips the
    full shared q-power out of (N, M).

    Only gcd(G, H) over F_q is needed, and it equals gcd(G, H mod G). G is
    monic, so x^(N/qm) = -A x^(M/qm) - B mod G in Z[x], and raising both
    sides to qm gives (-A x^(M/qm) - B)^qm = x^N: the numerator q*H is the
    trinomial x^N + A x^M + B itself, reduced mod G. It is built in
    (Z/q^2)[x]/(G), checked to be divisible by q, and divided. That is
    O(deg(G)^2 log N) work: at q = p for x^{2p} - k x^p - 1, G is quadratic,
    N = 2M, and one ladder for x^p on coordinate pairs and one squaring give it.
    """
    mod = q * q
    if N // qm == 2:
        # G = x^2 + A x + B and N = 2M, with A and B unreduced: small factors in every product
        g = [B % mod, A % mod, 1]
        a, b = _pair_powmod(M, B, A, mod)  # x^M = a + b x
        num = [(a * a - B * b * b + A * a + B) % mod, (2 * a * b - A * b * b + A * b) % mod]
    else:
        g = [c % mod for c in Trinomial(N // qm, M // qm, A, B).coeffs()]
        x_m = _powmod([0, 1], M, g, mod)
        num = [(c + A * xc) % mod for c, xc in zip(_powmod([0, 1], N, g, mod), x_m)]
        num[0] = (num[0] + B) % mod
    if any(c % q for c in num):
        raise InconsistencyError(f"q = {q} does not divide the case-4 numerator (qm = {qm})")
    return [c % q for c in g], [c // q for c in num]


def index_check_prime(t: Trinomial, q: int) -> IndexVerdict:
    """Decide whether prime q divides the index [Z_K : Z[theta]] for t.

    Requires t irreducible over Q (the caller vouches for it) and q | disc(t),
    checked here, the one place q comes from outside: Swan's closed form
    disc(t) = (-1)^(N(N-1)/2) * B^(M-1) * D^r, D from index_d_value, decides it.
    """
    require_prime(q, "q")
    d, norm = index_d_value(t)
    if not ((t.M > 1 and t.B % q == 0) or d % q == 0):
        raise ValueError(f"q = {q} does not divide the discriminant of {t}")
    return IndexVerdict(q, *_index_case(*t, q, d, norm))


def _quotient(c: int, q: int, e: int, what: str, f: tuple) -> int:
    """(c + (-c)^(q^e))/q mod q, read off mod q^2 with the division checked; what and f name it."""
    num = (c + pow(-c, q**e, q * q)) % (q * q)
    if num % q:
        raise InconsistencyError(f"q = {q} does not divide {what} for {Trinomial(*f)}")
    return num // q


def _index_case(
    n: int, m: int, a: int, b: int, q: int, d: int, norm: int
) -> tuple[bool, int, str]:
    """index_check_prime's verdict triple, after its q | disc check; (d, norm) = _d_norm."""
    r = math.gcd(n, m)
    n1, m1 = n // r, m // r
    q2 = q * q

    if a % q == 0 and b % q == 0:
        ok = b % q2 != 0
        detail = "q^2 does not divide B" if ok else "q^2 divides B"
        return not ok, 1, detail

    if a % q == 0:
        b1 = _quotient(b, q, _valuation(q, n), "B + (-B)^(q^e)", (n, m, a, b))
        a2 = a // q % q
        if a2 == 0 and b1 != 0:
            return False, 2, "q | A2 and q does not divide B1"
        val = a2 * (pow(-b, m1, q) * pow(a2, n1, q) - pow(-b1, n1, q)) % q
        if val:
            return False, 2, "A2*((-B)^M1*A2^N1 - (-B1)^N1) nonzero mod q"
        return True, 2, "both case-2 branches vanish mod q"

    if b % q == 0:
        a1 = _quotient(a, q, _valuation(q, n - m), "A + (-A)^(q^j)", (n, m, a, b))
        b2 = b // q % q
        if a1 == 0 and b2 != 0:
            return False, 3, "q | A1 and q does not divide B2"
        val = (
            a1
            * pow(b2, m - 1, q)
            * (pow(-a, m1, q) * pow(a1, n1 - m1, q) - pow(-b2, n1 - m1, q))
            % q
        )
        if val:
            return False, 3, "A1*B2^(M-1)*((-A)^M1*A1^(N1-M1) - (-B2)^(N1-M1)) nonzero mod q"
        return True, 3, "both case-3 branches vanish mod q"

    if m % q == 0:
        mv = min(_valuation(q, n), _valuation(q, m))
        g, h = _case4_g_h(n, m, a, b, q, q**mv)
        degree = len(_poly_gcd(g, h, q)) - 1  # G is monic, so the gcd is never empty
        return degree != 0, 4, f"gcd(G, H) over F_q has degree {degree}"

    ok = norm % q2 != 0
    detail = "q^2 does not divide D/r^N1" if ok else "q^2 divides D/r^N1"
    return not ok, 5, detail


def is_monogenic_fp(
    k: int, p: int, *, factor_budget: int | None = None
) -> MonogenicityReport:
    """Full per-prime index scan of F_p = x^{2p} - k x^p - 1.

    Valid only under the standing hypotheses (4 does not divide k and
    (k^2+4)/gcd(2,k)^2 squarefree), which guarantee irreducibility; they
    are checked first. The discriminant's prime factors are p together
    with the primes of k^2+4, read off the closed form, so none needs the
    q | disc check of index_check_prime. The discriminant itself is not
    built: the report computes it only when read.
    """
    hyp = validate_k(k, factor_budget=factor_budget).require()
    t = wss_trinomial(k, p)
    # primes(k^2+4) = primes(D): D = k^2+4 for odd k, and for k = 2 mod 4,
    # D = (k/2)^2 + 1 is even, so dividing by 4 loses no prime.
    qs = sorted({p, *hyp.factorization.primes()})
    d_value = index_d_value(t)
    verdicts = tuple(IndexVerdict(q, *_index_case(*t, q, *d_value)) for q in qs)
    return MonogenicityReport(
        trinomial=t,
        verdicts=verdicts,
        monogenic=not any(v.divides_index for v in verdicts),
    )


def _fp_divides_index(hyp: WssHypotheses, p: int) -> bool:
    """not is_monogenic_fp(k, p).monogenic, building no record; every q is still decided."""
    n, m, a = 2 * p, p, -hyp.k
    d, norm = _d_norm(n, m, a, -1)
    qs = {p, *hyp.factorization.primes()}
    return any([_index_case(n, m, a, -1, q, d, norm)[0] for q in qs])
