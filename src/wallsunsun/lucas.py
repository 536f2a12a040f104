"""Lucas sequences U_n(k, -1) and their periods.

U_0 = 0, U_1 = 1, U_n = k*U_{n-1} + U_{n-2}. k = 1 is Fibonacci, k = 2 is
Pell. The period pi(m) is the least T > 0 with (U_T, U_{T+1}) = (0, 1) mod m,
which is also the order of the companion matrix C = [[0,1],[1,k]] mod m.

Periods are found by order finding on a known multiple rather than by
walking the sequence. For a prime q, pi(q) divides q - 1, 2(q + 1) or 4q as
the Legendre symbol (k^2+4 | q) is 1, -1 or 0, and pi(2) divides 6 (Wall,
"Fibonacci series modulo m", 1960). pi(q^e) divides pi(q) * q^(e-1), and
pi(m) is the lcm of the pi(q^e) over q^e || m. Factoring m and each of
those multiples, then dividing the lcm by its primes while fast doubling
still returns (0, 1), costs O(log^2 m) ring operations plus the factoring.
"""

from __future__ import annotations

import math

from .errors import InconsistencyError
from .intmath import factorize, jacobi, require_k_m, require_prime


def _u_pair(k: int, n: int, m: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) mod m by fast doubling.

    With Q = -1 the doubling laws are
        U_{2t}   = U_t * (2*U_{t+1} - k*U_t)
        U_{2t+1} = U_{t+1}^2 + U_t^2
    """
    a, b = 0, 1  # (U_0, U_1)
    for bit in bin(n)[2:]:
        twice = a * (2 * b - k * a) % m
        plus = (a * a + b * b) % m
        if bit == "0":
            a, b = twice, plus
        else:
            a, b = plus, (k * plus + twice) % m
    return a, b


def lucas_u(k: int, n: int, m: int) -> int:
    """U_n(k, -1) mod m."""
    require_k_m(k, m)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _u_pair(k, n, m)[0]


def _prime_multiple(k: int, q: int) -> int:
    """Wall's multiple of pi(q) for prime q: 6, q - 1, 2(q + 1) or 4q."""
    return 6 if q == 2 else {1: q - 1, -1: 2 * (q + 1), 0: 4 * q}[jacobi(k * k + 4, q)]


def _strip(k: int, period: int, exponents, m: int) -> int:
    """Divide a period mod m by its (prime, exponent) pairs while U still closes at the quotient."""
    for r, a in exponents:
        for _ in range(a):
            if _u_pair(k, period // r, m) != (0, 1):
                break
            period //= r
    return period


def pisano_period(k: int, m: int, *, factor_budget: int | None = None) -> int:
    """Least period of (U_n) mod m, by order finding on Wall's multiple.

    factor_budget caps the rho iterations of each factoring step, as in
    factorize; running out raises FactorizationBudgetError.
    """
    require_k_m(k, m)
    exponents: dict[int, int] = {}
    for q, e in factorize(m, budget=factor_budget).factors:
        piece = dict(factorize(_prime_multiple(k, q), budget=factor_budget).factors)
        piece[q] = piece.get(q, 0) + e - 1
        for r, a in piece.items():
            exponents[r] = max(exponents.get(r, 0), a)
    period = math.prod(r**a for r, a in exponents.items())
    if _u_pair(k, period, m) != (0, 1):
        raise InconsistencyError(
            f"the sequence for k={k} does not close mod {m} at the multiple {period}"
        )
    return _strip(k, period, exponents.items(), m)


def _closing(k: int, p: int) -> tuple[int, tuple[int, int]]:
    """(L, (U_L, U_{L+1}) mod p^2) for Wall's multiple L of pi(p), p proven prime.

    Raises InconsistencyError unless the pair is (0, 1) mod p, which proves
    pi(p) | L. Then a pair other than (0, 1) proves pi(p^2) does not divide
    L, so pi(p^2) != pi(p): one ladder rejects a cell without factoring L.
    """
    top = _prime_multiple(k, p)
    pair = _u_pair(k, top, p * p)
    if pair[0] % p or pair[1] % p != 1:
        raise InconsistencyError(
            f"the sequence for k={k} does not close mod {p} at the multiple {top}"
        )
    return top, pair


def _periods_p_p2(
    k: int, p: int, *, factor_budget: int | None = None, closing: tuple | None = None
) -> tuple[int, int]:
    """(pi(p), pi(p^2)) for a p the caller has proven prime, from one ladder mod p^2.

    closing is _closing(k, p), when the caller has run it already. pi(p^2)
    is pi(p) or p*pi(p). So when p does not divide L, pi(p^2) = pi(p)
    exactly when the sequence closes mod p^2 at L. p divides L only at
    p = 2 or delta_p = 0; there the closing is tested again at pi(p).
    """
    top, pair = closing or _closing(k, p)
    pi_p = _strip(k, top, factorize(top, budget=factor_budget).factors, p)
    if pair == (0, 1) and (top % p or _u_pair(k, pi_p, p * p) == (0, 1)):
        return pi_p, pi_p
    return pi_p, p * pi_p


def period_p_squared(k: int, p: int) -> int:
    """pi(p^2) for prime p."""
    require_prime(p)
    require_k_m(k)
    return _periods_p_p2(k, p)[1]
