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


def _closes_mod_p2(k: int, n: int, p: int) -> bool:
    """U closes mod p^2 at n, a multiple of pi(p); InconsistencyError unless it closes mod p."""
    a, b = _u_pair(k, n, p * p)
    if a % p or b % p != 1:
        raise InconsistencyError(
            f"the sequence for k={k} does not close mod {p} at the multiple {n}"
        )
    return (a, b) == (0, 1)


def _period_hit(k: int, p: int) -> bool:
    """pi(p^2) = pi(p), for a p the caller has proven prime, from one ladder to Wall's multiple L.

    pi(p^2) is pi(p) or p*pi(p), and U closes mod p^2 at L exactly when
    pi(p^2) | L. So where p does not divide L, closing there decides. p
    divides L only at L = 6 (p = 2) or L = 4p (delta_p = 0); there L, which
    factors without rho iterations, is stripped to pi(p) and tested again.
    """
    top = _prime_multiple(k, p)
    return _closes_mod_p2(k, top, p) and (
        top % p != 0 or _closes_mod_p2(k, _strip(k, top, factorize(top).factors, p), p)
    )


def _periods_p_p2(k: int, p: int, *, factor_budget: int | None = None) -> tuple[int, int]:
    """(pi(p), pi(p^2)) for a p the caller has proven prime, from one ladder mod p^2 at pi(p).

    The strip divides only while U still closes mod p, so a multiple that
    does not close is left whole and the ladder at it raises.
    """
    top = _prime_multiple(k, p)
    pi_p = _strip(k, top, factorize(top, budget=factor_budget).factors, p)
    return pi_p, pi_p if _closes_mod_p2(k, pi_p, p) else p * pi_p


def period_p_squared(k: int, p: int) -> int:
    """pi(p^2) for prime p."""
    require_prime(p)
    require_k_m(k)
    return _periods_p_p2(k, p)[1]
