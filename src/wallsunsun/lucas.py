"""Lucas sequences U_n(k, -1) and their periods.

U_0 = 0, U_1 = 1, U_n = k*U_{n-1} + U_{n-2}. k = 1 is Fibonacci, k = 2 is
Pell. The period pi(m) is the least T > 0 with (U_T, U_{T+1}) = (0, 1) mod m,
which is also the order of the companion matrix C = [[0,1],[1,k]] mod m.
"""

from __future__ import annotations

from .intmath import is_prime


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")


def _u_pair(k: int, n: int, m: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) mod m by fast doubling.

    With Q = -1 the doubling laws are
        U_{2t}   = U_t * (2*U_{t+1} - k*U_t)
        U_{2t+1} = U_{t+1}^2 + U_t^2
    """
    a, b = 0, 1  # (U_0, U_1)
    for bit in bin(n)[2:] if n else "":
        twice = a * (2 * b - k * a) % m
        plus = (a * a + b * b) % m
        if bit == "0":
            a, b = twice, plus
        else:
            a, b = plus, (k * plus + twice) % m
    return a, b


def lucas_u(k: int, n: int, m: int) -> int:
    """U_n(k, -1) mod m."""
    _check_k(k)
    _check_m(m)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _u_pair(k, n, m)[0]


def pisano_period(k: int, m: int) -> int:
    """Least period of (U_n) mod m, by direct state iteration.

    The state map (a, b) -> (b, k*b + a) is invertible mod m, so the orbit
    of (0, 1) is a pure cycle and the loop below terminates in fewer than
    m^2 steps.
    """
    _check_k(k)
    _check_m(m)
    a, b = 0, 1
    n = 0
    cap = 2 * m * m + 4
    while True:
        a, b = b, (k * b + a) % m
        n += 1
        if a == 0 and b == 1:
            return n
        if n > cap:  # unreachable, the orbit size is below m^2
            raise RuntimeError(f"period search exceeded {cap} steps")


def _periods_p_p2(k: int, p: int) -> tuple[int, int]:
    """(pi(p), pi(p^2)) for prime p, from one walk mod p.

    pi(p^2) is either pi(p) or p*pi(p), never anything else. It is
    therefore enough to test whether the mod-p period already closes
    mod p^2, which fast doubling answers in O(log p) ring operations
    instead of the p*pi(p) steps a direct walk could take.
    """
    _check_k(k)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pi_p = pisano_period(k, p)
    if _u_pair(k, pi_p, p * p) == (0, 1):
        return pi_p, pi_p
    return pi_p, p * pi_p


def period_p_squared(k: int, p: int) -> int:
    """pi(p^2) for prime p."""
    return _periods_p_p2(k, p)[1]
