"""Integer utilities: primality, factoring, Jacobi symbols, a segmented prime sieve.

Primality is deterministic for everything this package can realistically
meet: below 3,317,044,064,679,887,385,961,981 the fixed Miller-Rabin base
set of the first twelve primes is a proven witness set, and above that we
run 64 extra rounds with bases drawn from a generator seeded by n itself,
so results stay reproducible run to run.

factorize divides out the primes up to TRIAL_BOUND and asks is_prime about
each cofactor before Pollard rho splits it, so a prime times small primes
costs one primality test.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple

from .errors import FactorizationBudgetError

DEFAULT_FACTOR_BUDGET = 10_000_000
TRIAL_BOUND = 1_000

# The 12-prime base set below is a proven complete witness set for every n
# under this constant (covers well past 2^64). is_prime is deterministic up
# to here and probabilistic (but still reproducible) beyond.
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1. Equals the Legendre symbol for prime n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses that n is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 101 * 101:
        # a composite this small has a prime factor <= 97, and none divides n
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if _mr_witness(n, a, d, s):
            return False
    if n < DETERMINISTIC_PRIMALITY_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p < hi, by sieving [lo, hi) with the primes up to sqrt(hi)."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    flags = bytearray([1]) * (hi - lo)
    for d in primes_between(2, math.isqrt(hi - 1) + 1):
        start = max(d * d, -(-lo // d) * d) - lo
        flags[start::d] = bytes(len(range(start, hi - lo, d)))
    return list(itertools.compress(range(lo, hi), flags))


_SMALL_PRIMES = tuple(primes_between(2, 100))
_TRIAL_PRIMES = tuple(primes_between(2, TRIAL_BOUND + 1))


def require_prime(n: int, name: str = "p") -> None:
    """Raise ValueError unless n is prime: a public entry point's one primality test."""
    if not is_prime(n):
        raise ValueError(f"{name} must be prime, got {n}")


def require_k_m(k: int, m: int | None = None) -> None:
    """Raise ValueError unless k >= 1 and, if m is given, m >= 2: k is checked first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m is not None and m < 2:
        raise ValueError(f"m must be >= 2, got {m}")


class Factorization(namedtuple("Factorization", "n factors")):
    """Complete factorization of n: factors is sorted ((prime, exponent), ...)."""

    __slots__ = ()

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _pollard_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Brent-style rho. Returns (factor, evaluations_used); factor == n on failure.

    n must be odd, composite, and not a perfect power of a small prime (the
    caller has already stripped small primes).
    """
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            j = 0
            while j < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - j)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - j)
                g = math.gcd(q, n)
                j += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
    return n, used


def factorize(n: int, *, budget: int | None = None) -> Factorization:
    """Factor n >= 1 completely, or raise FactorizationBudgetError.

    Primes up to TRIAL_BOUND are divided out; a cofactor left over goes to
    is_prime, then a square check, then rho. budget caps the rho iterations
    (default 10**7), which pay for every factor above TRIAL_BOUND, those
    below 10**6 included; a negative budget is a ValueError. The error carries
    whatever part did factor plus the composite cofactor that did not.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if budget is None:
        budget = DEFAULT_FACTOR_BUDGET
    elif budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    original = n
    counts: dict[int, int] = {}
    for d in _TRIAL_PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
    if d * d > n > 1:  # no prime below d divides n, so n is prime
        counts[n] = 1
        n = 1
    # anything left has no prime factor up to TRIAL_BOUND
    stack = [n] if n > 1 else []
    rng = None  # seeded by original on first use, so results stay reproducible
    remaining = budget
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        if rng is None:
            rng = random.Random(original)
        f, used = _pollard_rho(m, rng, remaining)
        remaining -= used
        if f == m:
            partial = tuple(sorted(counts.items()))
            raise FactorizationBudgetError(
                f"factor budget exhausted with composite cofactor {m}",
                cofactor=m,
                partial=partial,
            )
        stack.extend((f, m // f))
    return Factorization(original, tuple(sorted(counts.items())))
