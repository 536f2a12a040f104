"""Seeded inputs for the benchmark workloads.

Inputs depend only on the seed and on which k pass the library's
validate_k, the hypothesis filter every k of a real run has to pass too.
Two properties that set how much work an input is are held fixed across
seeds, so that runs with different seeds measure the same amount of work:

* search windows hold exactly WINDOW_VALID hypothesis-passing k, because the
  alpha and all criteria scan only those and the cost of a search call is
  proportional to their number;
* check calls are a stratified sample over the trial-division bound of
  k^2+4 (see trial_division_bound), which is what a check call's factoring
  costs, and each prime p <= CHECK_P_MAX is used equally often.
"""

from __future__ import annotations

import math
import random

WINDOW = 20
WINDOW_VALID = 14  # the most common count of hypothesis-passing k in 20 consecutive k
WINDOW_START_MAX = 200

CHECK_CALLS = 312  # four calls per prime p <= CHECK_P_MAX
CHECK_K_RANGE = (10**5, 10**6)
CHECK_P_MAX = 400
CHECK_POOL_PER_CALL = 8


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [n for n, f in enumerate(flags) if f]


def search_window(seed: int, validate_k) -> tuple[int, int]:
    """(k_min, k_max) of a seeded window of WINDOW consecutive k with WINDOW_VALID valid k."""
    rng = random.Random(f"window:{seed}")
    while True:
        k_min = rng.randrange(1, WINDOW_START_MAX + 1)
        k_max = k_min + WINDOW - 1
        valid = sum(validate_k(k).satisfied for k in range(k_min, k_max + 1))
        if valid == WINDOW_VALID:
            return k_min, k_max


# The check pool is factored here rather than with the library's factorize:
# the library trial-divides up to 10**6 before it tries rho, which makes the
# pool an order of magnitude slower to build, and the inputs should not
# depend on the code they measure.
#
# Deterministic Miller-Rabin bases for every n < 3.4 * 10**14, far above the
# k^2 + 4 < 10**12 factored here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard rho, Floyd cycle finding)."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
        c += 1


def prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending."""
    out = []
    for p in (2, 3, 5):
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out.append(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += [root, root]
            continue
        f = _rho(m)
        stack += [f, m // f]
    return sorted(out)


def trial_division_bound(n: int) -> int:
    """How far trial division has to run to factor n completely.

    Trial division stops at the first d with d*d above the cofactor still
    left, so the bound is the larger of the last prime divided out and the
    square root of the cofactor when it stops.
    """
    rest, last = n, 1
    for q in prime_factors(n):
        if q * q > rest:
            break
        rest //= q
        last = q
    return max(last, math.isqrt(rest))


def check_cases(seed: int, validate_k) -> list[tuple[int, int]]:
    """Seeded (k, p) pairs for the check workload.

    A pool of CHECK_POOL_PER_CALL random k per call is sorted by the
    trial-division bound of k^2+4 and cut into CHECK_CALLS equal strata;
    each stratum contributes its first k, in random order, that passes
    validate_k (a stratum where none passes, rare, contributes none).
    Primes are dealt out evenly and paired with k at random.
    """
    rng = random.Random(f"check:{seed}")
    pool = rng.sample(range(*CHECK_K_RANGE), CHECK_CALLS * CHECK_POOL_PER_CALL)
    pool.sort(key=lambda k: (trial_division_bound(k * k + 4), k))
    ks = []
    for i in range(CHECK_CALLS):
        stratum = pool[i * CHECK_POOL_PER_CALL : (i + 1) * CHECK_POOL_PER_CALL]
        rng.shuffle(stratum)
        k = next((k for k in stratum if validate_k(k).satisfied), None)
        if k is not None:
            ks.append(k)
    primes = primes_upto(CHECK_P_MAX)
    ps = [primes[i % len(primes)] for i in range(len(ks))]
    rng.shuffle(ps)
    cases = list(zip(ks, ps))
    rng.shuffle(cases)
    return cases
