"""Check the period, entry, alpha and q = p index verdicts on every k mod p^2 at small p.

Each of the four verdicts at (k, p) depends on k mod p^2 only, and so does
p^2 | k^2+4, so k in [1, p^2] covers every k >= 1 at that p. For each odd p
in the sweep and each such k:

  p^2 !| k^2+4   the period verdict pi(p^2) = pi(p), entry's
                 U_{p-delta} = 0 mod p^2, alpha's F_p(alpha) = 0 in R_{p^2}
                 and the q = p index verdict of F_p all agree
  p^2 | k^2+4    period and entry say no, alpha and q = p say yes
  per p          exactly p - 1 - (-1 | p) of the p^2 residues are hits

At p = 2 it checks k in [1, 4]: the period verdict is a hit exactly when
4 | k, and the q = 2 index verdict agrees. The count law is proved in the
docstring of test_wss.py::test_every_k_mod_p_squared_agrees_at_small_p.

Run from the repository root: PYTHONPATH=src python tests/sweep_full_period.py
It sweeps every prime p < 300 (about half a minute), prints the counts, and
exits 1 on a disagreement or when a count is not EXPECTED. pytest does not
collect it; the tier-1 suite runs sweep() on p < 60.
"""

from __future__ import annotations

import sys
from collections import Counter

from oracles import legendre_euler, sieve_primes
from wallsunsun import trinomial
from wallsunsun.lucas import _period_hit
from wallsunsun.quadring import _fp_alpha
from wallsunsun.wss import _entry_hit

# p < 300: the cells where the four verdicts agree, and the two roots of k^2 + 4 = 0
# mod p^2 at each of the 29 primes p = 1 mod 4 below 300
EXPECTED = Counter({"cells": 1_598_363, "p^2 | k^2+4": 58, "cells at p = 2": 4})


def _q_is_p(k: int, p: int) -> bool:
    """The q = p verdict of the index cases on F_p = x^(2p) - k x^p - 1."""
    return trinomial._index_case(2 * p, p, -k, -1, p, *trinomial._d_norm(2 * p, p, -k, -1))[0]


def sweep(primes) -> tuple[Counter, list]:
    """The counts over every k in [1, p^2] for each p in primes, and each disagreement."""
    counts, bad = Counter(), []
    for p in primes:
        if p == 2:
            for k in range(1, 5):
                counts["cells at p = 2"] += 1
                if not _period_hit(k, 2) == (k % 4 == 0) == _q_is_p(k, 2):
                    bad.append((k, 2, "p = 2: hit <=> 4 | k <=> q = 2 divides the index"))
            continue
        hits = 0
        for k in range(1, p * p + 1):
            delta = legendre_euler(k * k + 4, p)
            verdicts = (
                _period_hit(k, p),
                _entry_hit(k, p, delta),
                _fp_alpha(k, p) == (0, 0),
                _q_is_p(k, p),
            )
            if (k * k + 4) % (p * p) == 0:
                counts["p^2 | k^2+4"] += 1
                if verdicts != (False, False, True, True):
                    bad.append((k, p, f"p^2 | k^2+4: period, entry, alpha, q = p {verdicts}"))
            else:
                counts["cells"] += 1
                hits += verdicts[0]
                if len(set(verdicts)) != 1:
                    bad.append((k, p, f"period, entry, alpha, q = p disagree: {verdicts}"))
        if hits != p - 1 - legendre_euler(-1, p):
            bad.append((None, p, f"{hits} hits, not p - 1 - (-1 | p)"))
    return counts, bad


def main() -> int:
    counts, bad = sweep(sieve_primes(299))
    print(dict(sorted(counts.items())))
    for cell in bad:
        print("disagreement:", *cell)
    if counts != EXPECTED:
        print(f"counts changed, expected {dict(sorted(EXPECTED.items()))}")
    return 1 if bad or counts != EXPECTED else 0


if __name__ == "__main__":
    sys.exit(main())
