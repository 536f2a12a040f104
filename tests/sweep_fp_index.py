"""Check the index side of the criterion against a maximal order, with no code from the index cases.

For each cell (k, p) with F_p = x^(2p) - k x^p - 1 irreducible, the index
[Z_K : Z[theta]] comes from oracles.fp_index_squared (sympy's round_two)
and the k-Wall-Sun-Sun verdict from the period, pi(p^2) = pi(p). Three
statements are checked:

  valid k      p | index  <=>  p is k-Wall-Sun-Sun  (the paper's theorem)
  valid k      no prime q | k^2+4 divides the index (the paper's second claim)
  p^2 !| k^2+4 p | index  <=>  p is k-Wall-Sun-Sun  (the p-local form, any k)

Valid k are those with 4 not dividing k and (k^2+4)/gcd(2,k)^2 squarefree.

Run from the repository root: PYTHONPATH=src python tests/sweep_fp_index.py
It sweeps k <= 200 and p <= 11 (minutes), prints the counts, and exits 1 on a
counterexample or when the count of oracle failures is not ORACLE_FAILURES.
pytest does not collect it; the tier-1 suite runs sweep() on a slice.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

from oracles import fp_index_squared, fp_is_reducible, squarefree_slow, trial_factor
from wallsunsun.lucas import _periods_p_p2

# F_5 at k = 36, 64, 136 and 164, where sympy 1.14.0's round_two returns disc(Z_K) = 0
ORACLE_FAILURES = 4


def sweep(ks, ps) -> tuple[Counter, list]:
    """The counts of cells over ks x ps, and every counterexample as (k, p, statement)."""
    counts, bad = Counter(), []
    for p in ps:
        for k in ks:
            # F_2 is irreducible: by Capelli, the root of y^2 - ky - 1 would be a square, of norm -1
            if p > 2 and fp_is_reducible(k, p):
                counts["reducible"] += 1
                continue
            index_sq = fp_index_squared(k, p)
            if index_sq is None:
                counts["oracle failure"] += 1
                continue
            counts["cells"] += 1
            pi_p, pi_p2 = _periods_p_p2(k, p)
            hit = pi_p == pi_p2
            counts["hits"] += hit
            p_divides = index_sq % p == 0  # p | index^2 exactly when p | index
            d = k * k + 4
            if k % 4 and squarefree_slow(d // math.gcd(2, k) ** 2):
                counts["valid k"] += 1
                if p_divides != hit:
                    bad.append((k, p, "valid k: p | index <=> hit"))
                if any(index_sq % q == 0 for q in trial_factor(d)):
                    bad.append((k, p, "valid k: no q | k^2+4 divides the index"))
            if d % (p * p) and p_divides != hit:
                bad.append((k, p, "p^2 !| k^2+4: p | index <=> hit"))
    return counts, bad


def main() -> int:
    counts, bad = sweep(range(1, 201), (2, 3, 5, 7, 11))
    print(dict(sorted(counts.items())))
    for cell in bad:
        print("counterexample:", *cell)
    if counts["oracle failure"] != ORACLE_FAILURES:
        print(f"oracle failures: {counts['oracle failure']}, expected {ORACLE_FAILURES}")
    return 1 if bad or counts["oracle failure"] != ORACLE_FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
