"""Wall-Sun-Sun primes for the Lucas sequences U_n = k*U_{n-1} + U_{n-2}.

A prime p is k-Wall-Sun-Sun when the period of (U_n) mod p^2 equals the
period mod p. Under mild hypotheses on k this is equivalent to the
trinomial x^{2p} - k x^p - 1 failing to be monogenic, and the package
computes both sides of that equivalence (plus two intermediate criteria)
so they can be checked against each other at scale.
"""

import types

from .errors import (
    CriterionUnsupportedError,
    FactorizationBudgetError,
    HypothesisError,
    InconsistencyError,
    ResourceBudgetError,
)
from .intmath import DEFAULT_FACTOR_BUDGET, Factorization, factorize, is_prime, jacobi
from .lucas import lucas_u, period_p_squared, pisano_period
from .quadring import QuadElem, conjugate, eval_fp_alpha
from .trinomial import (
    IndexVerdict,
    MonogenicityReport,
    Trinomial,
    discriminant_resultant,
    fp_discriminant,
    index_check_prime,
    index_d_value,
    is_monogenic_fp,
    wss_trinomial,
)
from .wss import (
    SearchHit,
    SearchResult,
    WssClassification,
    WssHypotheses,
    classify,
    delta_p,
    is_wss_by_alpha,
    is_wss_by_entry,
    is_wss_by_monogenicity,
    is_wss_by_period,
    search,
    validate_k,
)

__version__ = "0.1.0"

# Every name imported above; the submodules those imports bind are not exported.
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + ["__version__"]
