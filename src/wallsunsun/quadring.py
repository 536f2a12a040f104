"""Arithmetic in R_m = (Z/mZ)[x] / (x^2 - kx - 1).

Elements are written a + b*alpha with alpha^2 = k*alpha + 1. Since
alpha * (alpha - k) = 1, alpha is always a unit, and alpha^n = U_{n-1} +
U_n * alpha ties powers of alpha to the Lucas sequence. The conjugate
alpha -> k - alpha is a ring automorphism fixing Z/mZ.
"""

from __future__ import annotations

from .intmath import require_k_m, require_prime


class QuadElem:
    """a + b*alpha in R_m for the ring determined by (k, m); immutable, a and b reduced mod m.

    Not a tuple, so that an int times an element raises rather than repeats it.
    """

    __slots__ = ("a", "b", "k", "m")

    def __init__(self, a: int, b: int, k: int, m: int):
        require_k_m(k, m)
        for name, value in (("a", a % m), ("b", b % m), ("k", k), ("m", m)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"QuadElem is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QuadElem is immutable: cannot delete {name!r}")

    def _key(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.k, self.m

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"QuadElem(a={self.a!r}, b={self.b!r}, k={self.k!r}, m={self.m!r})"

    def __reduce__(self):
        return QuadElem, self._key()

    def _match(self, other: "QuadElem") -> None:
        if not isinstance(other, QuadElem):
            raise TypeError(f"expected QuadElem, got {type(other).__name__}")
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError(
                f"ring mismatch: (k={self.k}, m={self.m}) vs (k={other.k}, m={other.m})"
            )

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._match(other)
        return QuadElem(self.a + other.a, self.b + other.b, self.k, self.m)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._match(other)
        return QuadElem(self.a - other.a, self.b - other.b, self.k, self.m)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.k, self.m)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        # (a1 + b1 t)(a2 + b2 t) with t^2 = k t + 1
        self._match(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadElem(
            a1 * a2 + b1 * b2,
            a1 * b2 + a2 * b1 + self.k * b1 * b2,
            self.k,
            self.m,
        )

    def __pow__(self, exponent: int) -> "QuadElem":
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        return QuadElem(*_pair_pow(self.a, self.b, exponent, self.k, self.m), self.k, self.m)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 % self.m and self.b == 0

    @classmethod
    def one(cls, k: int, m: int) -> "QuadElem":
        return cls(1, 0, k, m)

    @classmethod
    def alpha(cls, k: int, m: int) -> "QuadElem":
        return cls(0, 1, k, m)

    @classmethod
    def scalar(cls, c: int, k: int, m: int) -> "QuadElem":
        return cls(c, 0, k, m)


def conjugate(x: QuadElem) -> QuadElem:
    """Image under alpha -> k - alpha, so a + b*alpha -> (a + b*k) - b*alpha."""
    return QuadElem(x.a + x.b * x.k, -x.b, x.k, x.m)


def eval_fp_alpha(k: int, p: int) -> QuadElem:
    """x^(2p) - k*x^p - 1 evaluated at alpha in R_{p^2}.

    Vanishing of this element is one of the equivalent detection criteria
    for p being a k-Wall-Sun-Sun prime.
    """
    require_prime(p)
    return QuadElem(*_fp_alpha(k, p), k, p * p)


def _fp_alpha(k: int, p: int) -> tuple[int, int]:
    """eval_fp_alpha as a reduced pair, for a p the caller has proven prime."""
    # ap = a + b*alpha = alpha^p; with alpha^2 = k*alpha + 1,
    # ap^2 - k*ap - 1 = (a^2 + b^2 - k*a - 1) + b*(2a + k*b - k)*alpha.
    m = p * p
    a, b = _pair_pow(0, 1, p, k, m)
    return (a * a + b * b - k * a - 1) % m, b * (2 * a + k * b - k) % m


def _pair_pow(x: int, y: int, e: int, k: int, m: int) -> tuple[int, int]:
    """(x + y*alpha)^e in R_m by left-to-right square-and-multiply on pairs; e >= 0.

    Each bit of e squares the running (a, b); a set bit then multiplies by
    the fixed base, which for alpha itself is the shift (a, b) -> (b, a + k*b).
    """
    z = x + k * y
    a, b = 1, 0
    for bit in bin(e)[2:]:
        a, b = (a * a + b * b) % m, b * (2 * a + k * b) % m
        if bit == "1":
            a, b = (a * x + b * y) % m, (a * y + b * z) % m
    return a, b
