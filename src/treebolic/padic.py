"""Exact arithmetic in Z[1/p], the rationals with a p-power denominator.

A value is stored as ``num / p**denom_exp`` with the invariant that either
``denom_exp == 0`` or ``p`` does not divide ``num`` (zero is ``0 / p**0``).
Numerators are Python ints, so long group words never overflow and there is
no precision parameter: valuations, digit windows and ball centers are exact.
Composite bases are allowed; the norm is then only submultiplicative.

The base ``p = 1`` is accepted as a degenerate case that can only hold the
value 0.  It is what the one-branch tree (the sliced plane) needs for its
vertex centers, and nothing else.
"""

from __future__ import annotations

import math


class PadicRational:
    """An element of Z[1/p], normalized on construction."""

    __slots__ = ("p", "num", "denom_exp")

    def __init__(self, p: int, num: int, denom_exp: int = 0):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"base must be an integer >= 1, got {p!r}")
        if not isinstance(num, int) or not isinstance(denom_exp, int):
            raise ValueError("numerator and denominator exponent must be ints")
        if p == 1:
            if num != 0:
                raise ValueError("base 1 carries only the value 0")
            denom_exp = 0
        if denom_exp < 0:
            # p**k / 1 as num / p**0
            num *= p ** (-denom_exp)
            denom_exp = 0
        if num == 0:
            denom_exp = 0
        else:
            while denom_exp > 0 and num % p == 0:
                num //= p
                denom_exp -= 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "denom_exp", denom_exp)

    def __setattr__(self, name, value):  # immutable by construction
        raise AttributeError("PadicRational is immutable")

    @classmethod
    def zero(cls, p: int) -> "PadicRational":
        return cls(p, 0)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    # -- ring operations -------------------------------------------------

    def _check_base(self, other: "PadicRational") -> None:
        if self.p != other.p:
            raise ValueError(f"base mismatch: {self.p} vs {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicRational(self.p, other)
        if not isinstance(other, PadicRational):
            return NotImplemented
        self._check_base(other)
        p, la, lb = self.p, self.denom_exp, other.denom_exp
        num = self.num * p**lb + other.num * p**la
        return PadicRational(p, num, la + lb)

    __radd__ = __add__

    def __neg__(self):
        return PadicRational(self.p, -self.num, self.denom_exp)

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicRational(self.p, other)
        if not isinstance(other, PadicRational):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicRational(self.p, self.num * other, self.denom_exp)
        if not isinstance(other, PadicRational):
            return NotImplemented
        self._check_base(other)
        return PadicRational(
            self.p, self.num * other.num, self.denom_exp + other.denom_exp
        )

    __rmul__ = __mul__

    def shift(self, k: int) -> "PadicRational":
        """Multiply by p**k (exact for any sign of k)."""
        if k >= 0:
            return PadicRational(self.p, self.num * self.p**k, self.denom_exp)
        return PadicRational(self.p, self.num, self.denom_exp - k)

    # -- valuation, norm, digits -----------------------------------------

    def valuation(self) -> int | float:
        """Exponent of the leading digit; +inf for zero."""
        if self.num == 0:
            return math.inf
        if self.denom_exp > 0:
            # normalized: p does not divide num
            return -self.denom_exp
        v, n, p = 0, abs(self.num), self.p
        while n % p == 0:
            n //= p
            v += 1
        return v

    def norm(self) -> float:
        """p-adic norm p ** (-valuation); 0.0 for zero."""
        if self.num == 0:
            return 0.0
        return float(self.p) ** (-self.valuation())

    def digit(self, k: int) -> int:
        """Coefficient a_k of p**k in the digit expansion (a_k in 0..p-1).

        Well defined for all of Z[1/p]; negatives have the usual infinite
        expansion, e.g. -1 = (p-1) + (p-1)p + ... .
        """
        i = k + self.denom_exp
        if i < 0:
            return 0
        pk = self.p**i
        return (self.num % (pk * self.p)) // pk

    def digits(self, lo: int, hi: int) -> tuple[int, ...]:
        """Digits a_k for lo <= k < hi."""
        if lo > hi:
            raise ValueError("need lo <= hi")
        return tuple(self.digit(k) for k in range(lo, hi))

    def ball_center(self, m: int) -> "PadicRational":
        """Canonical center of the closed ball of radius p**-m containing self.

        The result c keeps only the digits at indices < m, so |self - c| <=
        p**-m and the map is idempotent.
        """
        j = m + self.denom_exp
        if j <= 0:
            return PadicRational.zero(self.p)
        return PadicRational(self.p, self.num % self.p**j, self.denom_exp)

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return self.num / self.p**self.denom_exp

    # -- comparisons, hashing, text ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.denom_exp == 0 and self.num == other
        if not isinstance(other, PadicRational):
            return NotImplemented
        # an integral value equals its int, so it equals that int in every base
        same_base = self.p == other.p or self.denom_exp == other.denom_exp == 0
        return same_base and self.num == other.num and self.denom_exp == other.denom_exp

    def __hash__(self):
        # an integral value equals its int, so it must hash as one
        if self.denom_exp == 0:
            return hash(self.num)
        return hash((self.p, self.num, self.denom_exp))

    def __repr__(self):
        if self.denom_exp == 0:
            return f"{self.num}"
        return f"{self.num}/{self.p}^{self.denom_exp}"
