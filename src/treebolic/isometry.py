"""Level-respecting isometries: paired affine maps of the half-plane and of
the p-adic line.

The half-plane factor is z -> q**n z + b; the tree factor is the ball action
of u -> p**k u + c, which shifts levels by k.  An isometry of the glued
space pairs one of each with the matching requirement n = k, so a single
integer (the level shift) controls both sides.  The group is non-unimodular
whenever p != q, with modular function (p/q)**shift; for q = p the group
words in the two standard generators

    a : scale by p        b : translate by 1,    subject to a b = b**p a,

evaluate inside it exactly (translation amounts stay in Z[1/p]).
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import PadicRational
from .space import HTPoint
from .tree import TreePoint, TreeVertex


@dataclass(frozen=True)
class AffH:
    """Affine map z -> q**n z + b of the upper half-plane."""

    q: float
    n: int
    b: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("q must be > 1")

    @classmethod
    def identity(cls, q: float) -> "AffH":
        return cls(q, 0, 0.0)

    def compose(self, other: "AffH") -> "AffH":
        if self.q != other.q:
            raise ValueError("scale-base mismatch")
        return AffH(self.q, self.n + other.n, self.b + self.q**self.n * other.b)

    def inverse(self) -> "AffH":
        return AffH(self.q, -self.n, -self.b * self.q**-self.n)


@dataclass(frozen=True)
class AffT:
    """Affine map u -> p**k u + c of the p-adic line, acting on tree vertices
    as a ball map (level shift k)."""

    p: int
    k: int
    c: PadicRational

    def __post_init__(self):
        if self.c.p != self.p:
            raise ValueError("translation part must share the base p")

    @classmethod
    def identity(cls, p: int) -> "AffT":
        return cls(p, 0, PadicRational.zero(p))

    @property
    def phi(self) -> int:
        """Level shift hor(image) - hor(argument)."""
        return self.k

    def apply_scalar(self, u: PadicRational) -> PadicRational:
        return u.shift(self.k) + self.c

    def apply_vertex(self, v: TreeVertex) -> TreeVertex:
        if v.p != self.p:
            raise ValueError("base mismatch")
        return TreeVertex(self.apply_scalar(v.center), v.level + self.k)

    def apply_point(self, w: TreePoint) -> TreePoint:
        return TreePoint(self.apply_vertex(w.upper), w.offset)

    def compose(self, other: "AffT") -> "AffT":
        if self.p != other.p:
            raise ValueError("base mismatch")
        return AffT(self.p, self.k + other.k, self.c + other.c.shift(self.k))

    def inverse(self) -> "AffT":
        return AffT(self.p, -self.k, (-self.c).shift(-self.k))


@dataclass(frozen=True)
class AfElement:
    """Paired isometry (g, gamma) with matching level shift g.n == gamma.k."""

    g: AffH
    gamma: AffT

    def __post_init__(self):
        if self.g.n != self.gamma.k:
            raise ValueError(
                f"level shifts disagree: half-plane {self.g.n}, tree {self.gamma.k}"
            )

    @classmethod
    def identity(cls, q: float, p: int) -> "AfElement":
        return cls(AffH.identity(q), AffT.identity(p))

    @property
    def phi(self) -> int:
        return self.gamma.k

    def act(self, zf: HTPoint) -> HTPoint:
        return HTPoint(
            self.g.q**self.g.n * zf.x + self.g.b, self.gamma.apply_point(zf.w)
        )

    def compose(self, other: "AfElement") -> "AfElement":
        return AfElement(self.g.compose(other.g), self.gamma.compose(other.gamma))

    def inverse(self) -> "AfElement":
        return AfElement(self.g.inverse(), self.gamma.inverse())


def modular_h(g: AffH) -> float:
    """Modular function q**(-n) of the half-plane affine group."""
    return g.q**-g.n


def modular_t(gamma: AffT) -> float:
    """Modular function p**shift of the tree affine group."""
    return float(gamma.p) ** gamma.phi


def modular(a: AfElement) -> float:
    """Modular function (p/q)**shift of the paired group."""
    return (a.gamma.p / a.g.q) ** a.phi


def haar_density(a: AfElement) -> float:
    """Left-Haar density q**(-shift) in (translation, tree-factor) coordinates."""
    return a.g.q**-a.phi


def reflect(zf: HTPoint) -> HTPoint:
    """The reflection (x, w) -> (-x, w); an involutive isometry."""
    return HTPoint(-zf.x, zf.w)


def _tokens(word: str) -> list[str]:
    toks: list[str] = []
    for raw in word.split():
        if raw in ("a", "b", "a^-1", "b^-1", "a-1", "b-1"):
            toks.append(raw.replace("-1", "^-1").replace("^^", "^"))
        elif raw and all(ch in "abAB" for ch in raw):
            for ch in raw:
                toks.append(ch.lower() + ("^-1" if ch.isupper() else ""))
        else:
            raise ValueError(f"unrecognized token {raw!r}; use a, b, a^-1, b^-1")
    return toks


def bs_word(word: str, p: int) -> AfElement:
    """Evaluate a word in the generators a (scale by p) and b (translate by 1)
    and return the diagonal isometry of the q = p space.

    The translation amount is computed exactly in Z[1/p], so words equal in
    the group (e.g. "a b" and "b"*p + "a") produce identical elements.
    """
    if not (isinstance(p, int) and p >= 2):
        raise ValueError("p must be an integer >= 2")
    shift = 0
    trans = PadicRational.zero(p)
    one = PadicRational(p, 1)
    for tok in _tokens(word):
        if tok == "a":
            dk, dc = 1, PadicRational.zero(p)
        elif tok == "a^-1":
            dk, dc = -1, PadicRational.zero(p)
        elif tok == "b":
            dk, dc = 0, one
        else:  # b^-1
            dk, dc = 0, -one
        trans = trans + dc.shift(shift)
        shift += dk
    return AfElement(AffH(float(p), shift, float(trans)), AffT(p, shift, trans))
