"""Upper half-plane geometry used by the strip construction.

Points are complex numbers with positive imaginary part.  Besides the
distance we need the analogue of the tree confluent: the highest point of
the connecting geodesic arc.  The distance splits additively there, and
2*log Im(apex) - log y1 - log y2 approximates the distance within log 4.
"""

from __future__ import annotations

import math

_VERTICAL_EPS = 1e-12


def _check(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point must have positive imaginary part: {z}")
    return z


def hyp_distance(z1: complex, z2: complex) -> float:
    """Hyperbolic distance 2 asinh(|z1 - z2| / (2 sqrt(y1 y2))).

    This equals acosh(1 + |z1 - z2|^2 / (2 y1 y2)) but keeps its relative
    accuracy for nearby points, where the acosh argument rounds to 1.
    """
    z1, z2 = _check(z1), _check(z2)
    chord = math.hypot(z1.real - z2.real, z1.imag - z2.imag)
    return 2.0 * math.asinh(chord / (2.0 * math.sqrt(z1.imag * z2.imag)))


def apex(z1: complex, z2: complex) -> complex:
    """Point of maximal imaginary part on the geodesic arc from z1 to z2.

    For (nearly) vertical pairs the arc is a segment of a vertical line and
    the apex is the higher endpoint; the circle-center formula is
    ill-conditioned there.  Otherwise the arc is part of a circle centered
    at (c, 0); its top lies on the arc only when c falls between the two
    abscissae, else the higher endpoint is the apex.
    """
    z1, z2 = _check(z1), _check(z2)
    if abs(z1.real - z2.real) < _VERTICAL_EPS:
        return z1 if z1.imag >= z2.imag else z2
    c = ((z1.real**2 + z1.imag**2) - (z2.real**2 + z2.imag**2)) / (
        2.0 * (z1.real - z2.real)
    )
    if min(z1.real, z2.real) <= c <= max(z1.real, z2.real):
        r = math.hypot(z1.real - c, z1.imag)
        return complex(c, r)
    return z1 if z1.imag >= z2.imag else z2


def busemann(z: complex, base: float) -> float:
    """Height coordinate log_base(Im z) with respect to the top boundary point."""
    z = _check(z)
    if not base > 1.0:
        raise ValueError("base must be > 1")
    return math.log(z.imag) / math.log(base)
