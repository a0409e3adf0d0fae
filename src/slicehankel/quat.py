"""Quaternion scalar arithmetic, the sphere of imaginary units and boundary points.

Conventions: components ordered (w, x, y, z) along (1, i, j, k) with the
Hamilton relations ij = k, jk = i, ki = j.
"""

from __future__ import annotations

import math

__all__ = [
    "REFERENCE_UNIT",
    "Quaternion",
    "ImaginaryUnit",
    "BoundaryPoint",
    "exp_unit",
    "sample_sphere",
]

_TWO_PI = 2.0 * math.pi
# an imaginary vector shorter than this is rounding noise: ImaginaryUnit
# refuses to normalize it, and from_quaternion reads such a point as real
_NEAR_REAL = 1e-12


class Quaternion:
    """A value in H.  Immutable by convention; all operations return new values."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        w, x, y, z = float(w), float(x), float(y), float(z)
        if not (math.isfinite(w) and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("quaternion components must be finite")
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            return Quaternion(
                pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w / s, self.x / s, self.y / s, self.z / s)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        """conj(q) / |q|^2, formed on q 2^-e with its largest component in
        [1, 2) and scaled back, so |q|^2 neither under- nor overflows; only
        an inverse above the double range is refused."""
        top = max(abs(c) for c in self.components())
        if top == 0.0:
            raise ValueError("non-invertible")
        e = math.frexp(top)[1] - 1
        w, x, y, z = (math.ldexp(c, -e) for c in self.components())
        n2 = w * w + x * x + y * y + z * z
        try:
            return Quaternion(math.ldexp(w / n2, -e), math.ldexp(-x / n2, -e),
                              math.ldexp(-y / n2, -e), math.ldexp(-z / n2, -e))
        except OverflowError:
            raise ValueError(f"inverse of {self!r} above the double range") from None

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w == other.w and self.x == other.x
                and self.y == other.y and self.z == other.z)

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - other) <= tol

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


class ImaginaryUnit:
    """A point of the sphere S = {q : q^2 = -1}.

    The scalar part is dropped and the 3-vector renormalized at construction,
    so rounding noise in user input or samplers never violates the unit
    invariant.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        x, y, z = float(x), float(y), float(z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("imaginary unit components must be finite")
        n = math.sqrt(x * x + y * y + z * z)
        if n < _NEAR_REAL:
            raise ValueError("cannot normalize a (near-)zero imaginary vector")
        self.x = x / n
        self.y = y / n
        self.z = z / n

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImaginaryUnit):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"ImaginaryUnit({self.x!r}, {self.y!r}, {self.z!r})"


#: the reference slice used for a/b extraction throughout the library
REFERENCE_UNIT = ImaginaryUnit(1.0, 0.0, 0.0)


def exp_unit(t: float, unit: ImaginaryUnit) -> Quaternion:
    """cos(t) + I sin(t), the boundary exponential on the slice of ``unit``."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    c, s = math.cos(t), math.sin(t)
    return Quaternion(c, unit.x * s, unit.y * s, unit.z * s)


class BoundaryPoint:
    """A point e^{tI} of the boundary sphere, stored as (unit, angle mod 2*pi)."""

    __slots__ = ("unit", "angle")

    def __init__(self, unit: ImaginaryUnit, angle: float):
        angle = float(angle)
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        self.unit = unit
        self.angle = angle % _TWO_PI

    def to_quaternion(self) -> Quaternion:
        return exp_unit(self.angle, self.unit)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "BoundaryPoint":
        """Write a unit quaternion as e^{tI}, t = atan2(|Im q|, Re q) in [0, pi].

        For (near-)real q the imaginary axis is immaterial (sin(nt) = 0);
        the reference unit is used.
        """
        n = abs(q)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("not a boundary point: modulus differs from 1")
        im = q.imag_norm()
        t = math.atan2(im, q.w)
        if im < _NEAR_REAL:
            return cls(REFERENCE_UNIT, t)
        return cls(ImaginaryUnit(q.x, q.y, q.z), t)

    def __repr__(self) -> str:
        return f"BoundaryPoint({self.unit!r}, {self.angle!r})"


def sample_sphere(rng) -> ImaginaryUnit:
    """Uniform sample of the imaginary-unit sphere from a numpy Generator."""
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
        if n > 1e-8:
            return ImaginaryUnit(float(v[0]), float(v[1]), float(v[2]))
