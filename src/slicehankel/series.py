"""Finite-support quaternionic Laurent series on the boundary sphere.

A series stores a map n -> a_n and represents f(q) = sum_n q^n a_n.  This is
the concrete carrier for slice functions: the star product, regular
conjugation, symmetrization, Hardy projections and the L2 / Linf / BMO norm
machinery all act on it.

Coefficient convolutions and inner products are accumulated with math.fsum so
the algebraic identities (conjugation anti-homomorphism, reality of the
symmetrization, norm invariance under conjugation) hold exactly in floating
point, not just up to rounding.
"""

from __future__ import annotations

import math
from math import fsum
from typing import Callable, Mapping

import numpy as np

from . import arrays
from .quat import (
    REFERENCE_UNIT,
    BoundaryPoint,
    ImaginaryUnit,
    Quaternion,
    sample_sphere,
)

__all__ = [
    "SliceLaurentSeries",
    "evaluate",
    "extend_from_slice",
    "star_mul",
    "conj_c",
    "symmetrize",
    "recip_star_at",
    "star_eval",
    "project_plus",
    "project_minus",
    "l2_inner",
    "l2_norm",
    "sphere_sup",
    "linf_norm",
    "bmo_norm",
    "save_series",
    "load_series",
    "dumps_series",
    "loads_series",
]

_ZERO = Quaternion()


class SliceLaurentSeries:
    """Finite-support coefficient map n -> a_n.  Equality is semantic:
    stored zero coefficients are ignored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Quaternion] | None = None):
        self.coeffs: dict[int, Quaternion] = {}
        if coeffs:
            for n, a in coeffs.items():
                if not isinstance(a, Quaternion):
                    raise TypeError("coefficients must be quaternions")
                self.coeffs[int(n)] = a

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "SliceLaurentSeries":
        return cls()

    @classmethod
    def constant(cls, coeff: Quaternion) -> "SliceLaurentSeries":
        return cls({0: coeff})

    # -- structure --------------------------------------------------------

    def coefficient(self, n: int) -> Quaternion:
        return self.coeffs.get(n, _ZERO)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(n for n, a in self.coeffs.items() if a.norm_sq() != 0.0))

    @property
    def n_min(self) -> int:
        s = self.support
        return s[0] if s else 0

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "SliceLaurentSeries") -> "SliceLaurentSeries":
        out = dict(self.coeffs)
        for n, b in other.coeffs.items():
            out[n] = out.get(n, _ZERO) + b
        return SliceLaurentSeries(out)

    def __sub__(self, other: "SliceLaurentSeries") -> "SliceLaurentSeries":
        out = dict(self.coeffs)
        for n, b in other.coeffs.items():
            out[n] = out.get(n, _ZERO) - b
        return SliceLaurentSeries(out)

    def __neg__(self) -> "SliceLaurentSeries":
        return SliceLaurentSeries({n: -a for n, a in self.coeffs.items()})

    def times_right(self, c: Quaternion) -> "SliceLaurentSeries":
        """f . c, i.e. right multiplication of every coefficient by c."""
        return SliceLaurentSeries({n: a * c for n, a in self.coeffs.items()})

    def shifted(self, k: int) -> "SliceLaurentSeries":
        return SliceLaurentSeries({n + k: a for n, a in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SliceLaurentSeries):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(n) == other.coefficient(n) for n in keys)

    def __hash__(self) -> int:
        return hash(tuple((n, self.coefficient(n).components()) for n in self.support))

    def __repr__(self) -> str:
        terms = ", ".join(f"{n}: {self.coefficient(n)!r}" for n in self.support)
        return f"SliceLaurentSeries({{{terms}}})"


# ---------------------------------------------------------------------------
# evaluation and the representation formula
# ---------------------------------------------------------------------------


def evaluate(f: SliceLaurentSeries, p: BoundaryPoint) -> Quaternion:
    """sum_n exp_unit(n t, I) a_n at p = e^{tI}.

    Grouped as C + I*S with C = sum cos(nt) a_n, S = sum sin(nt) a_n, which is
    the same sum with fewer quaternion products.
    """
    # Kept apart from _plus_samples: the pointwise API, and the independent
    # scalar oracle the grid samples are tested against.
    t = p.angle
    cw = cx = cy = cz = 0.0
    sw = sx = sy = sz = 0.0
    for n, a in f.coeffs.items():
        c = math.cos(n * t)
        s = math.sin(n * t)
        cw += c * a.w
        cx += c * a.x
        cy += c * a.y
        cz += c * a.z
        sw += s * a.w
        sx += s * a.x
        sy += s * a.y
        sz += s * a.z
    ux, uy, uz = p.unit.x, p.unit.y, p.unit.z
    return Quaternion(
        cw - ux * sx - uy * sy - uz * sz,
        cx + ux * sw + uy * sz - uz * sy,
        cy - ux * sz + uy * sw + uz * sx,
        cz + ux * sy - uy * sx + uz * sw,
    )


def _plus_samples(f: SliceLaurentSeries, grid: int) -> np.ndarray:
    """Samples of f at e^{it_k}, t_k = 2 pi k / grid, as the complex pairs
    (A+, B+) of a (2, grid) array, by one inverse FFT.

    With a_n = alpha_n + beta_n j, f(e^{it}) = sum e^{int} alpha_n
    + (sum e^{int} beta_n) j, so the pairs placed at index n mod grid give
    A+ as the unscaled inverse FFT, and B+ likewise from the beta_n.
    """
    placed = np.zeros((2, grid), dtype=complex)
    if f.coeffs:
        ns = np.fromiter(f.coeffs, dtype=int, count=len(f.coeffs))
        if ns.max() - ns.min() >= grid:
            raise ValueError(f"grid {grid} aliases the support span "
                             f"{ns.min()}..{ns.max()}")
        comps = np.array([a.components() for a in f.coeffs.values()])
        placed[:, ns % grid] = arrays.to_pairs(comps)
    return np.fft.ifft(placed, norm="forward")


def _reversed(v: np.ndarray) -> np.ndarray:
    """v[..., -k mod grid]: grid samples at e^{-it_k} from those at e^{it_k}."""
    return np.roll(v[..., ::-1], 1, axis=-1)


def _half_samples(plus: np.ndarray) -> np.ndarray:
    """[[A+ | A-], [B+ | B-]] at k = 0 .. grid // 2 from the + samples (A- at
    -k): the layout of _sup_values, which covers the grid as the sup is even."""
    k = np.arange(plus.shape[-1] // 2 + 1)
    return plus.take(np.concatenate([k, -k % plus.shape[-1]]), axis=-1)


def _cos_sin(plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C = sum cos(n t_k) a_n and S = sum sin(n t_k) a_n as complex pairs
    (2, grid), from the + samples: f(e^{t_k J}) = C + J S on every slice J."""
    minus = _reversed(plus)
    return (plus + minus) / 2, (plus - minus) / 2j


def extend_from_slice(
    sampler: Callable[[float], Quaternion],
    unit: ImaginaryUnit,
    target: BoundaryPoint,
) -> Quaternion:
    """Representation-formula extension from slice data on the circle of ``unit``.

    Returns (1 - JI)/2 f(e^{tI}) + (1 + JI)/2 f(e^{-tI}) with J the target unit.
    """
    t = target.angle
    fp = sampler(t)
    fm = sampler(-t)
    ji = target.unit.as_quaternion() * unit.as_quaternion()
    one = Quaternion(1.0)
    return ((one - ji) * fp + (one + ji) * fm) * 0.5


# ---------------------------------------------------------------------------
# the star algebra
# ---------------------------------------------------------------------------


def star_mul(f: SliceLaurentSeries, g: SliceLaurentSeries) -> SliceLaurentSeries:
    """Coefficient convolution c_n = sum_k a_k b_{n-k} (f's coefficients left).

    Each output component is an fsum over the fully expanded scalar products,
    so conj_c(star_mul(f, g)) == star_mul(conj_c(g), conj_c(f)) exactly.
    """
    if not f.coeffs or not g.coeffs:
        return SliceLaurentSeries.zero()
    buckets: dict[int, tuple[list, list, list, list]] = {}
    for kf, a in f.coeffs.items():
        aw, ax, ay, az = a.w, a.x, a.y, a.z
        for kg, b in g.coeffs.items():
            bw, bx, by, bz = b.w, b.x, b.y, b.z
            n = kf + kg
            bucket = buckets.get(n)
            if bucket is None:
                bucket = ([], [], [], [])
                buckets[n] = bucket
            lw, lx, ly, lz = bucket
            lw += (aw * bw, -ax * bx, -ay * by, -az * bz)
            lx += (aw * bx, ax * bw, ay * bz, -az * by)
            ly += (aw * by, -ax * bz, ay * bw, az * bx)
            lz += (aw * bz, ax * by, -ay * bx, az * bw)
    out = {
        n: Quaternion(fsum(lw), fsum(lx), fsum(ly), fsum(lz))
        for n, (lw, lx, ly, lz) in buckets.items()
    }
    return SliceLaurentSeries(out)


def conj_c(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """Regular conjugate: coefficient-wise quaternion conjugation."""
    return SliceLaurentSeries({n: a.conjugate() for n, a in f.coeffs.items()})


def symmetrize(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """f^s = f * f^c; real coefficients, truncated to exactly real."""
    raw = star_mul(f, conj_c(f))
    scale = fsum(a.norm_sq() for a in f.coeffs.values())
    tol = 1e-12 * max(scale, 1.0)
    out = {}
    for n, c in raw.coeffs.items():
        if c.imag_norm() > tol:
            raise ArithmeticError("symmetrization produced a non-real coefficient")
        out[n] = Quaternion(c.w)
    return SliceLaurentSeries(out)


def recip_star_at(
    f: SliceLaurentSeries, p: BoundaryPoint, tol: float = 1e-10
) -> Quaternion:
    """Pointwise star-reciprocal (f^s(p))^{-1} f^c(p)."""
    fs_val = evaluate(symmetrize(f), p)
    if abs(fs_val) <= tol:
        raise ValueError("symmetrization vanishes at point")
    return fs_val.inverse() * evaluate(conj_c(f), p)


def star_eval(
    f: SliceLaurentSeries, g: SliceLaurentSeries, p: BoundaryPoint
) -> Quaternion:
    """Pointwise star product f(p) g(f(p)^{-1} p f(p)), 0 where f vanishes."""
    fv = evaluate(f, p)
    if abs(fv) <= 1e-12:
        return Quaternion()
    moved = fv.inverse() * p.to_quaternion() * fv
    scaled = moved * (1.0 / abs(moved))
    return fv * evaluate(g, BoundaryPoint.from_quaternion(scaled))


# ---------------------------------------------------------------------------
# projections and the L2 structure
# ---------------------------------------------------------------------------


def project_plus(f: SliceLaurentSeries) -> SliceLaurentSeries:
    return SliceLaurentSeries({n: a for n, a in f.coeffs.items() if n >= 0})


def project_minus(f: SliceLaurentSeries) -> SliceLaurentSeries:
    return SliceLaurentSeries({n: a for n, a in f.coeffs.items() if n < 0})


def l2_inner(f: SliceLaurentSeries, g: SliceLaurentSeries) -> Quaternion:
    """<f, g> = sum_n conj(b_n) a_n over the joint support."""
    keys = sorted(set(f.coeffs) | set(g.coeffs))
    lw, lx, ly, lz = [], [], [], []
    for n in keys:
        a = f.coefficient(n)
        bc = g.coefficient(n).conjugate()
        pw, px, py, pz = bc.w, bc.x, bc.y, bc.z
        qw, qx, qy, qz = a.w, a.x, a.y, a.z
        lw += (pw * qw, -px * qx, -py * qy, -pz * qz)
        lx += (pw * qx, px * qw, py * qz, -pz * qy)
        ly += (pw * qy, -px * qz, py * qw, pz * qx)
        lz += (pw * qz, px * qy, -py * qx, pz * qw)
    return Quaternion(fsum(lw), fsum(lx), fsum(ly), fsum(lz))


def l2_norm(f: SliceLaurentSeries) -> float:
    return math.sqrt(fsum(
        v for n in sorted(f.coeffs)
        for v in (f.coeffs[n].w ** 2, f.coeffs[n].x ** 2,
                  f.coeffs[n].y ** 2, f.coeffs[n].z ** 2)
    ))


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------


def sphere_sup(a: Quaternion, b: Quaternion) -> float:
    """sup over J in S of |a + Jb|, in closed form: the one-point case of
    _sup_values, whose reference-slice values at J = +-i are a +- ib."""
    (a1, a2), (b1, b2) = (arrays.to_pairs(np.array(q.components())) for q in (a, b))
    res = np.array([[a1 + 1j * b1, a1 - 1j * b1], [a2 + 1j * b2, a2 - 1j * b2]])
    return float(_sup_values(res)[0])


def _sup_terms(res: np.ndarray):
    """(plus + minus, d, e, qc) from samples [[A+ | A-], [B+ | B-]]: plus =
    |A+|^2 + |B+|^2, d = minus - plus, qc = A+ B- - A- B+, e = hypot(d, 2|qc|).
    M_t = [[A+, B+], [conj B-, -conj A-]] has sigma^2 = (plus + minus +- e) / 2,
    with no fourth powers; swapping + and - keeps plus + minus and e to the bit.
    """
    width = res.shape[-1] // 2
    sq = np.abs(res) ** 2
    plus, minus = sq[0, :width] + sq[1, :width], sq[0, width:] + sq[1, width:]
    qc = res[0, :width] * res[1, width:] - res[0, width:] * res[1, :width]
    d = minus - plus
    return plus + minus, d, np.hypot(d, 2.0 * np.abs(qc)), qc


def _sup_values(res: np.ndarray) -> np.ndarray:
    """Pointwise sup over J of |f(e^{tJ})|, sigma_1 = sqrt((plus + minus +
    e) / 2), from the samples [[A+ | A-], [B+ | B-]] of _sup_terms."""
    total, _, e, _ = _sup_terms(res)
    return np.sqrt((total + e) / 2)


def _grid_guard(f: SliceLaurentSeries, grid: int) -> None:
    sup = f.support
    max_idx = max(abs(sup[0]), abs(sup[-1])) if sup else 0
    if grid < 4 * max_idx + 16:
        raise ValueError(
            f"grid {grid} too coarse for support up to |n| = {max_idx}; "
            f"need at least {4 * max_idx + 16}"
        )


def linf_norm(f: SliceLaurentSeries, grid: int = 4096) -> float:
    """Sampled essential sup: max over the half grid k = 0 .. grid // 2 (the
    sup is even in t) of the exact sphere sup on each sphere e^{t S}.  A lower
    bound converging as the grid is refined."""
    _grid_guard(f, grid)
    if f.is_zero():
        return 0.0
    return float(np.max(_sup_values(_half_samples(_plus_samples(f, grid)))))


# ---------------------------------------------------------------------------
# BMO
# ---------------------------------------------------------------------------


def bmo_norm(
    f: SliceLaurentSeries,
    n_units: int = 64,
    n_arcs: int = 8,
    grid: int = 4096,
) -> float:
    """Sampled mean-oscillation sup over slices and dyadic arcs.

    Slices: the reference slice plus ``n_units`` deterministic sphere samples.
    Arcs: lengths 2 pi 2^{-m} for m = 0..n_arcs, offsets at half-arc spacing,
    wrap-around included.  Inner integrals use the trapezoid rule on the
    sample grid, so the value is a lower bound of the true BMO norm.
    """
    if n_units < 0 or n_arcs < 0 or grid < 16:
        raise ValueError("sampling parameters must be positive")
    rng = np.random.default_rng(0)
    units = [REFERENCE_UNIT] + [sample_sphere(rng) for _ in range(n_units)]
    dt = 2.0 * np.pi / grid
    cos_part, sin_part = (arrays.from_pairs(*p)
                          for p in _cos_sin(_plus_samples(f, grid)))
    best = 0.0
    for unit in units:
        vals = cos_part + arrays.mul(np.array(unit.as_quaternion().components()),
                                     sin_part)
        # two periods hold every wrapped window start..start + npts
        wrapped = np.concatenate([vals, vals], axis=0)
        for m in range(n_arcs + 1):
            npts = grid >> m
            if npts < 4:
                break
            length = npts * dt
            step = max(1, npts // 2)
            # every window of the level at once: shape (windows, 4, npts + 1)
            windows = np.lib.stride_tricks.sliding_window_view(
                wrapped, npts + 1, axis=0)[:grid:step]
            mean = np.trapezoid(windows, dx=dt, axis=2) / length
            dev = np.sqrt(np.sum((windows - mean[:, :, None]) ** 2, axis=1))
            best = max(best, float(np.max(np.trapezoid(dev, dx=dt, axis=1))) / length)
    return best


# ---------------------------------------------------------------------------
# serialization: records {n, w, x, y, z}, bit-exact round trip
# ---------------------------------------------------------------------------


def dumps_series(f: SliceLaurentSeries) -> str:
    lines = ["# slice laurent series: n w x y z"]
    for n in sorted(f.coeffs):
        a = f.coeffs[n]
        lines.append(f"{n} {a.w!r} {a.x!r} {a.y!r} {a.z!r}")
    return "\n".join(lines) + "\n"


def loads_series(text: str) -> SliceLaurentSeries:
    coeffs: dict[int, Quaternion] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"record at line {lineno}: expected 'n w x y z', got {raw!r}")
        try:
            n = int(parts[0])
            w, x, y, z = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"record at line {lineno}: {exc}") from None
        if n in coeffs:
            raise ValueError(f"record at line {lineno}: duplicate exponent {n}")
        coeffs[n] = Quaternion(w, x, y, z)
    return SliceLaurentSeries(coeffs)


def save_series(f: SliceLaurentSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_series(f))


def load_series(path) -> SliceLaurentSeries:
    with open(path) as fh:
        return loads_series(fh.read())
