"""Finite-support quaternionic Laurent series on the boundary sphere.

A series stores a map n -> a_n and represents f(q) = sum_n q^n a_n.  This is
the concrete carrier for slice functions: the star product, regular
conjugation, symmetrization, Hardy projections and the L2 / Linf / BMO norm
machinery all act on it.

Coefficient convolutions and inner products are accumulated by one kernel,
``_fsum_products``, as math.fsum of the expanded Hamilton products, so the
algebraic identities (conjugation anti-homomorphism, reality of the
symmetrization, norm invariance under conjugation) hold exactly in floating
point, not just up to rounding.
"""

from __future__ import annotations

import math
from math import fsum, ldexp
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import arrays
from .quat import BoundaryPoint, ImaginaryUnit, Quaternion

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

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# exponents are int64: below 2^62 in size, |n| and n +- 1 cannot wrap
_MAX_EXP = 2**62


class SliceLaurentSeries:
    """Finite-support map n -> a_n as a sorted int64 array ``exps`` and an
    (m, 4) array ``rows`` of (w, x, y, z), both read-only, holding exactly the
    a_n with a nonzero component, however small: equality is array equality."""

    __slots__ = ("exps", "rows")

    def __init__(self, coeffs: Mapping[int, Quaternion] | None = None):
        items = sorted((int(n), a) for n, a in (coeffs or {}).items())
        if not all(isinstance(a, Quaternion) for _, a in items):
            raise TypeError("coefficients must be quaternions")
        f = self.from_rows([n for n, _ in items], [a.components() for _, a in items])
        self.exps, self.rows = f.exps, f.rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, exps, rows) -> "SliceLaurentSeries":
        """Copies of rows[i] at sorted distinct exps[i], all-zero rows dropped;
        an exponent |n| >= 2^62 is refused, for the mapping constructor too."""
        exps = np.asarray(exps)  # Python ints past int64 reach the guard as objects
        for n in (exps.min(), exps.max()) if len(exps) else ():
            _exponent_guard(int(n))
        exps = exps.astype(np.int64, copy=False)
        rows = np.asarray(rows, dtype=float).reshape(-1, 4)
        if not np.isfinite(rows).all():
            raise ValueError("quaternion components must be finite")
        keep = (rows != 0.0).any(axis=1)
        f = cls.__new__(cls)
        f.exps, f.rows = exps[keep], rows[keep]
        f.exps.flags.writeable = f.rows.flags.writeable = False
        return f

    @classmethod
    def zero(cls) -> "SliceLaurentSeries":
        return cls()

    @classmethod
    def constant(cls, coeff: Quaternion) -> "SliceLaurentSeries":
        return cls({0: coeff})

    # -- structure --------------------------------------------------------

    def coefficient(self, n: int) -> Quaternion:
        i = int(np.searchsorted(self.exps, n))
        if i < len(self.exps) and self.exps[i] == n:
            return Quaternion(*self.rows[i].tolist())
        return Quaternion()

    @property
    def coeffs(self) -> Mapping[int, Quaternion]:
        """The read-only map n -> a_n in increasing n, built on each access."""
        return MappingProxyType({n: Quaternion(*a) for n, a
                                 in zip(self.exps.tolist(), self.rows.tolist())})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.exps.tolist())

    @property
    def n_min(self) -> int:
        return int(self.exps[0]) if len(self.exps) else 0

    def is_zero(self) -> bool:
        return not len(self.exps)

    def __add__(self, other: "SliceLaurentSeries") -> "SliceLaurentSeries":
        exps, a, b = _aligned(self, other)
        return SliceLaurentSeries.from_rows(exps, a + b)

    def __sub__(self, other: "SliceLaurentSeries") -> "SliceLaurentSeries":
        exps, a, b = _aligned(self, other)
        return SliceLaurentSeries.from_rows(exps, a - b)

    def __neg__(self) -> "SliceLaurentSeries":
        return SliceLaurentSeries.from_rows(self.exps, -self.rows)

    def times_right(self, c: Quaternion) -> "SliceLaurentSeries":
        """f . c, i.e. right multiplication of every coefficient by c."""
        return SliceLaurentSeries.from_rows(
            self.exps, arrays.mul(self.rows, np.array(c.components())))

    def shifted(self, k: int) -> "SliceLaurentSeries":
        for n in self.exps[[0, -1]].tolist() if len(self.exps) else ():
            _exponent_guard(n + k)  # before the int64 add, which would wrap
        return SliceLaurentSeries.from_rows(self.exps + k, self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SliceLaurentSeries):
            return NotImplemented
        return (np.array_equal(self.exps, other.exps)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash(tuple(zip(self.exps.tolist(), map(tuple, self.rows.tolist()))))

    def __repr__(self) -> str:
        terms = ", ".join(f"{n}: {a!r}" for n, a in self.coeffs.items())
        return f"SliceLaurentSeries({{{terms}}})"


def _exponent_guard(n) -> None:
    """The one exponent rule of both constructors and ``shifted``: |n| < 2^62."""
    if abs(n) >= _MAX_EXP:
        raise ValueError(f"exponent {n} outside the range |n| < 2^62")


def _aligned(f: SliceLaurentSeries, g: SliceLaurentSeries):
    """(exps, a, b): the joint support of f and g (np.union1d would import
    numpy.ma) and the rows of each on it, zero where it has no coefficient."""
    both = np.sort(np.concatenate([f.exps, g.exps]))
    exps = both[np.diff(both, prepend=both[:1] - 1) != 0]
    a, b = np.zeros((2, len(exps), 4))
    a[np.searchsorted(exps, f.exps)] = f.rows
    b[np.searchsorted(exps, g.exps)] = g.rows
    return exps, a, b


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
    for n, (w, x, y, z) in zip(f.exps.tolist(), f.rows.tolist()):
        c = math.cos(n * t)
        s = math.sin(n * t)
        cw += c * w
        cx += c * x
        cy += c * y
        cz += c * z
        sw += s * w
        sx += s * x
        sy += s * y
        sz += s * z
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
    _grid_guard(int(np.abs(f.exps).max(initial=0)), grid)
    placed = np.zeros((2, grid), dtype=complex)
    placed[:, f.exps % grid] = arrays.to_pairs(f.rows)
    return np.fft.ifft(placed, norm="forward", out=placed)


def _grid_guard(reach: int, grid: int) -> None:
    """The one grid rule, grid >= 4 reach + 16, for frequencies up to
    |n| = reach: a product of two such series, as phi * g in the
    constructive route, stays unaliased on the grid with room to spare."""
    if grid < 4 * reach + 16:
        raise ValueError(f"grid {grid} too coarse for |n| up to {reach}; "
                         f"need at least {4 * reach + 16}")


def _normalized(f: SliceLaurentSeries) -> tuple[SliceLaurentSeries, float]:
    """(f 2^-e, 2^e) with f 2^-e's largest coefficient component in [1, 2),
    f itself for e = 0.  Every norm and distance of f is 2^e times that of
    f 2^-e, exactly, with no squares to under- or overflow, and thresholds
    read relative as sup |f 2^-e| >= 1.  Components are scaled by ldexp (2^-e
    overflows for e < -1023), exactly unless they fall below 2^-1022: such a
    component rounds, as any subnormal does, and may flush to zero beside a
    coefficient's larger ones.  A coefficient that would flush to zero whole
    is refused, as dropping it would change the support."""
    tops = np.abs(f.rows).max(axis=1)
    e = math.frexp(float(tops.max()))[1] - 1 if len(tops) else 0
    if e == 0:
        return f, 1.0
    if ldexp(float(tops.min()), -e) == 0.0:
        raise ValueError(f"symbol coefficient of size {float(tops.min())!r} flushes to zero "
                         f"when the symbol is scaled by 2^{-e} to its largest")
    return SliceLaurentSeries.from_rows(f.exps, np.ldexp(f.rows, -e)), ldexp(1.0, e)


def _scale_back(value, scale: float, name: str):
    """value * scale, the number (or the array of components) of f from that
    of its ``_normalized`` f 2^-e, refused when a product leaves the double
    range, where it would read inf."""
    out = value * scale
    if not np.all(np.isfinite(out)):
        top = float(np.max(np.abs(value)))
        raise ValueError(f"{name} {top!r} * {scale!r} is above the double range")
    return out


def _reversed(v: np.ndarray) -> np.ndarray:
    """v[..., -k mod grid]: grid samples at e^{-it_k} from those at e^{it_k}."""
    return np.roll(v[..., ::-1], 1, axis=-1)


def _half_samples(plus: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[[A+ | A-], [B+ | B-]] at k = 0 .. grid // 2 from the + samples (A- at
    -k): the layout of _sup_values, which covers the grid as the sup is even.
    Written into ``out`` when given, and returned."""
    grid = plus.shape[-1]
    half = grid // 2 + 1
    if out is None:
        out = np.empty((*plus.shape[:-1], 2 * half), dtype=plus.dtype)
    out[..., :half] = plus[..., :half]
    out[..., half] = plus[..., 0]
    out[..., half + 1:] = plus[..., :grid - half:-1]
    return out


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

    Each c_n is the ``_fsum_products`` of its pairs (a_k, b_{n-k}), so
    conj_c(star_mul(f, g)) == star_mul(conj_c(g), conj_c(f)) exactly.
    """
    buckets: dict[int, list] = {}
    for kf, a in zip(f.exps.tolist(), f.rows.tolist()):
        for kg, b in zip(g.exps.tolist(), g.rows.tolist()):
            buckets.setdefault(kf + kg, []).append((a, b))
    ns = sorted(buckets)
    return SliceLaurentSeries.from_rows(ns, [_fsum_products(buckets[n]) for n in ns])


def _fsum_products(pairs) -> list[float]:
    """The (w, x, y, z) of sum p q over the quaternion pairs (p, q), each
    component the fsum of its expanded scalar products: correctly rounded,
    whatever the order of the pairs, so star_mul and l2_inner are exact.  A
    component past the double range is refused, however fsum meets it."""
    lw, lx, ly, lz = [], [], [], []
    for (pw, px, py, pz), (qw, qx, qy, qz) in pairs:
        lw += (pw * qw, -px * qx, -py * qy, -pz * qz)
        lx += (pw * qx, px * qw, py * qz, -pz * qy)
        ly += (pw * qy, -px * qz, py * qw, pz * qx)
        lz += (pw * qz, px * qy, -py * qx, pz * qw)
    try:  # an inf product, or -inf + inf, or a sum past the range
        out = [fsum(lw), fsum(lx), fsum(ly), fsum(lz)]
    except (ValueError, OverflowError):
        out = [math.inf]
    if not all(map(math.isfinite, out)):
        raise ValueError("a product coefficient lies above the double range")
    return out


def conj_c(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """Regular conjugate: coefficient-wise quaternion conjugation."""
    return SliceLaurentSeries.from_rows(f.exps, f.rows * _CONJ)


def symmetrize(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """f^s = f * f^c, exactly real: c_n's pairs (a_k, conj a_{n-k}) and
    (a_{n-k}, conj a_k) have conjugate products, whose imaginary terms cancel
    to +0.0 in the one fsum of ``_fsum_products``."""
    return star_mul(f, conj_c(f))


def recip_star_at(f: SliceLaurentSeries, p: BoundaryPoint) -> Quaternion:
    """Pointwise star-reciprocal (f^s(p))^{-1} f^c(p), formed on f 2^-e of
    ``_normalized`` and scaled by 2^-e, as the reciprocal of f c is that of
    f times 1/c; |f^s(p)| <= 1e-10, a cutoff relative to f's scale, is refused."""
    f, scale = _normalized(f)
    fs_val = evaluate(symmetrize(f), p)
    if abs(fs_val) <= 1e-10:
        raise ValueError("symmetrization vanishes at point")
    return fs_val.inverse() * evaluate(conj_c(f), p) / scale


def star_eval(
    f: SliceLaurentSeries, g: SliceLaurentSeries, p: BoundaryPoint
) -> Quaternion:
    """Pointwise star product f(p) g(f(p)^{-1} p f(p)), 0 where f vanishes
    to 1e-12 relative to its scale: the cutoff reads on f 2^-e of
    ``_normalized``, and the product is scaled back by 2^e."""
    f, scale = _normalized(f)
    fv = evaluate(f, p)
    if abs(fv) <= 1e-12:
        return Quaternion()
    moved = fv.inverse() * p.to_quaternion() * fv
    scaled = moved * (1.0 / abs(moved))
    return fv * evaluate(g, BoundaryPoint.from_quaternion(scaled)) * scale


# ---------------------------------------------------------------------------
# projections and the L2 structure
# ---------------------------------------------------------------------------


def project_plus(f: SliceLaurentSeries) -> SliceLaurentSeries:
    keep = f.exps >= 0
    return SliceLaurentSeries.from_rows(f.exps[keep], f.rows[keep])


def project_minus(f: SliceLaurentSeries) -> SliceLaurentSeries:
    keep = f.exps < 0
    return SliceLaurentSeries.from_rows(f.exps[keep], f.rows[keep])


def l2_inner(f: SliceLaurentSeries, g: SliceLaurentSeries) -> Quaternion:
    """<f, g> = sum_n conj(b_n) a_n over the joint support."""
    _, a, b = _aligned(f, g)
    return Quaternion(*_fsum_products(zip((b * _CONJ).tolist(), a.tolist())))


def l2_norm(f: SliceLaurentSeries) -> float:
    """sqrt of the fsum of squares, on f ``_normalized`` and scaled back."""
    f, scale = _normalized(f)
    return _scale_back(math.sqrt(fsum(v ** 2 for v in f.rows.ravel().tolist())), scale, "l2_norm")


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------


def sphere_sup(a: Quaternion, b: Quaternion) -> float:
    """sup over J in S of |a + Jb| in closed form, on a + z b ``_normalized``:
    the one-point case of _sup_values, whose values at J = +-i are a +- ib."""
    f, scale = _normalized(SliceLaurentSeries({0: a, 1: b}))
    (a1, a2), (b1, b2) = (arrays.to_pairs(np.array(f.coefficient(n).components())) for n in (0, 1))
    res = np.array([[a1 + 1j * b1, a1 - 1j * b1], [a2 + 1j * b2, a2 - 1j * b2]])
    return _scale_back(float(_sup_values(res)[0]), scale, "sphere_sup")


def _sup_terms(res: np.ndarray):
    """(plus + minus, d, e, qc) from samples [[A+ | A-], [B+ | B-]]: plus =
    |A+|^2 + |B+|^2, d = minus - plus, qc = A+ B- - A- B+, e = hypot(d, 2|qc|).
    M_t = [[A+, B+], [conj B-, -conj A-]] has sigma^2 = (plus + minus +- e) / 2,
    with no fourth powers; swapping + and - keeps plus + minus and e to the bit.
    d and plus + minus are written over the squares, and e over 2 |qc|.
    """
    width = res.shape[-1] // 2
    qc = np.multiply(res[0, :width], res[1, width:])
    qc -= res[0, width:] * res[1, :width]
    sq = np.abs(res)
    np.square(sq, out=sq)
    plus, minus = sq[0, :width], sq[0, width:]
    plus += sq[1, :width]
    minus += sq[1, width:]
    d = np.subtract(minus, plus, out=sq[1, :width])
    total = np.add(plus, minus, out=sq[1, width:])
    e = np.abs(qc)
    e *= 2.0
    return total, d, np.hypot(d, e, out=e), qc


def _sup_values(res: np.ndarray) -> np.ndarray:
    """Pointwise sup over J of |f(e^{tJ})|, sigma_1 = sqrt((plus + minus +
    e) / 2), from the samples [[A+ | A-], [B+ | B-]] of _sup_terms."""
    total, _, e, _ = _sup_terms(res)
    e += total
    e /= 2
    return np.sqrt(e, out=e)


def linf_norm(f: SliceLaurentSeries, grid: int = 4096) -> float:
    """Sampled essential sup: max over the half grid k = 0 .. grid // 2 (the
    sup is even in t) of the exact sphere sup on each sphere e^{t S}.  A lower
    bound converging as the grid is refined."""
    f, scale = _normalized(f)
    sup = float(np.max(_sup_values(_half_samples(_plus_samples(f, grid)))))
    return _scale_back(sup, scale, "linf_norm")


# ---------------------------------------------------------------------------
# BMO
# ---------------------------------------------------------------------------


def bmo_norm(f: SliceLaurentSeries, grid: int = 4096) -> float:
    """L2 (Garsia) mean oscillation sup (mean_I |f_J - mean_I f_J|^2)^{1/2},
    exact over the slices J, over the grid arcs I of every dyadic length
    grid >> m >= 4 at every start (wrapping); a lower bound in t.

    mean_I Q(x) - Q(mean_I x) = mean_I Q(x - mean_I x) for every quadratic
    form Q, and plus + minus, d and qc of _sup_terms are quadratic forms in
    the samples, so the sphere-sup formula on these differences is the sup
    over J of an arc's oscillation.  Prefix sums over one period make every
    arc mean O(1).  The n = 0 coefficient is dropped first: oscillation
    ignores constants, and their squares would only add cancellation.
    """
    keep = f.exps != 0
    f = SliceLaurentSeries.from_rows(f.exps[keep], f.rows[keep])
    f, scale = _normalized(f)
    prefix = _bmo_prefix(_plus_samples(f, grid))
    mean = np.empty((7, grid), dtype=complex)
    npts, level_max = grid, []
    while npts >= 4:
        # the arc from k sums prefix[k + npts] - prefix[k]; one that crosses
        # k = grid adds prefix[k + npts - grid] to the period's prefix[grid]
        cut = grid - npts + 1
        np.subtract(prefix[:, npts:], prefix[:, :cut], out=mean[:, :cut])
        np.subtract(prefix[:, grid:], prefix[:, cut:grid], out=mean[:, cut:])
        mean[:, cut:] += prefix[:, 1:npts]
        mean /= npts
        level_max.append(_oscillation_max(mean))
        npts //= 2
    return _scale_back(float(np.sqrt(np.max(level_max) / 2)), scale, "bmo_norm")


def _oscillation_max(mean: np.ndarray) -> float:
    """Twice the largest sup over J of an arc's mean square oscillation, from
    the arc means of the rows of ``_bmo_prefix``: the sphere-sup formula on
    the means of plus + minus, d and qc less those of the mean samples."""
    total, d, _, qc = _sup_terms(mean[:4].reshape(2, -1))
    np.subtract(mean[4].real, total, out=total)
    np.subtract(mean[5].real, d, out=d)
    np.subtract(mean[6], qc, out=qc)
    e = np.abs(qc)
    e *= 2.0
    return float(np.max(np.hypot(d, e, out=e) + total))


def _bmo_prefix(plus: np.ndarray) -> np.ndarray:
    """Prefix sums over one period, from 0, of the rows A+, A-, B+, B-,
    plus + minus, d and qc of the samples at e^{+-it_k}."""
    res = np.concatenate([plus, _reversed(plus)], axis=-1)
    total, d, _, qc = _sup_terms(res)
    prefix = np.zeros((7, plus.shape[-1] + 1), dtype=complex)
    np.cumsum(res.reshape(4, -1), axis=-1, out=prefix[:4, 1:])
    for row, values in zip(prefix[4:], (total, d, qc)):
        np.cumsum(values, out=row[1:])
    return prefix


# ---------------------------------------------------------------------------
# serialization: records {n, w, x, y, z}, bit-exact round trip
# ---------------------------------------------------------------------------


def dumps_series(f: SliceLaurentSeries) -> str:
    lines = ["# slice laurent series: n w x y z"]
    for n, (w, x, y, z) in zip(f.exps.tolist(), f.rows.tolist()):
        lines.append(f"{n} {w!r} {x!r} {y!r} {z!r}")
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
