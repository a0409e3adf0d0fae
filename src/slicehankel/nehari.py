"""Hankel norm of a slice symbol, maximizing vectors, the constructive best
bounded-regular approximation, and an independent minimax optimizer.

The constructive route realizes f = phi - (H_phi g) * g^{-*} on grid samples,
g a maximizing vector, the top right singular vector of the complex
embedding (``hankel.top_singular_pair``): h = H_phi g =
P_-(phi * g) by one FFT round trip and, as g^{-*} = g^c * (g^s)^{-*} with g^s
real, the correction (h * g^c) / g^s.  g fixes f exactly, as f = N / g^s with
N = P_+(phi * g) * g^c, so the route returns g and not f's coefficients.
The optimizer minimizes the sampled sup norm of phi - f over polynomial f as
a linear matrix inequality, by a log-det barrier method on a working set of
grid points grown by Remez-style exchange, and certifies its value by the
barrier's lower bound.  For finite symbols the two routes and the Hankel norm
must agree.  Each runs on phi ``_normalized``, the optimizer on phi's part
outside 0 .. degree, and scales back its numbers; ``approximation_report``
only composes the three, and its report checks the paper's sandwich.

Every Hankel matrix comes from ``hankel.hankel_from_symbol``; phi and g are
sampled by the FFT sampler of ``series``, and every sup is its sphere sup.
The optimizer evaluates its own polynomial, by a matmul at working-set points
and by ``_HalfGrid``'s short batched FFT, in half the sampler's time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import arrays
from .hankel import (
    HankelMatrix,
    deembed_vector,
    hankel_from_symbol,
    operator_norm,
    top_singular_pair,
)
from .quat import Quaternion
from .series import (
    SliceLaurentSeries,
    _grid_guard,
    _half_samples,
    _normalized,
    _plus_samples,
    _reversed,
    _scale_back,
    _sup_terms,
    _sup_values,
    dumps_series,
    l2_norm,
    linf_norm,
    project_minus,
)

__all__ = [
    "hankel_norm",
    "maximizing_vector",
    "ConstructiveResult",
    "constructive_best_approx",
    "OptimizeResult",
    "optimize_distance",
    "ApproximationReport",
    "approximation_report",
    "verify_nehari_bounds",
]

_ZERO_NORM_TOL = 1e-13


def _block_size(phi: SliceLaurentSeries) -> int:
    """The size k of the block holding every nonzero entry of H_phi, since
    entry (j, l) = phi_hat(-1-j-l) vanishes once j + l >= -n_min; k = -n_min,
    or 1 (a zero block) for an analytic symbol."""
    return max(1, -phi.n_min)


def _hankel_block(phi: SliceLaurentSeries) -> HankelMatrix:
    """The k x k block of nonzero entries of H_phi, k = ``_block_size``."""
    return hankel_from_symbol(phi, _block_size(phi))


def hankel_norm(phi: SliceLaurentSeries, N: int | None = None) -> float:
    """Operator norm of the Hankel operator of phi.

    The norm is taken of the k x k block of nonzero entries, k = -n_min, which
    any N x N truncation with N >= k only pads with zeros.  N is unused,
    and kept only because ``perfbench/`` passes it.
    """
    phi, scale = _normalized(phi)
    return _scale_back(operator_norm(_hankel_block(phi)), scale, "hankel_norm")


def maximizing_vector(phi: SliceLaurentSeries,
                      N: int | None = None) -> SliceLaurentSeries:
    """Unit g in the Hardy space with ||H_phi g|| = ||H_phi|| (up to rounding),
    the vector of ``_schmidt_pair``; a zero operator has none, and
    raises.  N is unused, and kept only because ``perfbench/`` passes it."""
    g = _schmidt_pair(_normalized(phi)[0])
    if g is None:
        raise ValueError("zero operator has no maximizing vector")
    return g


def _schmidt_pair(phi: SliceLaurentSeries) -> SliceLaurentSeries | None:
    """The vector g of the top Schmidt pair (sigma, g) of H_phi, phi
    ``_normalized``, from the embedded k x k block of nonzero entries (the top
    eigenvector of its Gram matrix up to 96, Lanczos above); None for
    sigma <= _ZERO_NORM_TOL.

    g is defined up to a right unit-quaternion factor; the gauge fixed here
    makes its lowest nonzero coefficient real and positive."""
    sigma, v = top_singular_pair(_hankel_block(phi))
    if sigma <= _ZERO_NORM_TOL:
        return None
    comps = deembed_vector(v)
    mags = np.sqrt(np.sum(np.square(comps), axis=1))
    keep = np.flatnonzero(mags > 1e-13 * float(np.max(mags)))
    lead = Quaternion(*comps[keep[0]].tolist())
    rows = arrays.mul(comps[keep], np.array(lead.conjugate().components()))
    # lead * conj(lead) has norm_sq as its real part to the bit, but its
    # imaginary part vanishes only up to rounding: store the exact value
    rows[0] = (lead.norm_sq(), 0.0, 0.0, 0.0)
    g = SliceLaurentSeries.from_rows(keep, rows)
    return g.times_right(Quaternion(1.0 / l2_norm(g)))


@dataclass
class ConstructiveResult:
    """g, the maximizing vector the route used (the zero series for a zero
    operator), fixes its competitor exactly; zeros_in_disc counts the zeros
    of g^s in the disc, f's poles."""

    vector: SliceLaurentSeries
    distance: float
    zeros_in_disc: int
    excluded_fraction: float
    status: str


def constructive_best_approx(
    phi: SliceLaurentSeries,
    N: int | None,
    grid: int,
    g: SliceLaurentSeries | None = None,
) -> ConstructiveResult:
    """Best bounded-regular approximation f = phi - (H_phi g) * g^{-*}: phi's
    samples at e^{it_k} less the correction of ``_quotient_samples``, which
    at e^{-it_k} is the same at index -k.

    Returns the sampled sup of |phi - f| as the distance, and g as
    ``vector``, which fixes f exactly as N / g^s with the star algebra's
    N = star_mul(project_plus(star_mul(phi, g)), conj_c(g)) and
    g^s = symmetrize(g); a zero g stands for f = project_plus(phi).  The
    status is "ok" only when g^s has no zero in the disc (``zeros_in_disc``,
    by the argument principle on its samples), none at a grid point (a pole
    of f on the circle, excluded from the sup) and every phase step between
    neighbouring samples is below pi / 2, so that the count is resolved.

    g is the maximizing vector to use; without it the route takes that of
    ``_schmidt_pair``, or the zero series for a zero operator, whose
    distance is the sup of phi's principal part.  It runs on phi
    ``_normalized`` and scales back the distance; g, a unit vector, is not
    scaled.  N is unused, and kept only because ``perfbench/`` passes it.
    """
    unscaled, (phi, scale) = phi, _normalized(phi)
    if g is None:
        g = _schmidt_pair(phi)
    if g is None:
        dist = linf_norm(project_minus(unscaled), grid)
        return ConstructiveResult(SliceLaurentSeries(), dist, 0, 0.0, "ok")
    quot, gs, excl = _quotient_samples(_plus_samples(phi, grid), g, grid)
    excluded = excl | _reversed(excl)
    vals = _sup_values(_half_samples(quot))
    good = ~excluded[:len(vals)]
    distance = float(np.max(vals[good])) if np.any(good) else 0.0
    steps = np.angle(np.roll(gs, -1) * np.conj(gs))
    zeros = round(float(np.sum(steps)) / (2.0 * np.pi))
    ok = zeros == 0 and not np.any(excl) and float(np.max(np.abs(steps))) < np.pi / 2
    return ConstructiveResult(
        g, _scale_back(distance, scale, "constructive_distance"), zeros,
        float(np.mean(excluded)), "ok" if ok else "warning")


def _quotient_samples(plus: np.ndarray, g: SliceLaurentSeries, grid: int):
    """(h * g^{-*})(e^{it_k}), h = H_phi g, as complex pairs (2, grid) from phi's
    + samples, g^s's samples and the mask |g^s|^2 <= 1e-20 (h * g^c undivided).

    With g's + samples (A+, B+) and (mA, mB) = (conj A-, conj B-), the pair
    star product gives phi * g = (A_phi A+ - B_phi mB, A_phi B+ + B_phi mA),
    and zeroing its FFT bins n >= 0, 0 .. (grid + 1) // 2 - 1, gives h; g's
    grid rule keeps phi * g out of the n < 0 bins.  g^{-*} = g^c * (g^s)^{-*}
    with g^s real, so the quotient is (h * g^c)(p) / g^s(p) on both pairs:
    g^s = A+ mA + B+ mB and h * g^c = (hA mA + hB mB, hB A+ - hA B+).  The
    quotient is written over h; its row 1 is formed first, in g's samples.
    """
    if g.n_min < 0:
        raise ValueError("input must be supported in n >= 0")
    gplus = _plus_samples(g, grid)
    m = _reversed(gplus)
    np.conj(m, out=m)
    (ga, gb), (ma, mb), (pa, pb) = gplus, m, plus
    h = np.empty_like(gplus)
    np.multiply(pa, ga, out=h[0])
    h[0] -= pb * mb
    np.multiply(pa, gb, out=h[1])
    h[1] += pb * ma
    np.fft.fft(h, out=h)
    h[:, :(grid + 1) // 2] = 0.0
    ha, hb = np.fft.ifft(h, out=h)
    gs = ga * ma
    gs += gb * mb
    norm_sq = np.square(gs.real)
    norm_sq += np.square(gs.imag)
    excl = norm_sq <= 1e-20
    np.multiply(hb, ga, out=ga)
    np.multiply(ha, gb, out=gb)
    np.subtract(ga, gb, out=ga)
    np.multiply(hb, mb, out=mb)
    np.multiply(ha, ma, out=ha)
    np.add(ha, mb, out=ha)
    hb[:] = ga
    np.divide(h, gs, out=h, where=~excl)
    return h, gs, excl


# ---------------------------------------------------------------------------
# minimax optimization: a log-det barrier method with exchange
# ---------------------------------------------------------------------------


@dataclass
class OptimizeResult:
    best_approx: SliceLaurentSeries
    distance: float
    iterates: list[float]
    evaluations: int
    status: str
    lower_bound: float


# Moving real coordinate c = (w, x, y, z) of coefficient n of f by one moves
# M_t = [[A+, B+], [conj B-, -conj A-]] by e^{int} K_c.
_K = np.array([[[-1, 0], [0, 1]], [[-1j, 0], [0, -1j]],
               [[0, -1], [-1, 0]], [[0, -1j], [1j, 0]]])
# tr(V K_c) = V.reshape(4) @ _KT[:, c] for a 2 x 2 block V
_KT = _K.transpose(0, 2, 1).reshape(4, 4).T
# tr(V K_c V' K_d) and tr(V K_c V' K_d^H) from the products V[i, j] V'[k, l]
_C1 = np.einsum("cjk,dli->ijklcd", _K, _K).reshape(16, 16)
_C2 = np.einsum("cjk,dil->ijklcd", _K, np.conj(_K)).reshape(16, 16)
# The projections of the tables of _WorkingSet.newton_step: N_p N_q, p <= q
# (entries 00, 01, 10, 11) to 2 tr(N K_c N K_d); S (x) X, N and [N S | N M]
# (rows 0-15, 16-19, 20-27) to 2 tr(S K_c X K_d^H), 2 tr(N K_c), tr(N S K_c).
_PAIR_P, _PAIR_Q = np.triu_indices(4)
_PROJ_HIGH = 2.0 * np.where((_PAIR_P == _PAIR_Q)[:, None], _C1[5 * _PAIR_P],
                            _C1[4 * _PAIR_P + _PAIR_Q] + _C1[4 * _PAIR_Q + _PAIR_P])
_PROJ_LOW = np.zeros((28, 24), dtype=complex)
_PROJ_LOW[:16, :16] = 2.0 * _C2
_PROJ_LOW[16:20, 16:20] = 2.0 * _KT
_PROJ_LOW[[20, 21, 24, 25], 20:] = _KT
_SIGN = np.array([[1.0], [-1.0]])


def _hessian_index(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of Re hx1[n + m]_cd and Re hx2[n - m]_cd for entry
    (4n + c, 4m + d) of the x-x Hessian in newton_step's projected tables,
    (2 degree + 1, 16) then (degree + 1, 24).  For n < m it reads
    Re hx2[m - n]_dc, as hx2[-k]_cd = conj hx2[k]_dc."""
    d1 = degree + 1
    n, c, m, d = np.ix_(np.arange(d1), np.arange(4), np.arange(d1), np.arange(4))
    shape = (4 * d1, 4 * d1)
    hx1 = (16 * (n + m) + 4 * c + d).reshape(shape)
    lo = np.where(n >= m, 24 * (n - m) + 4 * c + d, 24 * (m - n) + 4 * d + c)
    return hx1, 16 * (2 * degree + 1) + lo.reshape(shape)


def _roots(grid: int, k: np.ndarray) -> np.ndarray:
    """The roots of unity e^{2 pi i k / grid} at integers 0 <= k < grid."""
    return np.exp((2j * np.pi / grid) * k)


_Point = namedtuple("_Point", "s x res d e a b ab qc")  # see _WorkingSet.point

# The exchange adds no points past this many entries (32 MiB) in a working
# set's per-point tables, about (6 degree + 60) W at construction for W
# points.  The largest measured, 343 points at degree 256 and grid 2^20 on
# tests/golden/depth3.txt, held 547,428; the benchmark's at most 15,648.
_WS_ENTRIES = 2**21


class _WorkingSet:
    """The barrier -sum_t log det Z_t, Z_t = [[s I, M_t], [M_t^H, s I]], over
    the grid points idx and their mirrors, for polynomials of the given
    degree.  M_{-t} has the singular values of M_t, so a point whose mirror
    -k mod grid is not in idx counts twice (weight w = 2); nu = 4 sum w.

    The samples at the points and their mirrors are gathered from phi's
    samples in the half layout of ``_half_samples``, where index k of the
    grid is column k for k <= grid // 2 and column half + grid - k above;
    ``index`` is the solve's ``_hessian_index``.  The samples are kept as
    [[A+ | A-], [B+ | B-]], the layout of _sup_terms and of f @ [e | conj e]
    for f's coefficient pairs."""

    def __init__(self, samples: np.ndarray, idx: np.ndarray, grid: int,
                 degree: int, index: tuple[np.ndarray, np.ndarray]):
        width, d1, half = len(idx), degree + 1, grid // 2 + 1
        self.idx, self.degree = idx, degree
        mirror = -idx % grid
        member = np.zeros(grid, dtype=bool)
        member[idx] = True
        self.w = np.where(member[mirror], 1.0, 2.0)
        self.nu = 4.0 * float(np.sum(self.w))
        k = np.concatenate([idx, mirror])
        self.samples = samples.take(np.where(k < half, k, half + grid - k), axis=1)
        # e^{ikt} for k = 0 .. 2 degree: the Hessian needs n + m and n - m
        epow = _roots(grid, np.outer(np.arange(2 * degree + 1), idx) % grid)
        self.e = np.concatenate([epow[:d1], np.conj(epow[:d1])], axis=1)
        self.wepow = epow * self.w
        self.mh = np.empty((2, 2, width), dtype=complex)
        self.sm = np.empty((2, 4, width), dtype=complex)  # [S | M]
        self.high = np.empty((10, width), dtype=complex)
        self.low = np.empty((28, width), dtype=complex)
        self.proj = np.empty(16 * (2 * degree + 1) + 24 * d1, dtype=complex)
        self.hess = np.empty((4 * d1 + 1, 4 * d1 + 1))
        self.grad = np.empty(4 * d1 + 1)
        self.index = index

    def point(self, s: float, x: np.ndarray) -> _Point:
        """The barrier terms in factored form: d, qc and e = sigma_1^2 -
        sigma_2^2 of _sup_terms, a = s^2 - sigma_1^2 and b = a + e.  a b
        stands for the expanded s^4 - s^2 |M|^2 + |det M|^2, which cancels at
        a flat optimum."""
        res = self.samples - x.reshape(-1, 4).view(complex).T @ self.e
        total, d, e, qc = _sup_terms(res)
        a = s * s - 0.5 * (total + e)
        b = a + e
        return _Point(s, x, res, d, e, a, b, a * b, qc)

    def newton_step(self, point: _Point, tau: float):
        """Newton step on (s, x) for tau s - sum_t log det Z_t, and the
        squared Newton decrement.

        W = Z^{-1} has W11 = s S, W21 = -N and W22 = X / s, with
        S = (s^2 I - M M^H)^{-1} = (a I + R) / (a b), R = [[(e - d) / 2, qc],
        [conj qc, (e + d) / 2]], N = M^H S and X = I + N M.  The gradient in
        x_(n,c) is 2 Re e^{int} tr(N K_c); the Hessian is 2 Re of
        e^{i(n+m)t} tr(N K_c N K_d) plus e^{i(n-m)t} tr(S K_c X K_d^H), summed
        with weights w.  The 2 x 2 blocks live in preallocated (2, 2, W)
        arrays, and the per-point products in two tables, each summed
        against wepow by one matmul and projected by one constant matrix:
        N (x) N at frequencies 0 .. 2 degree, and S (x) X, N and [N S | N M]
        at 0 .. degree (n - m < 0 needs no rows: only real parts are read).
        The s-x terms take (W^2)_21 = -2 s N S, the s-s term
        tr W^2 = sum 4 s^2 (1/a^2 + 1/b^2) - 2 (1/a + 1/b).
        """
        s, _, res, d, e, a, b, ab, qc = point
        width, d1 = len(a), self.degree + 1
        mh, sm, high, low = self.mh, self.sm, self.high, self.low
        s_blk, m = sm[:, :2], sm[:, 2:]
        np.conj(res[:, :width], out=mh[:, 0])  # M^H = [[conj A+, B-], [conj B+, -A-]]
        np.multiply(res[::-1, width:], _SIGN, out=mh[:, 1])
        np.conj(mh.transpose(1, 0, 2), out=m)
        iab, apb = 1.0 / ab, a + b
        s00 = 0.5 * (e - d) + a  # S00 ab; S11 ab = a + b - S00 ab
        np.multiply(s00, iab, out=s_blk[0, 0])
        np.multiply(apb - s00, iab, out=s_blk[1, 1])
        np.multiply(qc, iab, out=s_blk[0, 1])
        np.conj(s_blk[0, 1], out=s_blk[1, 0])
        n_blk = low[16:20].reshape(2, 2, -1)  # N = M^H S
        np.multiply(mh[:, :1], s_blk[:1], out=n_blk)
        n_blk += mh[:, 1:] * s_blk[1:]
        prod = low[20:28].reshape(2, 4, -1)  # [N S | N M] = N [S | M]
        np.multiply(n_blk[:, :1], sm[:1], out=prod)
        prod += n_blk[:, 1:] * sm[1:]
        low[22:28:5] += 1.0  # X = I + N M
        n_flat = low[16:20]
        np.multiply(n_flat.take(_PAIR_P, axis=0), n_flat.take(_PAIR_Q, axis=0), out=high)
        np.multiply(s_blk[:, :, None, None], prod[None, None, :, 2:],
                    out=low[:16].reshape(2, 2, 2, 2, -1))
        split, hess, grad = 16 * (2 * d1 - 1), self.hess, self.grad
        np.matmul(self.wepow @ high.T, _PROJ_HIGH, out=self.proj[:split].reshape(-1, 16))
        np.matmul(self.wepow[:d1] @ low.T, _PROJ_LOW, out=self.proj[split:].reshape(d1, 24))
        flat = self.proj.real
        low_proj = flat[split:].reshape(d1, 24)
        np.add(flat[self.index[0]], flat[self.index[1]], out=hess[1:, 1:])
        np.multiply(low_proj[:, 20:], -4.0 * s, out=hess[0, 1:].reshape(d1, 4))
        hess[1:, 0] = hess[0, 1:]
        sc1 = apb * iab  # 1/a + 1/b
        w_sc1 = float(sc1 @ self.w)
        hess[0, 0] = 4.0 * s * s * float((sc1 * sc1 - 2.0 * iab) @ self.w) - 2.0 * w_sc1
        grad[0] = tau - 2.0 * s * w_sc1
        grad[1:].reshape(d1, 4)[:] = low_proj[:, 16:20]
        step = np.linalg.solve(hess, -grad)
        return step, -float(grad @ step)


class _HalfGrid:
    """The full-grid check: the sup of |phi - f| at e^{+-it_k},
    k = 0 .. grid // 2, which covers the grid as the sup is even in t.
    ``phi`` and ``res`` hold samples in the layout of ``_half_samples``.

    f is evaluated on the whole grid by one batched inverse FFT of length
    L, the least divisor of grid above degree, in place in ``table``: with
    M = grid / L and k = r + M j, f(e^{it_k}) = sum_n (f_n e^{int_r})
    e^{2 pi i nj / L}, so the FFT along n of the (L, M) table f_n e^{int_r}
    lands in grid order."""

    def __init__(self, phi: SliceLaurentSeries, grid: int, degree: int):
        d1 = degree + 1
        lengths = np.arange(d1, grid + 1)
        length = int(lengths[grid % lengths == 0][0])
        self.phi = _half_samples(_plus_samples(phi, grid))
        self.res = np.empty_like(self.phi)
        self.twiddle = _roots(grid, np.outer(np.arange(d1), np.arange(grid // length)))
        self.table = np.empty((2, length, grid // length), dtype=complex)

    def sups(self, x: np.ndarray) -> np.ndarray:
        table, d1 = self.table, len(self.twiddle)
        f = x.reshape(-1, 4).view(complex)  # the coefficient pairs of f
        np.multiply(f.T[:, :, None], self.twiddle, out=table[:, :d1])
        table[:, d1:] = 0.0  # the last call's FFT wrote over the rows above degree
        np.fft.ifft(table, axis=1, norm="forward", out=table)
        res = _half_samples(table.reshape(2, -1), out=self.res)
        return _sup_values(np.subtract(self.phi, res, out=res))


def _center(ws: _WorkingSet, s: float, x: np.ndarray, tau: float, budget: int):
    """Damped Newton on tau s - sum_t log det Z_t from (s, x) to a squared
    decrement <= 0.1, a stalled line search or ``budget`` evaluations."""
    p, spent = ws.point(s, x), 1
    while True:
        step, lam2 = ws.newton_step(p, tau)
        if lam2 <= 0.1:
            return p, lam2, spent
        t = 1.0
        while True:
            if spent >= budget or t < 1e-12:
                return p, lam2, spent
            q = ws.point(p.s + t * step[0], p.x + t * step[1:])
            spent += 1
            # every trial stays strictly inside: s above sigma_1 everywhere
            if q.s > 0.0 and q.a.min() > 0.0:
                change = tau * t * step[0] - np.log(q.ab / p.ab) @ ws.w
                if change <= -0.25 * t * lam2:
                    break
            t *= 0.5
        p = q


def optimize_distance(
    phi: SliceLaurentSeries,
    degree: int,
    grid: int,
    budget: int,
    seed: int = 0,
) -> OptimizeResult:
    """Minimize the sampled sup of |phi - f| over Hardy polynomials f of the
    given degree: phi's coefficients at 0 .. degree go to f, so this solves
    for psi, phi without them, from f = 0 and adds them back to
    ``best_approx``.  At grid angle t the residual gives M_t = [[A+, B+],
    [conj B-, -conj A-]], real-affine in f's coefficients x, whose sigma_max
    is the sphere sup.  So this is: minimize s subject to [[s I, M_t],
    [M_t^H, s I]] >= 0, solved by a log-det barrier method (Boyd-Vandenberghe
    2004, ch. 11; tau x 20 per outer step) on a subgrid of at least 256
    points; after each outer step the full grid's local maxima above s join
    it (Remez-style exchange).  The sup is even in t, so only the half grid
    k = 0 .. grid // 2 is searched and the subgrid holds half-grid points,
    each weighted 2 for itself and its mirror -k (1 at k = 0 and grid / 2).
    The bound s - (nu + (lam + sqrt nu) lam / (1 - lam)) / tau (nu = 4 sum
    of the weights, lam the Newton decrement; Nesterov 2004, Thm 4.2.7) is
    ``lower_bound``.  psi ``_normalized`` is sampled once, in the full-grid
    check's half layout, which every working set gathers from, as one pair
    of Hessian index tables serves them all; its results are scaled back.

    The iterates, the best full-grid value after each outer step, are exact
    sups for admissible competitors.  ``converged``: the last is within
    tol = 1e-6 times the first, sup |psi| (>= 1 at psi's scale unless psi
    is 0), of the bound; ``evaluations`` counts sup-formula evaluations
    (line-search trials and full-grid checks).  Stopped short by ``budget``
    or by the working-set bound ``_WS_ENTRIES``, the best so far is
    ``budget_exhausted``.  ``seed``, unused, is kept for ``perfbench/``.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    _grid_guard(degree, grid)
    d1, half = degree + 1, grid // 2 + 1
    poly = (phi.exps >= 0) & (phi.exps <= degree)
    psi, scale = _normalized(SliceLaurentSeries.from_rows(phi.exps[~poly], phi.rows[~poly]))
    index = _hessian_index(degree)
    check = _HalfGrid(psi, grid, degree)
    best_x = x = np.zeros(4 * d1)
    best = float(np.max(check.sups(x)))
    evaluations, iterates, lower, tol = 1, [best], 0.0, 1e-6 * best
    stride = max(1, grid // max(256, 2 * d1))
    ws = _WorkingSet(check.phi, np.arange(0, half, stride), grid, degree, index)
    s, tau = 1.05 * best, ws.nu / best if best else 0.0
    # one evaluation is kept back for the full-grid check of the last point
    while best - lower > tol and evaluations < budget - 1:
        p, lam2, spent = _center(ws, s, x, tau, budget - 1 - evaluations)
        s, x = float(p.s), p.x
        lam = math.sqrt(max(lam2, 0.0))
        if lam < 1.0:
            slack = ws.nu + (lam + math.sqrt(ws.nu)) * lam / (1.0 - lam)
            lower = max(lower, s - slack / tau)
        vals = check.sups(x)
        evaluations += spent + 1
        full = float(np.max(vals))
        if full < best:
            best, best_x = full, x
        iterates.append(best)
        # the neighbours of each half-grid point, reflected at both ends:
        # 1 left of 0 and grid - half right of grid // 2
        near = np.concatenate([vals[1:2], vals, vals[grid - half:grid - half + 1]])
        peak = (vals > s) & (vals >= near[:-2]) & (vals >= near[2:])
        peak[ws.idx] = False
        new = np.flatnonzero(peak)
        if new.size:
            new = new[np.argsort(vals[new])[-(4 * d1 + 1):]]
            idx = np.sort(np.concatenate([ws.idx, new]))
            if (6 * degree + 60) * len(idx) > _WS_ENTRIES:
                break
            del ws  # its tables go before the next set's are built
            ws = _WorkingSet(check.phi, idx, grid, degree, index)
            s, tau = full + 0.01 * (full - lower), ws.nu / (full - lower)
        else:
            tau *= 20.0

    approx = _scale_back(best_x.reshape(d1, 4), scale, "optimizer_polynomial")
    approx[phi.exps[poly]] += phi.rows[poly]
    return OptimizeResult(
        distance=_scale_back(best, scale, "optimized_distance"),
        lower_bound=_scale_back(lower, scale, "optimizer_lower_bound"),
        iterates=[v * scale for v in iterates],  # a trace: inf past the double range
        best_approx=SliceLaurentSeries.from_rows(np.arange(d1), approx),
        evaluations=evaluations,
        status="converged" if best - lower <= tol else "budget_exhausted",
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ApproximationReport:
    """The numbers of one distance pipeline run, declared in print order, and
    what fixes each distance's competitor: the constructive route's unit
    ``maximizing_vector`` g (the zero series for a zero operator) and the
    optimizer's polynomial.  g gives the constructive competitor exactly, as
    N / g^s with N = star_mul(project_plus(star_mul(phi, g)), conj_c(g)) and
    g^s = symmetrize(g), or project_plus(phi) for a zero g."""

    hankel_norm: float
    constructive_distance: float
    optimized_distance: float
    constructive_zeros_in_disc: int
    hankel_block: int
    grid: int
    optimizer_status: str
    optimizer_evaluations: int
    optimizer_lower_bound: float
    constructive_status: str
    excluded_fraction: float
    maximizing_vector: SliceLaurentSeries
    optimizer_polynomial: SliceLaurentSeries

    @property
    def distance(self) -> float:
        """The better of the two analytic competitors' distances."""
        return min(self.constructive_distance, self.optimized_distance)

    def check(self) -> bool:
        """The always-true direction: the Hankel norm never exceeds the
        distance realized by any analytic competitor, up to 1e-6 relative."""
        return self.hankel_norm <= self.distance + 1e-6 * self.hankel_norm

    def sandwich(self) -> list[tuple[str, float, float]]:
        """The paper's sandwich d <= ||Gamma|| <= 2d, d = ``distance`` and
        ||Gamma|| = ``hankel_norm``, as (check, measured, bound) rows that
        pass when measured <= bound: relative tolerance 2e-2, slack 1e-12."""
        d, gamma, slack = self.distance, self.hankel_norm, 1e-12
        return [("sandwich_lower", d * (1.0 - 2e-2), gamma + slack),
                ("sandwich_upper", gamma, 2.0 * d * (1.0 + 2e-2) + slack)]

    def to_text(self) -> str:
        """One ``name: value`` line per field in field order: repr for
        numbers, plain text for strings, an indented block for a series."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SliceLaurentSeries):
                lines.append(f"{f.name}:")
                lines += ["  " + line for line in dumps_series(value).splitlines()]
            else:
                text = value if isinstance(value, str) else repr(value)
                lines.append(f"{f.name}: {text}")
        return "\n".join(lines) + "\n"


def approximation_report(
    phi: SliceLaurentSeries,
    grid: int,
    degree: int,
    budget: int,
) -> ApproximationReport:
    """The distance pipeline: hankel_norm, constructive_best_approx and
    optimize_distance on phi, each under its own scale rule, and the
    competitor of each distance.  ``hankel_block`` is the size k of the
    Hankel block that was read."""
    hn = hankel_norm(phi)
    cons = constructive_best_approx(phi, None, grid)
    opt = optimize_distance(phi, degree, grid, budget)
    return ApproximationReport(
        hankel_norm=hn,
        constructive_distance=cons.distance,
        optimized_distance=opt.distance,
        constructive_zeros_in_disc=cons.zeros_in_disc,
        hankel_block=_block_size(phi),
        grid=grid,
        optimizer_status=opt.status,
        optimizer_evaluations=opt.evaluations,
        optimizer_lower_bound=opt.lower_bound,
        constructive_status=cons.status,
        excluded_fraction=cons.excluded_fraction,
        maximizing_vector=cons.vector,
        optimizer_polynomial=opt.best_approx,
    )


def verify_nehari_bounds(
    alpha: Sequence[Quaternion],
    degree: int,
    grid: int,
    budget: int,
) -> ApproximationReport:
    """The ``approximation_report`` of the symbol phi with
    phi_hat(-1-m) = alpha(m), whose ``sandwich`` checks
    d <= ||Gamma_alpha|| <= 2d.  ||Gamma_alpha|| is its ``hankel_norm``,
    since every N x N section with N >= k is the k x k block of nonzero
    entries padded with zeros."""
    phi = SliceLaurentSeries({-1 - m: a for m, a in enumerate(alpha)})
    return approximation_report(phi, grid, degree, budget)
