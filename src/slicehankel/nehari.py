"""Hankel norm of a slice symbol, maximizing vectors, the constructive best
bounded-regular approximation, and an independent minimax optimizer.

The constructive route realizes f = phi - (H_phi g) * g^{-*} pointwise, with g
a maximizing vector extracted from the SVD of the complex embedding; since
g^{-*} = g^c * (g^s)^{-*} and g^s has real coefficients, the correction at p
is the quotient (h * g^c)(p) / g^s(p), h = H_phi g.  The optimizer minimizes
the sampled sup norm of phi - f over polynomial f as a linear matrix
inequality, by a log-det barrier method on a working set of grid points grown
by Remez-style exchange, and certifies its value by the barrier's lower
bound.  For finite symbols the two routes and the Hankel norm must agree.
``approximation_report`` is the one pipeline that runs all three, and its
report checks the paper's sandwich on its numbers.

Every Hankel matrix comes from ``hankel.hankel_from_symbol``, and all
sampling on the boundary (the FFT grid sampler and the closed-form sphere
sup) lives in ``series``; this module only combines the samples.
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
    apply_H,
)
from .quat import Quaternion
from .series import (
    SliceLaurentSeries,
    _grid_guard,
    _half_samples,
    _plus_samples,
    _reversed,
    _sup_terms,
    _sup_values,
    dumps_series,
    l2_norm,
    linf_norm,
    project_minus,
    project_plus,
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


def _truncation_guard(phi: SliceLaurentSeries, N: int) -> None:
    """Refuse a truncation N too small for the negative support depth
    -n_min, which would cut part of the symbol off the matrix."""
    need = 2 * max(0, -phi.n_min) + 8
    if N < need:
        raise ValueError(f"truncation {N} below guard {need}")


def _hankel_block(phi: SliceLaurentSeries) -> HankelMatrix:
    """The k x k block holding every nonzero entry of H_phi, since entry
    (j, l) = phi_hat(-1-j-l) vanishes once j + l >= -n_min; k = -n_min, or a
    1 x 1 zero block for an analytic symbol."""
    return hankel_from_symbol(phi, max(1, -phi.n_min))


def hankel_norm(phi: SliceLaurentSeries, N: int) -> float:
    """Operator norm of the Hankel operator of phi.

    The SVD runs on the k x k block of nonzero entries, k = -n_min, so the
    cost does not grow with N; N only has to pass the truncation guard.
    """
    _truncation_guard(phi, N)
    return operator_norm(_hankel_block(phi))


def maximizing_vector(phi: SliceLaurentSeries, N: int) -> SliceLaurentSeries:
    """Unit g in the Hardy space with ||H_phi g|| = ||H_phi|| (up to SVD
    tolerance), from the top right singular vector of the embedded k x k
    block of nonzero entries (dense SVD up to 96, the Lanczos Ritz vector
    above); N only has to pass the truncation guard.

    g is defined up to a right unit-quaternion factor; the gauge fixed here
    makes its lowest nonzero coefficient real and positive."""
    _truncation_guard(phi, N)
    sigma, v = top_singular_pair(_hankel_block(phi))
    if sigma <= _ZERO_NORM_TOL:
        raise ValueError("zero operator has no maximizing vector")
    comps = deembed_vector(v)
    mags = np.sqrt(np.sum(np.square(comps), axis=1))
    keep = mags > 1e-13 * float(np.max(mags))
    g = SliceLaurentSeries(
        {k: Quaternion(*comps[k]) for k in range(len(comps)) if keep[k]}
    )
    n0 = g.n_min
    lead = g.coefficient(n0)
    g = g.times_right(lead.conjugate())
    # lead * conj(lead) has norm_sq as its real part to the bit, but its
    # imaginary part vanishes only up to rounding: store the exact value
    g.coeffs[n0] = Quaternion(lead.norm_sq())
    return g.times_right(Quaternion(1.0 / l2_norm(g)))


@dataclass
class ConstructiveResult:
    best_approx: SliceLaurentSeries
    distance: float
    residual_negative_mass: float
    excluded_fraction: float
    status: str


def constructive_best_approx(
    phi: SliceLaurentSeries,
    N: int,
    grid: int,
    g: SliceLaurentSeries | None = None,
) -> ConstructiveResult:
    """Best bounded-regular approximation f = phi - (H_phi g) * g^{-*},
    realized pointwise on the sampling grid: with h = H_phi g (exact, from
    ``apply_H``), the correction at p is (h * g^c)(p) / g^s(p), computed
    from the samples of h and g by ``_quotient_samples``.

    Returns the sampled sup of |phi - f| as the distance, together with the
    negative-frequency mass of the boundary samples of f (small iff f is
    indeed analytic) and the fraction of grid points excluded because the
    symmetrization of g (nearly) vanishes there.  The correction is computed
    at e^{it_k} only; at e^{-it_k} it is the same at index -k.

    g is the maximizing vector to use.  Without it the route computes the
    Hankel norm, returns phi's analytic part for a zero operator, and
    otherwise takes ``maximizing_vector(phi, N)``.
    """
    _grid_guard(phi, grid)
    _truncation_guard(phi, N)
    if g is None:
        if hankel_norm(phi, N) <= _ZERO_NORM_TOL:
            neg = project_minus(phi)
            dist = 0.0 if neg.is_zero() else linf_norm(neg, grid)
            return ConstructiveResult(project_plus(phi), dist, 0.0, 0.0, "ok")
        g = maximizing_vector(phi, N)
    corr, excl = _quotient_samples(apply_H(phi, g), g, grid)
    excluded = excl | _reversed(excl)
    vals = _sup_values(_half_samples(corr))
    good = ~excluded[:len(vals)]
    distance = float(np.max(vals[good])) if np.any(good) else 0.0
    excluded_fraction = float(np.mean(excluded))
    status = "warning" if excluded_fraction > 0.01 else "ok"

    # f = phi - h * g^{-*} at e^{it}, back to coefficients
    fa, fb = np.fft.fft(_plus_samples(phi, grid) - corr) / grid
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    neg = freqs < 0
    mass = float(np.sqrt(np.sum(np.abs(fa[neg]) ** 2 + np.abs(fb[neg]) ** 2)))

    best = _series_from_spectrum(fa, fb, freqs, cutoff=min(grid // 2 - 1, 8 * N))
    return ConstructiveResult(best, distance, mass, excluded_fraction, status)


def _quotient_samples(h: SliceLaurentSeries, g: SliceLaurentSeries, grid: int):
    """(h * g^{-*})(e^{it_k}) as complex pairs (2, grid), 0 where
    |g^s|^2 <= 1e-20, and the mask of those points.

    g^{-*} = g^c * (g^s)^{-*}, and g^s has real coefficients, so the
    quotient is (h * g^c)(p) / g^s(p), a complex division on both pairs.  With
    g's + samples (A+, B+), g^c has + samples (conj A-, -B+), so the star
    product formula of the pairs gives g^s = A+ conj A- + B+ conj B- and
    h * g^c = (hA conj A- + hB conj B-, hB A+ - hA B+).
    """
    ha, hb = _plus_samples(h, grid)
    plus = _plus_samples(g, grid)
    (ga, gb), (ma, mb) = plus, np.conj(_reversed(plus))
    gs = ga * ma + gb * mb
    excl = gs.real ** 2 + gs.imag ** 2 <= 1e-20
    gs[excl] = 1.0
    corr = np.stack([ha * ma + hb * mb, hb * ga - ha * gb]) / gs
    corr[:, excl] = 0.0
    return corr, excl


def _series_from_spectrum(fa, fb, freqs, cutoff: int) -> SliceLaurentSeries:
    mags = np.abs(fa) + np.abs(fb)
    floor = 1e-9 * max(float(np.max(mags)), 1e-300)
    keep = np.flatnonzero((freqs >= 0) & (freqs <= cutoff) & (mags > floor))
    comps = arrays.from_pairs(fa[keep], fb[keep])
    return SliceLaurentSeries(
        {int(freqs[i]): Quaternion(*c) for i, c in zip(keep, comps)})


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


_Point = namedtuple("_Point", "s x res d e a b ab qc")  # see _WorkingSet.point


class _WorkingSet:
    """The barrier -sum_t log det Z_t, Z_t = [[s I, M_t], [M_t^H, s I]], over
    the grid points idx and their mirrors, for polynomials of the given
    degree.  M_{-t} has the singular values of M_t, so a point whose mirror
    -k mod grid is not in idx counts twice (weight w = 2); nu = 4 sum w.

    The samples and the powers e^{ikt} at the points are gathered from
    phi's + samples ``plus`` and the solve's table ``roots`` of
    e^{2 pi i j / grid}; ``index`` is the solve's ``_hessian_index``.  The
    samples are kept as [[A+ | A-], [B+ | B-]], the layout of _sup_terms and
    of f @ [e | conj e] for f's coefficient pairs."""

    def __init__(self, plus: np.ndarray, idx: np.ndarray, roots: np.ndarray,
                 degree: int, index: tuple[np.ndarray, np.ndarray]):
        grid, width, d1 = len(roots), len(idx), degree + 1
        self.idx, self.degree = idx, degree
        mirror = -idx % grid
        member = np.zeros(grid, dtype=bool)
        member[idx] = True
        self.w = np.where(member[mirror], 1.0, 2.0)
        self.nu = 4.0 * float(np.sum(self.w))
        self.samples = plus.take(np.concatenate([idx, mirror]), axis=1)
        # e^{ikt} for k = 0 .. 2 degree: the Hessian needs n + m and n - m
        epow = roots[np.outer(np.arange(2 * degree + 1), idx) % grid]
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

    f is evaluated on the whole grid by one batched inverse FFT of length
    L, the least divisor of grid above degree: with M = grid / L and
    k = r + M j, f(e^{it_k}) = sum_n (f_n e^{int_r}) e^{2 pi i nj / L}, so
    the FFT along n of the (L, M) table f_n e^{int_r} lands in grid order.
    Its output buffer repeats column 0 at the end, so the - rows at index
    -k are a reversed view of it."""

    def __init__(self, plus: np.ndarray, roots: np.ndarray, degree: int):
        grid, d1 = len(roots), degree + 1
        lengths = np.arange(d1, grid + 1)
        length = int(lengths[grid % lengths == 0][0])
        self.half = grid // 2 + 1
        self.phi = _half_samples(plus)
        self.res = np.empty_like(self.phi)
        self.twiddle = roots[np.outer(np.arange(d1), np.arange(grid // length))]
        self.table = np.zeros((2, length, grid // length), dtype=complex)
        self.values = np.empty((2, grid + 1), dtype=complex)

    def sups(self, x: np.ndarray) -> np.ndarray:
        res, half, values = self.res, self.half, self.values
        grid = values.shape[1] - 1
        f = x.reshape(-1, 4).view(complex)  # the coefficient pairs of f
        np.multiply(f.T[:, :, None], self.twiddle, out=self.table[:, :len(f)])
        np.fft.ifft(self.table, axis=1, norm="forward",
                    out=values[:, :grid].reshape(self.table.shape))
        values[:, grid] = values[:, 0]
        np.subtract(self.phi[:, :half], values[:, :half], out=res[:, :half])
        np.subtract(self.phi[:, half:], values[:, grid:grid - half:-1], out=res[:, half:])
        return _sup_values(res)


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
    given degree.  At grid angle t the residual gives M_t = [[A+, B+],
    [conj B-, -conj A-]], real-affine in f's coefficients x, whose sigma_max
    is the sphere sup.  So this is: minimize s subject to [[s I, M_t],
    [M_t^H, s I]] >= 0, solved from the truncated analytic part of phi by a
    log-det barrier method (Boyd-Vandenberghe 2004, ch. 11; tau x 20 per
    outer step) on a subgrid of at least 256 points; after each outer step
    the full grid's local maxima above s join it (Remez-style exchange).
    The sup is even in t, so only the half grid k = 0 .. grid // 2 is
    searched and the subgrid holds half-grid points, each weighted 2 for
    itself and its mirror -k (1 at k = 0 and grid / 2).  The bound
    s - (nu + (lam + sqrt nu) lam / (1 - lam)) / tau (nu = 4 sum of the
    weights, lam the Newton decrement; Nesterov 2004, Thm 4.2.7) is
    ``lower_bound``.  One table of the roots of unity e^{2 pi i j / grid}
    and one pair of Hessian index tables serve every working set of the
    solve, and the roots also the full-grid check.

    The iterates, the best full-grid value after each outer step, are exact
    sups for admissible competitors.  ``converged``: the last is within 1e-6
    max(1, sup |phi|) of the bound; ``evaluations`` counts sup-formula
    evaluations (line-search trials and full-grid checks), and at ``budget``
    the best so far is ``budget_exhausted``.  Deterministic: ``seed`` is
    unused, and kept only because existing callers pass it.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    _grid_guard(phi, grid)
    if grid < 4 * degree + 16:
        # as for phi: a coarser grid aliases the residual's frequencies
        raise ValueError(f"grid {grid} too coarse for degree {degree}; "
                         f"need at least {4 * degree + 16}")
    d1, half = degree + 1, grid // 2 + 1
    plus = _plus_samples(phi, grid)
    roots = np.exp((2j * np.pi / grid) * np.arange(grid))
    index = _hessian_index(degree)
    check = _HalfGrid(plus, roots, degree)
    tol = 1e-6 * max(1.0, float(np.max(check.sups(np.zeros(4 * d1)))))
    x = np.zeros(4 * d1)
    for n, a in project_plus(phi).coeffs.items():
        if n <= degree:
            x[4 * n: 4 * n + 4] = a.components()
    best_x, best = x, float(np.max(check.sups(x)))
    evaluations, iterates, lower = 1, [best], 0.0
    stride = max(1, grid // max(256, 2 * d1))
    ws = _WorkingSet(plus, np.arange(0, half, stride), roots, degree, index)
    # the neighbours of each half-grid point, reflected at both ends
    k = np.arange(half)
    left, right = (np.minimum(m % grid, -m % grid) for m in (k - 1, k + 1))
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
        peak = (vals > s) & (vals >= vals[left]) & (vals >= vals[right])
        peak[ws.idx] = False
        new = np.flatnonzero(peak)
        if new.size:
            new = new[np.argsort(vals[new])[-(4 * d1 + 1):]]
            ws = _WorkingSet(plus, np.union1d(ws.idx, new), roots, degree, index)
            s, tau = full + 0.01 * (full - lower), ws.nu / (full - lower)
        else:
            tau *= 20.0

    coeffs = {n: Quaternion(*c) for n, c in enumerate(best_x.reshape(d1, 4))
              if np.any(c != 0.0)}
    return OptimizeResult(
        best_approx=SliceLaurentSeries(coeffs),
        distance=best,
        iterates=iterates,
        evaluations=evaluations,
        status="converged" if best - lower <= tol else "budget_exhausted",
        lower_bound=lower,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ApproximationReport:
    """The numbers of one distance pipeline run, declared in print order."""

    hankel_norm: float
    constructive_distance: float
    optimized_distance: float
    residual_negative_mass: float
    truncation_N: int
    grid: int
    optimizer_status: str
    optimizer_evaluations: int
    optimizer_lower_bound: float
    constructive_status: str
    excluded_fraction: float
    best_approx: SliceLaurentSeries

    @property
    def distance(self) -> float:
        """The better of the two analytic competitors' distances."""
        return min(self.constructive_distance, self.optimized_distance)

    def check(self, tol: float = 1e-6) -> bool:
        """The always-true direction: the Hankel norm never exceeds the
        distance realized by any analytic competitor, up to tol relative."""
        return self.hankel_norm <= self.distance + tol * self.hankel_norm

    def sandwich(self, tol: float = 2e-2) -> list[tuple[str, float, float]]:
        """The paper's sandwich d <= ||Gamma|| <= 2d, d = ``distance`` and
        ||Gamma|| = ``hankel_norm``, as (check, measured, bound) rows that
        pass when measured <= bound: relative tolerance tol, slack 1e-12."""
        d, gamma, slack = self.distance, self.hankel_norm, 1e-12
        return [("sandwich_lower", d * (1.0 - tol), gamma + slack),
                ("sandwich_upper", gamma, 2.0 * d * (1.0 + tol) + slack)]

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
    N: int,
    grid: int,
    degree: int,
    budget: int,
) -> ApproximationReport:
    """The distance pipeline: hankel_norm, then constructive_best_approx
    (with the maximizing vector of a nonzero operator), then
    optimize_distance, with the better competitor as ``best_approx``."""
    hn = hankel_norm(phi, N)
    g = maximizing_vector(phi, N) if hn > _ZERO_NORM_TOL else None
    cons = constructive_best_approx(phi, N, grid, g)
    opt = optimize_distance(phi, degree, grid, budget)
    best = cons.best_approx if cons.distance <= opt.distance else opt.best_approx
    return ApproximationReport(
        hankel_norm=hn,
        constructive_distance=cons.distance,
        optimized_distance=opt.distance,
        residual_negative_mass=cons.residual_negative_mass,
        truncation_N=N,
        grid=grid,
        optimizer_status=opt.status,
        optimizer_evaluations=opt.evaluations,
        optimizer_lower_bound=opt.lower_bound,
        constructive_status=cons.status,
        excluded_fraction=cons.excluded_fraction,
        best_approx=best,
    )


def verify_nehari_bounds(
    alpha: Sequence[Quaternion],
    N: int,
    degree: int,
    grid: int,
    budget: int,
) -> ApproximationReport:
    """The ``approximation_report`` of the symbol phi with
    phi_hat(-1-m) = alpha(m), whose ``sandwich`` checks
    d <= ||Gamma_alpha|| <= 2d.  ||Gamma_alpha|| is its ``hankel_norm``,
    since the N-truncation is the k x k block of nonzero entries padded with
    zeros."""
    phi = SliceLaurentSeries(
        {-1 - m: a for m, a in enumerate(alpha) if a.norm_sq() != 0.0}
    )
    return approximation_report(phi, N, grid, degree, budget)
