"""Hankel norm of a slice symbol, maximizing vectors, the constructive best
bounded-regular approximation, and an independent minimax optimizer.

The constructive route realizes f = phi - (H_phi g) * g^{-*} pointwise, with g
a maximizing vector extracted from the SVD of the complex embedding; the
optimizer minimizes the sampled sup norm of phi - f over polynomial f as a
linear matrix inequality, by a log-det barrier method on a working set of
grid points grown by Remez-style exchange, and certifies its value by the
barrier's lower bound.  For finite symbols the two routes and the Hankel norm
must agree.  ``approximation_report`` is the one pipeline that runs all three,
and its report checks the paper's sandwich on its numbers.

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
    _cos_sin,
    _fft_samples,
    _grid_guard,
    _grid_samples,
    _reversed,
    _sup_moments,
    _sup_values,
    conj_c,
    dumps_series,
    l2_norm,
    linf_norm,
    project_minus,
    project_plus,
    symmetrize,
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
    if sigma <= 1e-14:
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
    realized pointwise on the sampling grid.

    Returns the sampled sup of |phi - f| as the distance, together with the
    negative-frequency mass of the boundary samples of f (small iff f is
    indeed analytic) and the fraction of grid points excluded because the
    symmetrization of g (nearly) vanishes there.  The correction is computed
    at e^{it_k} only; at e^{-it_k} it is the same at index -k.
    """
    _grid_guard(phi, grid)
    hn = hankel_norm(phi, N)
    if hn <= _ZERO_NORM_TOL:
        neg = project_minus(phi)
        dist = 0.0 if neg.is_zero() else linf_norm(neg, grid)
        return ConstructiveResult(project_plus(phi), dist, 0.0, 0.0, "ok")
    if g is None:
        g = maximizing_vector(phi, N)
    corr, excl = _quotient_samples(apply_H(phi, g), g, grid)
    excluded = excl | _reversed(excl)
    vals = _sup_values(*corr, *_reversed(corr))
    good = ~excluded
    distance = float(np.max(vals[good])) if np.any(good) else 0.0
    excluded_fraction = float(np.mean(excluded))
    status = "warning" if excluded_fraction > 0.01 else "ok"

    # f = phi - h * g^{-*} at e^{it}, back to coefficients
    f_plus = _grid_samples(phi, grid)[:2] - corr
    fa, fb = np.fft.fft(f_plus) / grid
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    neg = freqs < 0
    mass = float(np.sqrt(np.sum(np.abs(fa[neg]) ** 2 + np.abs(fb[neg]) ** 2)))

    best = _series_from_spectrum(fa, fb, freqs, cutoff=min(grid // 2 - 1, 8 * N))
    return ConstructiveResult(best, distance, mass, excluded_fraction, status)


def _quotient_samples(h: SliceLaurentSeries, g: SliceLaurentSeries, grid: int):
    """(h * g^{-*})(e^{it_k}) as complex pairs (2, grid), 0 where |h| <= 1e-12
    or |g^s| <= 1e-10, and the mask where g^s is that small and h is not.

    At p = e^{it}, (h * g^{-*})(p) = h(p) g^{-*}(e^{tK}), K = h(p)^{-1} i h(p).
    There g^s = c + Ks with c, s real (g^s has real coefficients: its samples
    are c + is) and g^c = C + KS, so h g^{-*} = h (cC + sS + K(cS - sC)) /
    (c^2 + s^2), and h K = i h.
    """
    hp = _grid_samples(h, grid)[:2]
    gs = _grid_samples(symmetrize(g), grid)[0]
    cos, sin = (np.stack(arrays.to_pairs(v)) for v in _cos_sin(_grid_samples(conj_c(g), grid)))
    gs_sq = gs.real ** 2 + gs.imag ** 2
    hmask = np.sum(np.abs(hp) ** 2, axis=0) <= 1e-24
    excl = (gs_sq <= 1e-20) & ~hmask
    gs_sq[gs_sq <= 1e-20] = 1.0
    corr = (arrays.mul_pairs(hp, (gs.real * cos + gs.imag * sin) / gs_sq)
            + 1j * arrays.mul_pairs(hp, (gs.real * sin - gs.imag * cos) / gs_sq))
    corr[:, hmask | excl] = 0.0
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


_Point = namedtuple("_Point", "s x res im_p r a b")  # see _WorkingSet.point


class _WorkingSet:
    """The barrier -sum_t log det Z_t, Z_t = [[s I, M_t], [M_t^H, s I]], over
    the grid points idx and their mirrors, for polynomials of the given
    degree.  M_{-t} has the singular values of M_t, so a point whose mirror
    -k mod grid is not in idx counts twice (weight w = 2); nu = 4 sum w."""

    def __init__(self, samples: np.ndarray, idx: np.ndarray, grid: int, degree: int):
        self.idx, self.degree = idx, degree
        self.w = np.where(np.isin(-idx % grid, idx), 1.0, 2.0)
        self.nu = 4.0 * float(np.sum(self.w))
        self.samples = samples[:, idx]
        # e^{ikt} for k = -degree .. 2 degree: the Hessian needs n + m and n - m
        ks = np.arange(-degree, 2 * degree + 1)
        self.epow = np.exp(1j * np.outer(ks, (2.0 * np.pi / grid) * idx))
        self.wepow = self.epow * self.w
        self.e, self.we = self.epow[degree:2 * degree + 1], self.wepow[degree:2 * degree + 1]
        self.e_conj = np.conj(self.e)

    def point(self, s: float, x: np.ndarray) -> _Point:
        """The barrier terms in factored form, a = s^2 - sigma_1^2 and
        b = s^2 - sigma_2^2 = a + 4r: the expanded s^4 - s^2 |M|^2 + |det M|^2
        cancels at a flat optimum."""
        f = x.reshape(-1, 4).view(complex).T  # the pairs (w + ix, y + iz)
        res = self.samples - np.concatenate([f @ self.e, f @ self.e_conj])
        base, im_p, qc_sq = _sup_moments(*res)
        r = np.sqrt(im_p * im_p + qc_sq)
        sig1 = np.sqrt(base + 2.0 * r)
        a = (s - sig1) * (s + sig1)
        return _Point(s, x, res, im_p, r, a, a + 4.0 * r)

    def newton_step(self, point: _Point, tau: float):
        """Newton step on (s, x) for tau s - sum_t log det Z_t, and the
        squared Newton decrement."""
        s, _, (ap, bp, am, bm), im_p, r, a, b = point
        # 2 x 2 blocks per point as (4, G) arrays of entries (00, 01, 10, 11)
        m = np.stack([ap, bp, np.conj(bm), -np.conj(am)])
        mh = np.conj(m[[0, 2, 1, 3]])
        qc = ap * bm - am * bp
        # W = Z^{-1}: W11 = s S, W21 = -M^H S and W22 = (I - W21 M) / s, with
        # S = (s^2 I - M M^H)^{-1} = (a I + R) / (a b) and R the rank-one part
        # [[2(r - im_p), qc], [conj qc, 2(r + im_p)]]
        sinv = np.stack([2.0 * (r - im_p) + a, qc, np.conj(qc),
                         2.0 * (r + im_p) + a]) / (a * b)
        w11 = s * sinv
        w21 = -_mul22(mh, sinv)
        w22 = -_mul22(w21, m)
        w22[::3] += 1.0  # the diagonal entries 00 and 11
        w22 /= s
        # d/dx_(n,c) of -log det Z_t is -2 Re e^{int} tr(W21 K_c); the
        # Hessian is 2 Re of e^{i(n+m)t} tr(W21 K_c W21 K_d) plus
        # e^{i(n-m)t} tr(W11 K_c W22 K_d^H), summed over t with weights w
        deg, d1, dim = self.degree, self.degree + 1, 4 * self.degree + 4
        n = np.arange(d1)
        hx1 = (self.wepow @ (w21[:, None] * w21[None]).reshape(16, -1).T) @ _C1
        hx2 = (self.wepow @ (w11[:, None] * w22[None]).reshape(16, -1).T) @ _C2
        hxx = 2.0 * (hx1[n[:, None] + n + deg] + hx2[n[:, None] - n + deg]).real
        hess = np.empty((dim + 1, dim + 1))
        hess[1:, 1:] = hxx.reshape(d1, d1, 4, 4).transpose(0, 2, 1, 3).reshape(dim, dim)
        # the s-x terms take (W^2)_21 = -dW21/ds = 2 s W21 S for W21; the s-s
        # term tr W^2 sums 1/(s +- sigma)^2 = (4 s^2 - 2 a) / a^2 for sigma_1
        tr_k = ((self.we @ np.concatenate([w21, 2.0 * s * _mul22(w21, sinv)]).T)
                .reshape(d1, 2, 4) @ _KT).real
        ia, ib = 1.0 / a, 1.0 / b
        hess[0, 1:] = hess[1:, 0] = 2.0 * tr_k[:, 1].ravel()
        hess[0, 0] = (4.0 * s * s * (ia * ia + ib * ib) - 2.0 * (ia + ib)) @ self.w
        grad = np.empty(dim + 1)
        grad[0] = tau - 2.0 * s * ((ia + ib) @ self.w)
        grad[1:] = -2.0 * tr_k[:, 0].ravel()
        step = np.linalg.solve(hess, -grad)
        return step, float(-grad @ step)


def _mul22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of 2 x 2 blocks stored as (4, G) entry arrays."""
    a, b = a.reshape(2, 2, -1), b.reshape(2, 2, -1)
    return (a[:, :1] * b[:1] + a[:, 1:] * b[1:]).reshape(4, -1)


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
            if q.s > 0.0 and np.all(q.a > 0.0):
                change = tau * t * step[0] - (np.log(q.a / p.a)
                                              + np.log(q.b / p.b)) @ ws.w
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
    ``lower_bound``.

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
    samples = _grid_samples(phi, grid)  # A+, B+, A-, B-
    tol = 1e-6 * max(1.0, float(np.max(_sup_values(*samples[:, :half]))))

    def full_values(x: np.ndarray) -> np.ndarray:  # the sup at +-t_k, k <= grid / 2
        f = np.zeros((2, grid), dtype=complex)
        f[:, :d1] = arrays.to_pairs(x.reshape(d1, 4))
        return _sup_values(*(samples[:, :half] - _fft_samples(f)[:, :half]))

    x = np.zeros(4 * d1)
    for n, a in project_plus(phi).coeffs.items():
        if n <= degree:
            x[4 * n: 4 * n + 4] = a.components()
    best_x, best = x, float(np.max(full_values(x)))
    evaluations, iterates, lower = 1, [best], 0.0
    stride = max(1, grid // max(256, 2 * d1))
    ws = _WorkingSet(samples, np.arange(0, half, stride), grid, degree)
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
        vals = full_values(x)
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
            ws = _WorkingSet(samples, np.union1d(ws.idx, new), grid, degree)
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
        distance realized by any analytic competitor."""
        return self.hankel_norm <= self.distance + tol * max(1.0, self.hankel_norm)

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
    """The distance pipeline: hankel_norm, then constructive_best_approx,
    then optimize_distance, with the better competitor as ``best_approx``."""
    hn = hankel_norm(phi, N)
    cons = constructive_best_approx(phi, N, grid)
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
