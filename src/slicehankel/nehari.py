"""Hankel norm of a slice symbol, maximizing vectors, the constructive best
bounded-regular approximation, and an independent minimax optimizer.

The constructive route realizes f = phi - (H_phi g) * g^{-*} pointwise, with g
a maximizing vector extracted from the SVD of the complex embedding; the
optimizer minimizes the sampled sup norm of phi - f over polynomial f by
multi-start coordinate pattern search, screening each round's probes on a
subgrid by an exact expansion of the current residual (``_ProbeScreen``) and
evaluating the best few on the full grid.  For finite symbols the two routes
and the Hankel norm must agree, which is what the verification report checks.

All sampling on the boundary (the grid evaluator, the reference-slice samples
and the closed-form sphere sup) lives in ``series``; this module only combines
the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import arrays
from .hankel import (
    QuaternionMatrix,
    build_hankel_matrix,
    complex_embed,
    deembed_vector,
    operator_norm,
    apply_H,
)
from .quat import Quaternion
from .series import (
    SliceLaurentSeries,
    _evaluate_many,
    _grid_guard,
    _reference_samples,
    _sup_finish,
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
    "NehariReport",
    "verify_nehari_bounds",
]

_ZERO_NORM_TOL = 1e-13


def _truncation_guard(phi: SliceLaurentSeries, N: int) -> None:
    """Refuse a truncation N too small for the negative support depth
    -n_min, which would cut part of the symbol off the matrix."""
    need = 2 * max(0, -phi.n_min) + 8
    if N < need:
        raise ValueError(f"truncation {N} below guard {need}")


def _hankel_block(phi: SliceLaurentSeries) -> QuaternionMatrix:
    """The k x k block holding every nonzero entry of H_phi, since entry
    (j, l) = phi_hat(-1-j-l) vanishes once j + l >= -n_min; k = -n_min, or a
    1 x 1 zero block for an analytic symbol."""
    k = max(1, -phi.n_min)
    return build_hankel_matrix([phi.coefficient(-1 - m) for m in range(k)], k)


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
    block of nonzero entries; N only has to pass the truncation guard.

    g is defined up to a right unit-quaternion factor; the gauge fixed here
    makes its lowest nonzero coefficient real and positive."""
    _truncation_guard(phi, N)
    _, sv, vh = np.linalg.svd(complex_embed(_hankel_block(phi)))
    if sv[0] <= 1e-14:
        raise ValueError("zero operator has no maximizing vector")
    comps = deembed_vector(np.conj(vh[0]))
    mags = np.sqrt(np.sum(np.square(comps), axis=1))
    keep = mags > 1e-13 * float(np.max(mags))
    g = SliceLaurentSeries(
        {k: Quaternion(*comps[k]) for k in range(len(comps)) if keep[k]}
    )
    g = g.times_right(g.coefficient(g.n_min).conjugate())
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
    symmetrization of g (nearly) vanishes there.
    """
    _grid_guard(phi, grid)
    hn = hankel_norm(phi, N)
    if hn <= _ZERO_NORM_TOL:
        neg = project_minus(phi)
        dist = 0.0 if neg.is_zero() else linf_norm(neg, grid)
        return ConstructiveResult(project_plus(phi), dist, 0.0, 0.0, "ok")
    if g is None:
        g = maximizing_vector(phi, N)
    h = apply_H(phi, g)
    gs = symmetrize(g)
    gc = conj_c(g)

    t = 2.0 * np.pi * np.arange(grid) / grid
    ref_units = np.broadcast_to(np.array([1.0, 0.0, 0.0]), (grid, 3))
    excluded = np.zeros(grid, dtype=bool)
    corr = {}
    f_samples_plus = None
    for sign in (1.0, -1.0):
        theta = sign * t
        (hv,) = _evaluate_many([h], theta, ref_units)
        hn2 = np.sum(np.square(hv), axis=1)
        hmask = hn2 <= (1e-12) ** 2
        hv_safe = np.where(hmask[:, None], np.array([1.0, 0, 0, 0]), hv)
        p = np.zeros((grid, 4))
        p[:, 0] = np.cos(theta)
        p[:, 1] = np.sin(theta)
        moved = arrays.mul(arrays.mul(arrays.inv(hv_safe), p), hv_safe)
        moved /= arrays.norm(moved)[:, None]
        theta2 = np.arccos(np.clip(moved[:, 0], -1.0, 1.0))
        im = moved[:, 1:]
        imn = np.sqrt(np.sum(np.square(im), axis=1))
        units2 = np.where(
            imn[:, None] > 1e-14, im / np.maximum(imn, 1e-300)[:, None],
            np.array([1.0, 0.0, 0.0]),
        )
        gsv, gcv = _evaluate_many([gs, gc], theta2, units2)
        gsn = arrays.norm(gsv)
        excl = (gsn <= 1e-10) & ~hmask
        gsv_safe = np.where(excl[:, None], np.array([1.0, 0, 0, 0]), gsv)
        recip = arrays.mul(arrays.inv(gsv_safe), gcv)
        c = arrays.mul(hv, recip)
        c[hmask] = 0.0
        c[excl] = 0.0
        excluded |= excl
        corr[sign] = c
        if sign > 0:
            (phi_v,) = _evaluate_many([phi], theta, ref_units)
            f_samples_plus = phi_v - c

    rp, rm = corr[1.0], corr[-1.0]
    vals = _sup_values(*arrays.to_pairs(rp), *arrays.to_pairs(rm))
    good = ~excluded
    distance = float(np.max(vals[good])) if np.any(good) else 0.0
    excluded_fraction = float(np.mean(excluded))
    status = "warning" if excluded_fraction > 0.01 else "ok"

    fa, fb = (np.fft.fft(z) / grid for z in arrays.to_pairs(f_samples_plus))
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    neg = freqs < 0
    mass = float(np.sqrt(np.sum(np.abs(fa[neg]) ** 2 + np.abs(fb[neg]) ** 2)))

    best = _series_from_spectrum(fa, fb, freqs, cutoff=min(grid // 2 - 1, 8 * N))
    return ConstructiveResult(best, distance, mass, excluded_fraction, status)


def _series_from_spectrum(fa, fb, freqs, cutoff: int) -> SliceLaurentSeries:
    mags = np.abs(fa) + np.abs(fb)
    floor = 1e-9 * max(float(np.max(mags)), 1e-300)
    comps = arrays.from_pairs(fa, fb)
    coeffs = {}
    for i, nf in enumerate(freqs):
        n = int(nf)
        if 0 <= n <= cutoff and mags[i] > floor:
            coeffs[n] = Quaternion(*comps[i])
    return SliceLaurentSeries(coeffs)


# ---------------------------------------------------------------------------
# derivative-free minimax optimization
# ---------------------------------------------------------------------------


@dataclass
class OptimizeResult:
    best_approx: SliceLaurentSeries
    distance: float
    iterates: list[float] = field(default_factory=list)
    evaluations: int = 0
    status: str = "converged"


class _ProbeScreen:
    """Coarse-grid sup of every coordinate probe of the pattern search, from
    an exact expansion of the residual at the current point x.

    Probe i moves real coordinate d = i mod dim of x by delta = +step (first
    dim probes) or -step (the rest).  Moving coordinate c of coefficient n of
    fa by delta adds -eps e^{int} to A+ and -eps e^{-int} to A-, with
    eps = delta u and u = 1 (c = 0) or i (c = 1), and leaves B+- alone; fb
    (c = 2, 3) acts on B+- the same way.  So the moments of the sup formula
    are quadratics in delta,

      base(delta)  = base  + delta lin_base + delta^2
      im_p(delta)  = im_p  + delta lin_im
      qc_sq(delta) = qc_sq + delta lin_qc + delta^2 quad

    with (dim, M) coefficient arrays built by ``expand(x)`` once per point,
    and every probe of a round costs a few real operations on them.
    """

    def __init__(self, basis, ap, bp, am, bm):
        d1, m = basis.shape
        basis = np.ascontiguousarray(basis)
        self.e, self.ce = basis[:, None], np.conj(basis)[:, None]  # (d1, 1, M)
        self.samples = np.stack([ap, bp]), np.stack([am, bm])
        # every array the size of the coefficients is preallocated, as in the
        # exact objective (see optimize_distance)
        self.cwork = np.empty((4, d1, 2, m), dtype=complex)
        self.lin = np.empty((3, 4 * d1, m))  # lin_base, lin_im, lin_qc
        self.quad = np.empty((4 * d1, m))
        self.qc_const = np.empty((4 * d1, m))
        self.work = np.empty((3, 8 * d1, m))  # the moments of all 2 dim probes

    def expand(self, x: np.ndarray) -> None:
        e, ce = self.e, self.ce
        d1, _, m = e.shape
        f = np.stack(arrays.to_pairs(x.reshape(d1, 4)))  # (fa, fb)
        sp = self.samples[0] - f @ e[:, 0]  # (A+, B+)
        sm = self.samples[1] - f @ ce[:, 0]  # (A-, B-)
        (ap, bp), (am, bm) = sp, sm
        self.moments = _sup_moments(ap, bp, am, bm)
        # rows (n, fa/fb, u = 1/i) of the (dim, M) arrays; with Re(z u) equal
        # to Re z or -Im z,
        #   lin_base = -Re(G u),  G = conj(A+) e + conj(A-) ce
        #   lin_im = Re(D u) / 2,  D = conj(A+) e - conj(A-) ce
        #   lin_qc = -Re(conj(qc) U u) / 2,  quad = |U|^2 / 4
        # (B for fb), where probing fa moves qc by -eps (e B- - ce B+) and
        # probing fb by -eps (ce A+ - e A-)
        plus, minus, u, z = self.cwork
        np.multiply(np.conj(sp), e, out=plus)
        np.multiply(np.conj(sm), ce, out=minus)
        np.multiply(e, np.stack([bm, -am]), out=u)
        np.subtract(u, np.multiply(ce, np.stack([bp, -ap]), out=z), out=u)
        lin = self.lin.reshape(3, d1, 2, 2, m)

        def put(row, z, f):
            np.multiply(z.real, f, out=lin[row, :, :, 0])
            np.multiply(z.imag, -f, out=lin[row, :, :, 1])

        put(0, np.add(plus, minus, out=z), -1.0)
        put(1, np.subtract(plus, minus, out=z), 0.5)
        put(2, np.multiply(np.conj(ap * bm - am * bp), u, out=z), -0.5)
        quad = self.quad.reshape(d1, 2, 2, m)
        q = quad[:, :, 0]
        np.add(np.square(u.real, out=q), np.square(u.imag, out=quad[:, :, 1]), out=q)
        np.multiply(q, 0.25, out=q)
        quad[:, :, 1] = q

    def __call__(self, step: float, take: int) -> np.ndarray:
        """Coarse sup of probes 0 .. take-1 around the last expanded x."""
        dim = len(self.quad)
        base0, im0, qc0 = self.moments
        # the moments of probe i go to row i of work: const + step lin for
        # i < dim, const - step lin (row i - dim of lin) for i >= dim
        steps = np.multiply(self.lin, step, out=self.work[:, dim:])
        qc_const = np.multiply(self.quad, step * step, out=self.qc_const)
        np.add(qc_const, qc0, out=qc_const)
        for out, t, const in zip(self.work, steps, (base0 + step * step, im0,
                                                   qc_const)):
            np.add(const, t, out=out[:dim])
            np.subtract(const, t, out=t)
        # rounding can leave a true zero slightly negative
        base, im_p, qc_sq = self.work
        np.maximum(base, 0.0, out=base)
        np.maximum(qc_sq, 0.0, out=qc_sq)
        return _sup_finish(base, im_p, qc_sq).max(axis=1)[:take]


def optimize_distance(
    phi: SliceLaurentSeries,
    degree: int,
    grid: int,
    budget: int,
    seed: int = 0,
    n_starts: int = 8,
) -> OptimizeResult:
    """Minimize the sampled sup of |phi - f| over Hardy polynomials f of the
    given degree, by multi-start coordinate pattern search with shrinking
    steps.  Deterministic for a fixed seed.

    Each round probes x +- step along every real coordinate.  The probes are
    ranked by their sup on a subgrid of at most 2047 points, computed by
    ``_ProbeScreen`` from an exact quadratic expansion of the residual at x,
    and the n_exact best are evaluated on the full grid; only those full-grid
    values are accepted or recorded.  Every probe counts against the budget.

    The recorded iterates are the global best-so-far after each probe round;
    every probed candidate is an admissible analytic competitor, so each
    iterate upper-bounds the true distance.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if n_starts < 8:
        raise ValueError("at least 8 starts required")
    rng = np.random.default_rng(seed)

    _grid_guard(phi, grid)
    d1 = degree + 1
    dim = 4 * d1
    t = 2.0 * np.pi * np.arange(grid) / grid
    pap, pbp, pam, pbm = _reference_samples(phi, grid)
    basis = np.exp(1j * np.outer(np.arange(d1), t))  # (d1, grid)
    cbasis = np.conj(basis)

    # probes are screened on a strided subgrid and only the most promising
    # ones re-evaluated on the full grid; reported values are always exact
    stride = max(1, grid // 1024)
    screen = _ProbeScreen(basis[:, ::stride], pap[::stride], pbp[::stride],
                          pam[::stride], pbm[::stride])

    # The exact batches are evaluated in one preallocated scratch block (four
    # residuals plus the scratch of _sup_values) for n_exact probes.
    # Grid-sized temporaries allocated and freed each round cost more in page
    # faults than the arithmetic, by an amount that depends on the allocator's
    # history.
    n_exact = 4
    cwork = np.empty((6, n_exact * grid), dtype=complex)
    rwork = np.empty((5, n_exact * grid))

    def batch_objective(xs: np.ndarray) -> np.ndarray:
        shape = (len(xs), grid)
        n = shape[0] * shape[1]
        c = [buf[:n].reshape(shape) for buf in cwork]
        r = [buf[:n].reshape(shape) for buf in rwork]
        fa, fb = arrays.to_pairs(xs.reshape(len(xs), d1, 4))
        for res, f, b, s in zip(c, (fa, fb, fa, fb), (basis, basis, cbasis, cbasis),
                                (pap, pbp, pam, pbm)):
            np.subtract(s, np.matmul(f, b, out=res), out=res)
        return _sup_values(*c[:4], work=(*r, *c[4:])).max(axis=1)

    scale = max(1.0, float(np.max(_sup_values(pap, pbp, pam, pbm))))

    x_trunc = np.zeros(dim)
    for n, a in project_plus(phi).coeffs.items():
        if n <= degree:
            x_trunc[4 * n: 4 * n + 4] = a.components()
    starts = [np.zeros(dim), x_trunc]
    while len(starts) < n_starts:
        starts.append(x_trunc + rng.normal(scale=0.25 * scale, size=dim))

    per_start = max(budget // n_starts, 2 * dim + 1)
    iterates: list[float] = []
    evaluations = 0
    global_best = math.inf
    best_x = starts[0]
    all_converged = True
    for x0 in starts:
        if evaluations >= budget:
            all_converged = False
            break
        x = x0.copy()
        screen.expand(x)
        fx = float(batch_objective(x[None])[0])
        evaluations += 1
        if fx < global_best:
            global_best, best_x = fx, x.copy()
        iterates.append(global_best)
        step = 0.5 * scale
        spent = 1
        converged = False
        while spent < per_start and evaluations < budget:
            if step < 1e-9 * scale:
                converged = True
                break
            take = min(2 * dim, per_start - spent, budget - evaluations)
            evaluations += take
            spent += take
            # probe i moves coordinate i mod dim by +step (i < dim) or -step
            top = np.argsort(screen(step, take))[: min(n_exact, take)]
            probes = np.repeat(x[None], len(top), axis=0)
            for k, i in enumerate(top):
                probes[k, i % dim] += step if i < dim else -step
            exact = batch_objective(probes)
            j = int(np.argmin(exact))
            if exact[j] < fx - 1e-15 * scale:
                x = probes[j]
                fx = float(exact[j])
                screen.expand(x)
            else:
                step *= 0.5
            if fx < global_best:
                global_best, best_x = fx, x.copy()
            iterates.append(global_best)
        if not converged and spent >= per_start and step >= 1e-9 * scale:
            all_converged = False

    coeffs = {}
    xr = best_x.reshape(d1, 4)
    for n in range(d1):
        q = Quaternion(*xr[n])
        if q.norm_sq() != 0.0:
            coeffs[n] = q
    return OptimizeResult(
        best_approx=SliceLaurentSeries(coeffs),
        distance=global_best,
        iterates=iterates,
        evaluations=evaluations,
        status="converged" if all_converged else "budget_exhausted",
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ApproximationReport:
    hankel_norm: float
    constructive_distance: float
    optimized_distance: float
    best_approx: SliceLaurentSeries
    residual_negative_mass: float
    truncation_N: int
    grid: int

    def check(self, tol: float = 1e-6) -> bool:
        """The always-true direction: the Hankel norm never exceeds the
        distance realized by any analytic competitor."""
        scale = max(1.0, self.hankel_norm)
        return (
            self.hankel_norm <= self.constructive_distance + tol * scale
            and self.hankel_norm <= self.optimized_distance + tol * scale
        )

    def to_text(self) -> str:
        lines = [
            f"hankel_norm: {self.hankel_norm!r}",
            f"constructive_distance: {self.constructive_distance!r}",
            f"optimized_distance: {self.optimized_distance!r}",
            f"residual_negative_mass: {self.residual_negative_mass!r}",
            f"truncation_N: {self.truncation_N}",
            f"grid: {self.grid}",
            "best_approx:",
        ]
        for line in dumps_series(self.best_approx).splitlines():
            lines.append("  " + line)
        return "\n".join(lines) + "\n"


def approximation_report(
    phi: SliceLaurentSeries,
    N: int,
    grid: int,
    degree: int,
    budget: int,
    seed: int = 0,
) -> ApproximationReport:
    hn = hankel_norm(phi, N)
    cons = constructive_best_approx(phi, N, grid)
    opt = optimize_distance(phi, degree, grid, budget, seed)
    best = cons.best_approx if cons.distance <= opt.distance else opt.best_approx
    return ApproximationReport(
        hankel_norm=hn,
        constructive_distance=cons.distance,
        optimized_distance=opt.distance,
        best_approx=best,
        residual_negative_mass=cons.residual_negative_mass,
        truncation_N=N,
        grid=grid,
    )


@dataclass
class NehariReport:
    gamma_norm: float
    hankel_norm: float
    constructive_distance: float
    optimized_distance: float
    distance: float
    sandwich_ok: bool
    equality_ok: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.sandwich_ok


def verify_nehari_bounds(
    alpha: Sequence[Quaternion],
    N: int,
    degree: int,
    grid: int,
    budget: int,
    seed: int = 0,
    tol: float = 2e-2,
) -> NehariReport:
    """Check d <= ||Gamma_alpha|| <= 2d for the associated symbol, with
    d = min(constructive, optimized) distance, and record whether the
    stronger norm-equals-distance identity holds within tolerance."""
    # the min(N, len(alpha)) block holds every nonzero entry of the N-truncation
    gamma = operator_norm(build_hankel_matrix(alpha, max(1, min(N, len(alpha)))))
    phi = SliceLaurentSeries(
        {-1 - m: a for m, a in enumerate(alpha) if a.norm_sq() != 0.0}
    )
    hn = hankel_norm(phi, N)
    cons = constructive_best_approx(phi, N, grid)
    opt = optimize_distance(phi, degree, grid, budget, seed)
    d = min(cons.distance, opt.distance)
    slack = 1e-12
    sandwich_ok = (
        d * (1.0 - tol) <= gamma + slack and gamma <= 2.0 * d * (1.0 + tol) + slack
    )
    equality_ok = abs(hn - d) <= tol * max(d, slack)
    return NehariReport(
        gamma_norm=gamma,
        hankel_norm=hn,
        constructive_distance=cons.distance,
        optimized_distance=opt.distance,
        distance=d,
        sandwich_ok=sandwich_ok,
        equality_ok=equality_ok,
        tol=tol,
    )
