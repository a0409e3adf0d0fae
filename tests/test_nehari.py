import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from slicehankel import arrays
from slicehankel.hankel import (
    apply_H,
    build_hankel_matrix,
    complex_embed,
    deembed_vector,
    hankel_from_symbol,
    operator_norm,
)
from slicehankel.nehari import (
    _C1,
    _C2,
    _KT,
    ApproximationReport,
    _HalfGrid,
    _hessian_index,
    _quotient_samples,
    _WorkingSet,
    approximation_report,
    constructive_best_approx,
    hankel_norm,
    maximizing_vector,
    optimize_distance,
    verify_nehari_bounds,
)
from slicehankel.quat import REFERENCE_UNIT, BoundaryPoint, Quaternion
from slicehankel.series import (
    SliceLaurentSeries,
    _plus_samples,
    _reversed,
    _sup_values,
    evaluate,
    l2_norm,
    linf_norm,
    load_series,
    recip_star_at,
)

ONE = Quaternion(1.0)
GOLDEN = Path(__file__).resolve().parent / "golden"


def random_symbol(rng, neg=3, pos=2):
    coeffs = {-1: Quaternion(*rng.normal(size=4))}
    for n in range(-neg, pos + 1):
        if n != -1 and rng.random() < 0.8:
            coeffs[n] = Quaternion(*rng.normal(size=4))
    return SliceLaurentSeries(coeffs)


def deep_symbol(rng, depth):
    """Random symbol with nonzero coefficients at -depth and -1."""
    coeffs = {n: Quaternion(*rng.normal(size=4))
              for n in range(-depth, 3) if rng.random() < 0.8}
    coeffs[-depth] = Quaternion(*rng.normal(size=4))
    coeffs[-1] = Quaternion(*rng.normal(size=4))
    return SliceLaurentSeries(coeffs)


def padded_symbols(seed):
    """20 random symbols of depth 1..64, each paired with every N in
    {128, 256} that passes the truncation guard."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(20):
        phi = deep_symbol(rng, int(rng.integers(1, 65)))
        cases += [(phi, N) for N in (128, 256) if N >= 2 * -phi.n_min + 8]
    return cases


def random_unit(rng):
    v = rng.normal(size=4)
    return Quaternion(*(v / np.linalg.norm(v)))


class TestHankelNorm:
    def test_rank_one(self):
        c = Quaternion(1, -2, 2, 4)
        phi = SliceLaurentSeries({-1: c})
        assert hankel_norm(phi, 16) == pytest.approx(abs(c), abs=1e-12)

    def test_analytic_symbol_is_zero(self):
        phi = SliceLaurentSeries({0: ONE, 3: Quaternion(0, 2, 0, 0)})
        assert hankel_norm(phi, 16) == 0.0

    def test_golden_ratio(self):
        phi = SliceLaurentSeries({-1: ONE, -2: ONE})
        assert hankel_norm(phi, 16) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_truncation_independent_for_finite_symbols(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            phi = random_symbol(rng)
            assert abs(hankel_norm(phi, 16) - hankel_norm(phi, 32)) <= 1e-12

    def test_truncation_guard(self):
        phi = SliceLaurentSeries({-n: ONE for n in range(1, 6)})
        with pytest.raises(ValueError):
            hankel_norm(phi, 10)

    def test_truncation_guard_measures_depth(self):
        # one coefficient at depth 30: a count-based guard let N = 10 through
        # and the truncated matrix was zero, so the norm read 0.0
        phi = SliceLaurentSeries({-30: ONE})
        for call in (
            lambda: hankel_norm(phi, 10),
            lambda: maximizing_vector(phi, 10),
            lambda: constructive_best_approx(phi, 10, 512),
        ):
            with pytest.raises(ValueError, match="below guard 68"):
                call()
        assert hankel_norm(phi, 68) == pytest.approx(1.0, abs=1e-12)

    def test_block_matches_padded_oracle(self):
        for phi, N in padded_symbols(53):
            padded = complex_embed(hankel_from_symbol(phi, N))
            ref = float(np.linalg.svd(padded, compute_uv=False)[0])
            assert abs(hankel_norm(phi, N) - ref) <= 1e-12 * max(1.0, ref)

    def test_cost_independent_of_truncation(self):
        # the SVD runs on the 3 x 3 block: a padded 2048 x 2048 complex
        # embedding alone would take 64 MB
        phi = deep_symbol(np.random.default_rng(54), 3)
        tracemalloc.start()
        try:
            hn = hankel_norm(phi, 1024)
            g = maximizing_vector(phi, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert hn == hankel_norm(phi, 16)
        assert g == maximizing_vector(phi, 16)


class TestMaximizingVector:
    def test_rank_one_constant(self):
        phi = SliceLaurentSeries({-1: ONE})
        g = maximizing_vector(phi, 16)
        assert g.support == (0,)
        assert abs(g.coefficient(0)) == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(apply_H(phi, g)) == pytest.approx(1.0, abs=1e-10)

    def test_attains_operator_norm(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            phi = random_symbol(rng)
            hn = hankel_norm(phi, 32)
            g = maximizing_vector(phi, 32)
            assert l2_norm(g) == pytest.approx(1.0, abs=1e-10)
            assert l2_norm(apply_H(phi, g)) >= hn * (1 - 1e-8)

    def test_right_gauge_preserves_achieved_norm(self):
        rng = np.random.default_rng(52)
        phi = random_symbol(rng)
        g = maximizing_vector(phi, 16)
        u = random_unit(rng)
        assert l2_norm(apply_H(phi, g.times_right(u))) == pytest.approx(
            l2_norm(apply_H(phi, g)), abs=1e-13
        )

    def test_gauge_lowest_coefficient_real_positive(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            g = maximizing_vector(random_symbol(rng), 16)
            lead = g.coefficient(g.n_min)
            assert lead.w > 0.0 and lead.imag_norm() == 0.0
        g = maximizing_vector(SliceLaurentSeries({-1: Quaternion(0.6, 0, 0.8, 0)}), 16)
        assert g == SliceLaurentSeries({0: ONE})

    def test_matches_padded_singular_vector(self):
        for phi, N in padded_symbols(56):
            _, _, vh = np.linalg.svd(complex_embed(hankel_from_symbol(phi, N)))
            v = deembed_vector(np.conj(vh[0]))
            mags = np.sqrt(np.sum(np.square(v), axis=1))
            lead = v[np.argmax(mags > 1e-13 * np.max(mags))]
            v = arrays.mul(v, lead * np.array([1.0, -1.0, -1.0, -1.0]))
            v /= np.sqrt(np.sum(np.square(v)))
            g = maximizing_vector(phi, N)
            got = np.array([g.coefficient(n).components() for n in range(N)])
            assert np.max(np.abs(got - v)) <= 1e-9

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            maximizing_vector(SliceLaurentSeries({1: ONE}), 16)

    def test_zero_band_rejected(self):
        # a Hankel norm of at most 1e-13 is a zero operator to the
        # constructive route, so no maximizing vector may be handed to it
        phi = SliceLaurentSeries({-1: Quaternion(0.0, 5e-14, 0.0, 0.0), 1: ONE})
        assert 1e-14 < hankel_norm(phi, 16) <= 1e-13
        with pytest.raises(ValueError):
            maximizing_vector(phi, 16)
        assert constructive_best_approx(phi, 16, 64).best_approx == SliceLaurentSeries({1: ONE})

    def test_deep_symbol_ritz_vector(self):
        # depth 300 is above the dense-SVD crossover, so g is the Lanczos
        # Ritz vector of hankel_norm in the same gauge as the dense branch
        phi = deep_symbol(np.random.default_rng(57), 300)
        N = 2 * 300 + 8
        hn = hankel_norm(phi, N)
        g = maximizing_vector(phi, N)
        assert abs(l2_norm(apply_H(phi, g)) - hn) <= 1e-10 * hn
        assert l2_norm(g) == pytest.approx(1.0, abs=1e-14)
        lead = g.coefficient(g.n_min)
        assert lead.w > 0.0 and lead.imag_norm() == 0.0
        _, _, vh = np.linalg.svd(complex_embed(hankel_from_symbol(phi, 300)))
        v = deembed_vector(np.conj(vh[0]))
        mags = np.sqrt(np.sum(np.square(v), axis=1))
        lead = v[np.argmax(mags > 1e-13 * np.max(mags))]
        v = arrays.mul(v, lead * np.array([1.0, -1.0, -1.0, -1.0]))
        v /= np.sqrt(np.sum(np.square(v)))
        got = np.array([g.coefficient(n).components() for n in range(300)])
        assert np.max(np.abs(got - v)) <= 1e-8

    def test_deep_symbol_memory(self):
        # the dense SVD of the 2048 x 2048 complex embedding needed 558 MB
        # RSS at depth 1024; Lanczos keeps a few dozen vectors of length 2048
        phi = deep_symbol(np.random.default_rng(58), 1024)
        tracemalloc.start()
        try:
            g = maximizing_vector(phi, 2 * 1024 + 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert l2_norm(g) == pytest.approx(1.0, abs=1e-14)


class TestConstructive:
    def test_rank_one_end_to_end(self):
        c = Quaternion(0.6, 0, 0.8, 0)
        phi = SliceLaurentSeries({-1: c})
        res = constructive_best_approx(phi, 16, 512)
        assert res.distance == pytest.approx(1.0, abs=1e-6)
        assert res.residual_negative_mass <= 1e-9
        assert res.status == "ok"
        assert linf_norm(res.best_approx, 512) <= 1e-6

    def test_analytic_part_recovered(self):
        phi = SliceLaurentSeries({-1: ONE, 1: Quaternion(3)})
        res = constructive_best_approx(phi, 16, 512)
        assert res.distance == pytest.approx(1.0, abs=1e-6)
        assert res.best_approx.coefficient(1).isclose(Quaternion(3), tol=1e-6)
        diff = res.best_approx - SliceLaurentSeries({1: Quaternion(3)})
        assert linf_norm(diff, 512) <= 1e-6

    def test_analytic_symbol_shortcut(self):
        phi = SliceLaurentSeries({0: ONE, 2: Quaternion(0, 1, 0, 0)})
        res = constructive_best_approx(phi, 16, 512)
        assert res.distance == 0.0
        assert res.best_approx == phi

    def test_distance_matches_hankel_norm(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            phi = random_symbol(rng)
            hn = hankel_norm(phi, 32)
            res = constructive_best_approx(phi, 32, 2048)
            assert abs(res.distance - hn) <= 1e-2 * hn
            assert res.residual_negative_mass <= 1e-3 * linf_norm(phi, 2048)
            # the constructive residual is flat at hn: on a fine grid only
            # rounding separates its sampled sup from the Hankel norm
            fine = constructive_best_approx(phi, 32, 8192)
            assert abs(fine.distance - hn) <= 5e-14 * hn

    @pytest.mark.parametrize("depth, scale", [
        pytest.param(depth, scale, id=f"{depth}{suffix}")
        for suffix, scale in (("", 1.0), ("-tiny", 2.0 ** -60)) for depth in (1, 3, 40)])
    def test_quotient_samples_match_pointwise_oracle(self, depth, scale):
        # (h * g^{-*})(p) = h(p) g^{-*}(h(p)^{-1} p h(p)) at 16 grid points,
        # at e^{it} and, through the index reversal, at e^{-it}; the quotient
        # is linear in h, so a tiny h is no special case
        rng = np.random.default_rng(56)
        phi = deep_symbol(rng, depth)
        g = maximizing_vector(phi, 2 * depth + 8)
        h = apply_H(phi, g).times_right(Quaternion(scale))
        grid = 256
        corr, excl = _quotient_samples(h, g, grid)
        assert not np.any(excl)
        for k in range(0, grid, grid // 16):
            for sign, j in ((1.0, k), (-1.0, -k % grid)):
                p = BoundaryPoint(REFERENCE_UNIT, sign * 2.0 * math.pi * k / grid)
                hv = evaluate(h, p)
                moved = hv.inverse() * p.to_quaternion() * hv
                want = hv * recip_star_at(
                    g, BoundaryPoint.from_quaternion(moved * (1.0 / abs(moved))))
                got = Quaternion(*arrays.from_pairs(*corr[:, j]))
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("k", [-43, -44])
    def test_small_symbol_distance_equals_hankel_norm(self, k):
        # h = H_phi g is below 1e-12 everywhere on the circle at these scales
        phi = load_series(GOLDEN / "depth3.txt")
        phi = SliceLaurentSeries({n: a * 2.0 ** k for n, a in phi.coeffs.items()})
        hn = hankel_norm(phi, 64)
        res = constructive_best_approx(phi, 64, 4096)
        assert abs(res.distance - hn) <= 1e-12 * hn

    def test_gauge_invariance(self):
        rng = np.random.default_rng(54)
        phi = random_symbol(rng)
        g = maximizing_vector(phi, 32)
        base = constructive_best_approx(phi, 32, 1024, g=g)
        for _ in range(4):
            gauged = constructive_best_approx(
                phi, 32, 1024, g=g.times_right(random_unit(rng))
            )
            assert abs(gauged.distance - base.distance) <= 1e-10


class TestOptimizer:
    def test_interpolation_case(self):
        phi = SliceLaurentSeries({0: Quaternion(1, 2, 0, 1), 2: Quaternion(0.5)})
        res = optimize_distance(phi, degree=3, grid=512, budget=5000, seed=0)
        assert res.distance <= 1e-6

    def test_rank_one_optimum_is_zero(self):
        phi = SliceLaurentSeries({-1: ONE})
        res = optimize_distance(phi, degree=2, grid=512, budget=5000, seed=0)
        assert res.distance == pytest.approx(1.0, abs=1e-3)

    def test_deterministic_and_monotone(self):
        rng = np.random.default_rng(55)
        phi = random_symbol(rng)
        a = optimize_distance(phi, degree=3, grid=512, budget=3000, seed=7)
        b = optimize_distance(phi, degree=3, grid=512, budget=3000, seed=7)
        assert a.distance == b.distance
        assert a.iterates == b.iterates
        for earlier, later in zip(a.iterates, a.iterates[1:]):
            assert later <= earlier

    def test_iterates_never_beat_hankel_norm(self):
        rng = np.random.default_rng(56)
        phi = random_symbol(rng)
        hn = hankel_norm(phi, 32)
        res = optimize_distance(phi, degree=4, grid=1024, budget=4000, seed=1)
        for it in res.iterates:
            assert hn <= it + 1e-6 * max(1.0, hn)

    def test_parameter_validation(self):
        phi = SliceLaurentSeries({-1: ONE})
        with pytest.raises(ValueError):
            optimize_distance(phi, degree=-1, grid=512, budget=100, seed=0)
        with pytest.raises(ValueError):
            optimize_distance(phi, degree=1, grid=512, budget=0, seed=0)


def criterion5_symbol(rng):
    """Negative depth 1-4 and 0-2 analytic coefficients, as in criterion 5
    and the nehari benchmark."""
    coeffs = {-(m + 1): Quaternion(*rng.normal(size=4))
              for m in range(int(rng.integers(1, 5)))}
    for pos in range(int(rng.integers(0, 3))):
        coeffs[pos] = Quaternion(*rng.normal(size=4))
    return SliceLaurentSeries(coeffs)


def roots_of_unity(grid):
    return np.exp((2j * np.pi / grid) * np.arange(grid))


def _mul22(a, b):
    """Pointwise product of 2 x 2 blocks stored as (4, W) entry arrays."""
    a, b = a.reshape(2, 2, -1), b.reshape(2, 2, -1)
    return (a[:, :1] * b[:1] + a[:, 1:] * b[1:]).reshape(4, -1)


def newton_step_reference(ws, point, tau, grid):
    """The Newton step as computed before the product tables: 2 x 2 blocks
    as (4, W) entry stacks, W21 and W22 from W11 = s S by _mul22, and one
    outer product per Hessian table over frequencies -degree .. 2 degree."""
    s, width, deg = point.s, len(ws.idx), ws.degree
    (ap, am), (bp, bm) = point.res.reshape(2, 2, width)
    im_p, r, a, b = 0.25 * point.d, 0.25 * point.e, point.a, point.b
    ks = np.arange(-deg, 2 * deg + 1)
    wepow = np.exp(1j * np.outer(ks, (2.0 * np.pi / grid) * ws.idx)) * ws.w
    we = wepow[deg:2 * deg + 1]
    m = np.stack([ap, bp, np.conj(bm), -np.conj(am)])
    mh = np.conj(m[[0, 2, 1, 3]])
    qc = ap * bm - am * bp
    sinv = np.stack([2.0 * (r - im_p) + a, qc, np.conj(qc),
                     2.0 * (r + im_p) + a]) / (a * b)
    w11 = s * sinv
    w21 = -_mul22(mh, sinv)
    w22 = -_mul22(w21, m)
    w22[::3] += 1.0
    w22 /= s
    d1, dim = deg + 1, 4 * deg + 4
    n = np.arange(d1)
    hx1 = (wepow @ (w21[:, None] * w21[None]).reshape(16, -1).T) @ _C1
    hx2 = (wepow @ (w11[:, None] * w22[None]).reshape(16, -1).T) @ _C2
    hxx = 2.0 * (hx1[n[:, None] + n + deg] + hx2[n[:, None] - n + deg]).real
    hess = np.empty((dim + 1, dim + 1))
    hess[1:, 1:] = hxx.reshape(d1, d1, 4, 4).transpose(0, 2, 1, 3).reshape(dim, dim)
    tr_k = ((we @ np.concatenate([w21, 2.0 * s * _mul22(w21, sinv)]).T)
            .reshape(d1, 2, 4) @ _KT).real
    ia, ib = 1.0 / a, 1.0 / b
    hess[0, 1:] = hess[1:, 0] = 2.0 * tr_k[:, 1].ravel()
    hess[0, 0] = (4.0 * s * s * (ia * ia + ib * ib) - 2.0 * (ia + ib)) @ ws.w
    grad = np.empty(dim + 1)
    grad[0] = tau - 2.0 * s * ((ia + ib) @ ws.w)
    grad[1:] = -2.0 * tr_k[:, 0].ravel()
    step = np.linalg.solve(hess, -grad)
    return step, float(-grad @ step)


def half_and_symmetric_sets(grid):
    half = np.arange(0, grid // 2 + 1, 5)
    return half, np.union1d(half, -half % grid)


class TestWorkingSet:
    @pytest.mark.parametrize("grid", [256, 251])
    def test_weighted_half_equals_full_symmetric_set(self, grid):
        # a half-grid point whose mirror is absent stands for both with
        # weight 2: the same barrier as the symmetric set, at half the points
        rng = np.random.default_rng(62)
        phi = criterion5_symbol(rng)
        degree = 6
        plus, roots = _plus_samples(phi, grid), roots_of_unity(grid)
        half, full = half_and_symmetric_sets(grid)
        index = _hessian_index(degree)
        ws_half = _WorkingSet(plus, half, roots, degree, index)
        ws_full = _WorkingSet(plus, full, roots, degree, index)
        assert ws_half.nu == ws_full.nu == 4 * len(full)
        x = 0.1 * rng.normal(size=4 * degree + 4)
        s = 1.5 * linf_norm(phi, grid)
        tau = ws_full.nu / s
        step_half, lam2_half = ws_half.newton_step(ws_half.point(s, x), tau)
        step_full, lam2_full = ws_full.newton_step(ws_full.point(s, x), tau)
        assert np.max(np.abs(step_half - step_full)) <= 1e-10 * np.max(np.abs(step_full))
        assert abs(lam2_half - lam2_full) <= 1e-10 * lam2_full

    @pytest.mark.parametrize("grid", [256, 251])
    @pytest.mark.parametrize("degree", [0, 1, 6, 12])
    def test_batched_step_matches_reference(self, grid, degree):
        rng = np.random.default_rng(64 + degree)
        phi = criterion5_symbol(rng)
        plus, roots = _plus_samples(phi, grid), roots_of_unity(grid)
        s = 1.5 * linf_norm(phi, grid)
        for idx in half_and_symmetric_sets(grid):
            ws = _WorkingSet(plus, idx, roots, degree, _hessian_index(degree))
            point = ws.point(s, 0.1 * rng.normal(size=4 * degree + 4))
            tau = ws.nu / s
            step, lam2 = ws.newton_step(point, tau)
            want, want_lam2 = newton_step_reference(ws, point, tau, grid)
            assert np.max(np.abs(step - want)) <= 1e-10 * np.max(np.abs(want))
            assert abs(lam2 - want_lam2) <= 1e-10 * want_lam2

    @pytest.mark.parametrize("grid", [250, 251, 256])
    @pytest.mark.parametrize("degree", [0, 6, 7, 16])
    def test_half_grid_check_matches_grid_samples(self, grid, degree):
        # the sup of |phi - f| at +-t_k, k <= grid / 2, equals the full-grid
        # sampler's value at those k, for the + and the - half alike; the FFT
        # length runs from 1 through divisors above the degree (with zero
        # rows above it, kept zero across calls) to the whole prime grid 251
        rng = np.random.default_rng(65)
        phi = criterion5_symbol(rng)
        check = _HalfGrid(_plus_samples(phi, grid), roots_of_unity(grid), degree)
        _, length, width = check.table.shape
        assert length * width == grid and length > degree
        for _ in range(3):
            x = rng.normal(size=4 * degree + 4)
            f = SliceLaurentSeries({n: Quaternion(*c) for n, c in enumerate(x.reshape(-1, 4))})
            got = check.sups(x)
            plus = _plus_samples(phi - f, grid)
            want = _sup_values(np.concatenate([plus, _reversed(plus)], axis=1))
            assert got.shape == (grid // 2 + 1,)
            assert np.max(np.abs(got - want[:grid // 2 + 1])) <= 1e-13 * np.max(want)
            # the sup is even in t: the values at -k are the same
            assert np.max(np.abs(got[1:] - want[:-(grid // 2 + 1):-1])) <= 1e-13 * np.max(want)


class TestBarrierSolver:
    def check_certified(self, phi, degree, grid):
        res = optimize_distance(phi, degree, grid, 20000)
        scale = max(1.0, linf_norm(phi, grid))
        assert res.status == "converged"
        assert res.lower_bound <= res.distance
        assert res.distance - res.lower_bound <= 1e-6 * scale
        # the distance is the exact fine-grid sup of the returned competitor
        exact = linf_norm(phi - res.best_approx, grid)
        assert abs(res.distance - exact) <= 1e-12 * exact
        assert res.evaluations <= 20000
        return res

    @pytest.mark.parametrize("name", ["depth3.txt", "rank_one.txt"])
    def test_golden_symbols_converge(self, name):
        phi = load_series(GOLDEN / name)
        res = self.check_certified(phi, 6, 4096)
        assert hankel_norm(phi, 64) <= res.distance + 1e-6

    def test_evaluations_pinned(self):
        # evaluations is a benchmark count: a faster Newton step must leave
        # it, and the status, as they were when these values were recorded
        rng = np.random.default_rng(63)
        want = [160, 164, 183, 243, 228, 202, 190, 78, 197, 211,
                219, 207, 241, 173, 191, 147, 78, 78, 148, 173]
        got = [optimize_distance(criterion5_symbol(rng), 6, 8192, 20000)
               for _ in range(20)]
        assert [r.evaluations for r in got] == want
        assert all(r.status == "converged" for r in got)

    def test_random_symbols_converge(self):
        rng = np.random.default_rng(58)
        for _ in range(12):
            phi = criterion5_symbol(rng)
            res = self.check_certified(phi, 6, 8192)
            assert all(hankel_norm(phi, 64) <= it + 1e-6 for it in res.iterates)

    def test_small_budget_warm_up_call(self):
        phi = SliceLaurentSeries({-2: Quaternion(1.0, 0.5, 0.0, 0.0),
                                  0: Quaternion(0.0, 0.0, 1.0, 0.0)})
        res = optimize_distance(phi, 1, 64, 40)
        assert math.isfinite(res.distance)
        assert res.distance >= hankel_norm(phi, 16) - 1e-6
        assert res.evaluations <= 40

    def test_budget_exhausted_keeps_best_iterate(self):
        phi = criterion5_symbol(np.random.default_rng(59))
        res = optimize_distance(phi, 6, 4096, 30)
        assert res.status == "budget_exhausted"
        assert res.evaluations <= 30
        assert res.distance == res.iterates[-1] == min(res.iterates)
        assert res.lower_bound <= res.distance

    def test_depth_one_optimum_is_analytic_part(self):
        # for c z^{-1} + f with f analytic of degree <= degree, f is the best
        # approximation and the distance is |c| = the Hankel norm
        rng = np.random.default_rng(60)
        for degree in (0, 2, 6):
            coeffs = {n: Quaternion(*rng.normal(size=4)) for n in range(degree + 1)}
            coeffs[-1] = Quaternion(*rng.normal(size=4))
            phi = SliceLaurentSeries(coeffs)
            hn = hankel_norm(phi, 16)
            res = optimize_distance(phi, degree, 1024, 20000)
            assert abs(res.distance - hn) <= 1e-9 * hn

    def test_gap_shrinks_with_degree(self):
        rng = np.random.default_rng(61)
        phi = SliceLaurentSeries({-m: Quaternion(*rng.normal(size=4))
                                  for m in (1, 2, 3)})
        hn = hankel_norm(phi, 16)
        scale = max(1.0, linf_norm(phi, 4096))
        dists = [optimize_distance(phi, degree, 4096, 20000).distance
                 for degree in (6, 12, 24)]
        assert dists[1] <= dists[0] + 1e-6 * scale
        assert dists[2] <= dists[1] + 1e-6 * scale
        assert dists[2] - hn <= (dists[0] - hn) / 10

    def test_grid_too_coarse_for_degree(self):
        phi = SliceLaurentSeries({-1: ONE})
        with pytest.raises(ValueError, match="need at least 136"):
            optimize_distance(phi, degree=30, grid=128, budget=100)
        optimize_distance(phi, degree=30, grid=136, budget=100)


def sandwich_holds(rep, tol=2e-2):
    return all(measured <= bound for _, measured, bound in rep.sandwich(tol))


def equality_holds(rep, tol=2e-2):
    """The stronger identity ||Gamma|| = d within relative tolerance tol."""
    return abs(rep.hankel_norm - rep.distance) <= tol * max(rep.distance, 1e-12)


class TestReports:
    def test_report_text_has_field_keys(self):
        phi = SliceLaurentSeries({-1: ONE})
        report = approximation_report(phi, 16, 512, 2, 2000)
        keys = [line.split(":")[0] for line in report.to_text().splitlines()
                if not line.startswith(" ")]
        assert keys == [f.name for f in fields(ApproximationReport)]
        assert keys[:3] == ["hankel_norm", "constructive_distance", "optimized_distance"]
        assert keys[-1] == "best_approx"
        assert report.check()

    def test_report_for_analytic_symbol(self):
        phi = SliceLaurentSeries({1: Quaternion(2)})
        report = approximation_report(phi, 16, 512, 2, 2000)
        assert report.hankel_norm == 0.0
        assert report.constructive_distance == 0.0
        assert report.check()

    def test_tiny_symbol_distance_not_below_hankel_norm(self):
        # the sup formula has no fourth powers to underflow at size 1e-100,
        # so the realized distances stay above the Hankel norm
        phi = SliceLaurentSeries({-1: Quaternion(1e-100), -2: Quaternion(0, 0, 1e-100, 0)})
        report = approximation_report(phi, 16, 512, 2, 2000)
        assert report.hankel_norm == pytest.approx((1 + math.sqrt(5)) / 2 * 1e-100,
                                                   rel=1e-12)
        assert report.constructive_distance >= report.hankel_norm
        assert report.optimized_distance >= report.hankel_norm

    def test_check_is_relative_at_small_scale(self):
        rep = verify_nehari_bounds([ONE], 16, 2, 512, 2000)
        small = replace(rep, hankel_norm=1.3e-13, constructive_distance=1.2e-13,
                        optimized_distance=1.25e-13)
        assert not small.check()

    def test_verify_rank_one(self):
        rep = verify_nehari_bounds([ONE], 16, 2, 512, 2000)
        assert rep.hankel_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.distance == pytest.approx(1.0, abs=1e-6)
        assert sandwich_holds(rep)
        assert equality_holds(rep)

    def test_sandwich_rows_fail_outside_the_bounds(self):
        rep = verify_nehari_bounds([ONE], 16, 2, 512, 2000)
        for d, failing in ((1.1, "sandwich_lower"), (0.45, "sandwich_upper")):
            rows = replace(rep, constructive_distance=d, optimized_distance=d).sandwich()
            assert [check for check, m, b in rows if m > b] == [failing]

    def test_verify_random_alpha(self):
        rng = np.random.default_rng(57)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        rep = verify_nehari_bounds(alpha, 32, 4, 1024, 4000)
        assert sandwich_holds(rep)
        assert equality_holds(rep)

    def test_verify_trailing_zero_alpha(self):
        # trailing zeros pad Gamma_alpha with zero rows and columns, which
        # leave its norm that of the block of nonzero entries
        rng = np.random.default_rng(58)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(2)] + [Quaternion()] * 2
        phi = SliceLaurentSeries({-1: alpha[0], -2: alpha[1]})
        rep = verify_nehari_bounds(alpha, 16, 4, 1024, 4000)
        assert rep.hankel_norm == hankel_norm(phi, 16)
        assert sandwich_holds(rep)

    def test_verify_hilbert_sequence_below_pi(self):
        norms = []
        for n in (4, 8, 16):
            alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * n - 1)]
            norms.append(operator_norm(build_hankel_matrix(alpha, n)))
        assert all(v < math.pi for v in norms)
        assert norms == sorted(norms)
