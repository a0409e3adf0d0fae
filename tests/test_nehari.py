import math
import tracemalloc

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
    _ProbeScreen,
    approximation_report,
    constructive_best_approx,
    hankel_norm,
    maximizing_vector,
    optimize_distance,
    verify_nehari_bounds,
)
from slicehankel.quat import Quaternion
from slicehankel.series import (
    SliceLaurentSeries,
    _reference_samples,
    _sup_values,
    l2_norm,
    linf_norm,
)

ONE = Quaternion(1.0)


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
            padded = complex_embed(hankel_from_symbol(phi, N).matrix())
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
            _, _, vh = np.linalg.svd(complex_embed(hankel_from_symbol(phi, N).matrix()))
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


def screen_and_reference(phi, degree, x, step, take, grid=2048, stride=2):
    """The probe screen's values and _sup_values on the probes' coarse
    residuals built directly, as the optimizer lays its probes out."""
    d1, dim = degree + 1, 4 * (degree + 1)
    t = 2.0 * np.pi * np.arange(grid) / grid
    basis = np.exp(1j * np.outer(np.arange(d1), t))[:, ::stride]
    samples = [s[::stride] for s in _reference_samples(phi, grid)]
    screen = _ProbeScreen(basis, *samples)
    screen.expand(x)
    got = screen(step, take)
    probes = np.repeat(x[None], take, axis=0)
    for i in range(take):
        probes[i, i % dim] += step if i < dim else -step
    fa, fb = arrays.to_pairs(probes.reshape(take, d1, 4))
    ap, bp, am, bm = samples
    ref = _sup_values(ap - fa @ basis, bp - fb @ basis,
                      am - fa @ np.conj(basis), bm - fb @ np.conj(basis))
    return got, ref.max(axis=1)


class TestOptimizer:
    def test_probe_screen_matches_sup_values(self):
        rng = np.random.default_rng(57)
        for _ in range(12):
            coeffs = {-(m + 1): Quaternion(*rng.normal(size=4))
                      for m in range(int(rng.integers(1, 5)))}
            for pos in range(int(rng.integers(0, 3))):
                coeffs[pos] = Quaternion(*rng.normal(size=4))
            phi = SliceLaurentSeries(coeffs)
            degree = int(rng.integers(0, 7))
            dim = 4 * (degree + 1)
            scale = max(1.0, linf_norm(phi, 2048))
            x = rng.normal(scale=0.5 * scale, size=dim)
            for step in scale * np.array([0.5, 1e-2, 1e-5, 1e-9]):
                for take in (2 * dim, dim + 1, dim, 3):
                    got, ref = screen_and_reference(phi, degree, x, step, take)
                    assert got.shape == (take,)
                    assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_probe_screen_at_zero_residual(self):
        # x = the analytic symbol itself (the start of test_interpolation_case):
        # every coarse residual is zero, so each probe's residual is the probe
        # term alone and its sup is exactly the step.  The directly built
        # residuals carry the rounding of x +- step, up to an ulp of x per
        # coordinate, which swamps a relative bound at tiny steps.
        phi = SliceLaurentSeries({0: Quaternion(1, 2, 0, 1), 2: Quaternion(0.5)})
        x = np.zeros(16)
        x[0:4], x[8:12] = (1, 2, 0, 1), (0.5, 0, 0, 0)
        ulp = np.spacing(np.max(np.abs(x)))
        for step in (0.5, 1e-4, 1e-9):
            for take in (32, 17):
                got, ref = screen_and_reference(phi, 3, x, step, take, grid=512,
                                                stride=1)
                assert np.all(np.abs(got - step) <= 1e-12 * step)
                assert np.all(np.abs(got - ref) <= 1e-12 * ref + 4 * ulp)
        # one step off the fit, the probe back lands on a zero residual, where
        # the expanded moments cancel to rounding level and may go negative;
        # clamped, their sup stays finite and at the square root of rounding
        for d in range(16):
            for step in (0.5, 2.0**-20):
                off = x.copy()
                off[d] += step
                got, ref = screen_and_reference(phi, 3, off, step, 32, grid=512,
                                                stride=1)
                assert np.all(np.isfinite(got))
                assert ref[16 + d] == 0.0 and got[16 + d] <= 1e-7 * step
                others = np.arange(32) != 16 + d
                assert np.all(np.abs(got - ref)[others]
                              <= 1e-12 * ref[others] + 4 * ulp)

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


class TestReports:
    def test_report_text_has_field_keys(self):
        phi = SliceLaurentSeries({-1: ONE})
        report = approximation_report(phi, 16, 512, 2, 2000, seed=0)
        text = report.to_text()
        for key in (
            "hankel_norm", "constructive_distance", "optimized_distance",
            "best_approx", "residual_negative_mass", "truncation_N", "grid",
        ):
            assert key in text
        assert report.check()

    def test_report_for_analytic_symbol(self):
        phi = SliceLaurentSeries({1: Quaternion(2)})
        report = approximation_report(phi, 16, 512, 2, 2000, seed=0)
        assert report.hankel_norm == 0.0
        assert report.constructive_distance == 0.0
        assert report.check()

    def test_verify_rank_one(self):
        rep = verify_nehari_bounds([ONE], 16, 2, 512, 2000, seed=0)
        assert rep.gamma_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.distance == pytest.approx(1.0, abs=1e-6)
        assert rep.passed
        assert rep.equality_ok

    def test_verify_random_alpha(self):
        rng = np.random.default_rng(57)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        rep = verify_nehari_bounds(alpha, 32, 4, 1024, 4000, seed=3)
        assert rep.passed
        assert rep.equality_ok

    def test_verify_hilbert_sequence_below_pi(self):
        norms = []
        for n in (4, 8, 16):
            alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * n - 1)]
            norms.append(operator_norm(build_hankel_matrix(alpha, n)))
        assert all(v < math.pi for v in norms)
        assert norms == sorted(norms)
