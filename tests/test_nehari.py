import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicehankel import arrays, nehari
from slicehankel.hankel import (
    QuaternionMatrix,
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
    _half_samples,
    _plus_samples,
    _reversed,
    _sup_values,
    bmo_norm,
    conj_c,
    evaluate,
    l2_norm,
    linf_norm,
    load_series,
    project_minus,
    project_plus,
    recip_star_at,
    sphere_sup,
    star_mul,
    symmetrize,
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


def flat_symbol(rng, depth):
    """Random symbol with every coefficient n = -depth .. -1 nonzero."""
    return SliceLaurentSeries(
        {-n: Quaternion(*rng.normal(size=4)) for n in range(1, depth + 1)})


def harmonic_symbol(depth):
    """phi_hat(-n) = 1/n, n = 1 .. depth, the Hilbert matrix's symbol: its
    competitor's Taylor coefficients decay slowly."""
    return SliceLaurentSeries({-n: Quaternion(1.0 / n) for n in range(1, depth + 1)})


def competitor(phi, g):
    """(N, g^s) of the competitor N / g^s that the maximizing vector g fixes,
    by the exact star algebra: N = P_+(phi * g) * g^c and g^s = g * g^c."""
    return star_mul(project_plus(star_mul(phi, g)), conj_c(g)), symmetrize(g)


def residual_sup(phi, g, grid):
    """The sampled sup of |phi - N / g^s| for the competitor g fixes: N's
    pair samples divided by the samples of g^s, whose coefficients are real."""
    num, den = competitor(phi, g)
    r = _plus_samples(phi, grid)
    r -= _plus_samples(num, grid) / _plus_samples(den, grid)[0]
    return float(np.max(_sup_values(_half_samples(r))))


def assert_route_exact(phi, g, grid):
    """The route's samples of f g^s = phi g^s - h * g^c (its quotient holds
    h * g^c undivided at excluded points) and of g^s hold N and g^s of
    ``competitor`` in their FFT bins 0 .. deg, deg N = max(n_max, 0) +
    2 deg g and deg g^s = 2 deg g, and only rounding above."""
    num, den = competitor(phi, g)
    deg_s = 2 * int(g.exps.max())
    assert num.exps.max() <= max(int(phi.exps.max()), 0) + deg_s and den.exps.max() <= deg_s
    plus = _plus_samples(phi, grid)
    quot, gs, excl = _quotient_samples(plus, g, grid)
    want = np.zeros((2, grid), dtype=complex)
    want[:, num.exps] = arrays.to_pairs(num.rows)
    bins = np.fft.fft(plus * gs - np.where(excl, quot, quot * gs)) / grid
    assert np.max(np.abs(bins - want)) <= 1e-13 * max_abs(num)
    want = np.zeros(grid, dtype=complex)
    want[den.exps] = den.rows[:, 0]
    assert np.max(np.abs(np.fft.fft(gs) / grid - want)) <= 1e-14


def max_abs(f):
    """The largest coefficient component of f in modulus, 0 for f = 0."""
    return float(np.max(np.abs(f.rows), initial=0.0))


def padded_symbols(seed):
    """20 random symbols of depth 1..64, each paired with the N x N sections
    N = depth, depth + 1, 128 and 256."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(20):
        depth = int(rng.integers(1, 65))
        phi = deep_symbol(rng, depth)
        cases += [(phi, N) for N in (depth, depth + 1, 128, 256)]
    return cases


def random_unit(rng):
    v = rng.normal(size=4)
    return Quaternion(*(v / np.linalg.norm(v)))


def rational_symbol(lams, cs):
    """phi_hat(-n) = sum_i lam_i^(n-1) c_i for n = 1 .. K, K the depth at
    which max |lam_i|^K < 1e-19."""
    depth = math.ceil(-19.0 / math.log10(max(abs(lam) for lam in lams)))
    coeffs, terms = {}, list(cs)
    for n in range(1, depth + 1):
        coeffs[-n] = sum(terms, Quaternion())
        terms = [lam * t for lam, t in zip(lams, terms)]
    return SliceLaurentSeries(coeffs)


def _stein(c, a, b):
    """The quaternion G = c + a G b, by one 4 x 4 real solve."""
    op = np.array([(a * Quaternion(*e) * b).components() for e in np.eye(4)]).T
    return np.linalg.solve(np.eye(4) - op, c.components())


def rational_oracle(lams, cs):
    """||H_phi|| of the untruncated rational_symbol, with no Hankel matrix:
    Kronecker's H = U W, U_ji = lam_i^j and W_il = lam_i^l c_i, gives the
    r x r Gram matrices G_U = U^* U and G_W = W W^* entrywise by Stein
    equations, and sigma^2 are the eigenvalues of chi(G_W) chi(G_U)."""
    gu = [[_stein(ONE, la.conjugate(), lb) for lb in lams] for la in lams]
    gw = [[_stein(ca * cb.conjugate(), la, lb.conjugate()) for lb, cb in zip(lams, cs)]
          for la, ca in zip(lams, cs)]
    prod = complex_embed(QuaternionMatrix(gw)) @ complex_embed(QuaternionMatrix(gu))
    return math.sqrt(float(np.max(np.linalg.eigvals(prod).real)))


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda v: math.hypot(*v) >= 0.1).map(lambda v: np.array(v) / math.hypot(*v))


@st.composite
def _rational_terms(draw):
    """1-3 poles with moduli in disjoint bands, so no two terms cancel, and
    coefficients of modulus 0.5-2."""
    r = draw(st.integers(1, 3))
    lams = [Quaternion(*(draw(st.floats(0.1 + 0.25 * i, 0.3 + 0.25 * i))
                         * draw(_direction))) for i in range(r)]
    cs = [Quaternion(*(draw(st.floats(0.5, 2.0)) * draw(_direction)))
          for _ in range(r)]
    return lams, cs


class TestHankelNorm:
    def test_rank_one(self):
        c = Quaternion(1, -2, 2, 4)
        phi = SliceLaurentSeries({-1: c})
        assert hankel_norm(phi) == pytest.approx(abs(c), abs=1e-12)

    def test_analytic_symbol_is_zero(self):
        phi = SliceLaurentSeries({0: ONE, 3: Quaternion(0, 2, 0, 0)})
        assert hankel_norm(phi) == 0.0

    def test_golden_ratio(self):
        phi = SliceLaurentSeries({-1: ONE, -2: ONE})
        assert hankel_norm(phi) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_block_measured_by_depth(self):
        # one coefficient at depth 30: a block sized by the count of
        # coefficients would be 1 x 1 and zero, so the norm would read 0.0
        phi = SliceLaurentSeries({-30: ONE})
        assert hankel_norm(phi) == 1.0

    def test_block_matches_padded_oracle(self):
        for phi, N in padded_symbols(53):
            padded = complex_embed(hankel_from_symbol(phi, N))
            ref = float(np.linalg.svd(padded, compute_uv=False)[0])
            assert abs(hankel_norm(phi) - ref) <= 1e-12 * max(1.0, ref)

    def test_cost_independent_of_truncation(self):
        # the SVD runs on the 3 x 3 block of nonzero entries, never on a
        # padded section: the embedding of a 1024 x 1024 one alone is 64 MB
        phi = deep_symbol(np.random.default_rng(54), 3)
        tracemalloc.start()
        try:
            hankel_norm(phi)
            maximizing_vector(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestMaximizingVector:
    def test_rank_one_constant(self):
        phi = SliceLaurentSeries({-1: ONE})
        g = maximizing_vector(phi)
        assert g.support == (0,)
        assert abs(g.coefficient(0)) == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(apply_H(phi, g)) == pytest.approx(1.0, abs=1e-10)

    def test_attains_operator_norm(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            phi = random_symbol(rng)
            hn = hankel_norm(phi)
            g = maximizing_vector(phi)
            assert l2_norm(g) == pytest.approx(1.0, abs=1e-10)
            assert l2_norm(apply_H(phi, g)) >= hn * (1 - 1e-8)

    def test_right_gauge_preserves_achieved_norm(self):
        rng = np.random.default_rng(52)
        phi = random_symbol(rng)
        g = maximizing_vector(phi)
        u = random_unit(rng)
        assert l2_norm(apply_H(phi, g.times_right(u))) == pytest.approx(
            l2_norm(apply_H(phi, g)), abs=1e-13
        )

    def test_gauge_lowest_coefficient_real_positive(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            g = maximizing_vector(random_symbol(rng))
            lead = g.coefficient(g.n_min)
            assert lead.w > 0.0 and lead.imag_norm() == 0.0
        g = maximizing_vector(SliceLaurentSeries({-1: Quaternion(0.6, 0, 0.8, 0)}))
        assert g == SliceLaurentSeries({0: ONE})

    def test_matches_padded_singular_vector(self):
        for phi, N in padded_symbols(56):
            _, _, vh = np.linalg.svd(complex_embed(hankel_from_symbol(phi, N)))
            v = deembed_vector(np.conj(vh[0]))
            mags = np.sqrt(np.sum(np.square(v), axis=1))
            lead = v[np.argmax(mags > 1e-13 * np.max(mags))]
            v = arrays.mul(v, lead * np.array([1.0, -1.0, -1.0, -1.0]))
            v /= np.sqrt(np.sum(np.square(v)))
            g = maximizing_vector(phi)
            got = np.array([g.coefficient(n).components() for n in range(N)])
            assert np.max(np.abs(got - v)) <= 1e-9

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            maximizing_vector(SliceLaurentSeries({1: ONE}))

    def test_zero_band_rejected(self):
        # a Hankel norm of at most 1e-13 is a zero operator to the
        # constructive route, so no maximizing vector may be handed to it
        phi = SliceLaurentSeries({-1: Quaternion(0.0, 5e-14, 0.0, 0.0), 1: ONE})
        assert 1e-14 < hankel_norm(phi) <= 1e-13
        with pytest.raises(ValueError):
            maximizing_vector(phi)
        res = constructive_best_approx(phi, 16, 64)
        assert res.vector == SliceLaurentSeries()

    def test_deep_symbol_ritz_vector(self):
        # depth 300 is above the dense-SVD crossover, so g is the Lanczos
        # Ritz vector of hankel_norm in the same gauge as the dense branch
        phi = deep_symbol(np.random.default_rng(57), 300)
        hn = hankel_norm(phi)
        g = maximizing_vector(phi)
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
            g = maximizing_vector(phi)
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
        assert (res.zeros_in_disc, res.status) == (0, "ok")
        # g = 1, so the competitor N / g^s = P_+(phi) / 1 is 0
        assert competitor(phi, res.vector) == (SliceLaurentSeries(), SliceLaurentSeries({0: ONE}))

    @pytest.mark.parametrize("grid", [1040, 4096, 16384])
    def test_slow_decay_has_no_alias(self, grid):
        # phi_hat(-n) = 1/n, n = 1..256: the competitor's Taylor coefficients
        # decay slowly, but N / g^s has none to alias, from the grid rule's
        # minimum 1040 up; g^s has no zero in the closed disc
        res = constructive_best_approx(harmonic_symbol(256), None, grid)
        assert res.excluded_fraction == 0.0
        assert (res.zeros_in_disc, res.status) == (0, "ok")

    @pytest.mark.parametrize("name", ["depth3.txt", "rank_one.txt", "4", "7", "10"])
    def test_competitor_is_exact_rational(self, name):
        # the route returns the g it was given, and its samples of f g^s and
        # g^s hold N = P_+(phi * g) * g^c and g^s = g * g^c of the fsum star
        # products in their FFT bins, with only rounding above
        if name.endswith(".txt"):
            phi = load_series(GOLDEN / name)
        else:
            phi = deep_symbol(np.random.default_rng(64 + int(name)), int(name))
        g = maximizing_vector(phi)
        res = constructive_best_approx(phi, None, 4096, g)
        assert (res.zeros_in_disc, res.status) == (0, "ok")
        assert res.vector == g
        assert_route_exact(phi, g, 4096)

    @pytest.mark.parametrize("a, grid, zeros, status", [
        (-2.0, 4096, 2, "warning"), (-0.99, 4096, 0, "ok"), (-0.99, 64, 0, "warning")])
    def test_zeros_of_symmetrization(self, a, grid, zeros, status):
        # g = 1 + a q: g^s = (1 + a q)^2 has a double zero at -1/a.  At 1/2
        # the winding number counts both; at 1/0.99, outside the disc, none,
        # but on 64 points a phase step near t = 0 measured 2.8 > pi/2, so
        # the count is not resolved there.  The samples are exact in every case.
        phi = load_series(GOLDEN / "depth3.txt")
        g = SliceLaurentSeries({0: ONE, 1: Quaternion(a)})
        res = constructive_best_approx(phi, None, grid, g)
        assert (res.zeros_in_disc, res.excluded_fraction, res.status) == (zeros, 0.0, status)
        assert res.vector == g
        assert_route_exact(phi, g, grid)

    def test_zero_on_the_circle_warns(self):
        # g = 1 - q: the double zero of g^s at 1 sits on the grid point
        # t = 0, which is excluded, a pole of f on the circle; the samples
        # of f g^s stay exact
        phi = load_series(GOLDEN / "depth3.txt")
        g = SliceLaurentSeries({0: ONE, 1: Quaternion(-1.0)})
        res = constructive_best_approx(phi, None, 4096, g)
        assert res.status == "warning" and res.excluded_fraction > 0.0
        assert res.vector == g
        assert_route_exact(phi, g, 4096)

    def test_analytic_part_recovered(self):
        phi = SliceLaurentSeries({-1: ONE, 1: Quaternion(3)})
        res = constructive_best_approx(phi, 16, 512)
        assert res.distance == pytest.approx(1.0, abs=1e-6)
        assert competitor(phi, res.vector) == (SliceLaurentSeries({1: Quaternion(3)}),
                                               SliceLaurentSeries({0: ONE}))

    def test_route_without_g_runs_one_decomposition(self, monkeypatch):
        # g = None reads the zero test and g from one Schmidt pair: one
        # top_singular_pair, and no operator_norm for a separate Hankel norm
        calls = {"top_singular_pair": 0, "operator_norm": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(nehari, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(nehari, name, counted)
        constructive_best_approx(load_series(GOLDEN / "depth3.txt"), None, 4096)
        assert calls == {"top_singular_pair": 1, "operator_norm": 0}

    def test_route_runs_four_ffts(self, monkeypatch):
        # phi's and g's samples, and the forward and inverse FFT of phi * g
        # for h = P_-(phi * g): nothing converts the competitor back
        calls = []
        for name in ("fft", "ifft"):
            def counted(*args, _real=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        phi = load_series(GOLDEN / "depth3.txt")
        g = maximizing_vector(phi)
        for _ in range(2):
            constructive_best_approx(phi, None, 8192, g)
        assert len(calls) == 8

    def test_analytic_symbol_shortcut(self):
        phi = SliceLaurentSeries({0: ONE, 2: Quaternion(0, 1, 0, 0)})
        res = constructive_best_approx(phi, 16, 512)
        assert res.distance == 0.0
        # a zero operator's zero vector stands for the competitor P_+ phi
        assert res.vector == SliceLaurentSeries()
        # its path samples only phi's zero principal part, which the grid
        # rule holds, like every series, to grid >= 16
        for grid in (8, 0, -8):
            with pytest.raises(ValueError, match="too coarse"):
                constructive_best_approx(phi, None, grid)

    def test_distance_matches_hankel_norm(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            phi = random_symbol(rng)
            hn = hankel_norm(phi)
            res = constructive_best_approx(phi, 32, 2048)
            assert abs(res.distance - hn) <= 1e-2 * hn
            assert (res.zeros_in_disc, res.status) == (0, "ok")
            # the constructive residual is flat at hn: on a fine grid only
            # rounding separates its sampled sup from the Hankel norm
            fine = constructive_best_approx(phi, 32, 8192)
            assert abs(fine.distance - hn) <= 5e-14 * hn

    @pytest.mark.parametrize("depth, scale", [
        pytest.param(depth, scale, id=f"{depth}{suffix}")
        for suffix, scale in (("", 1.0), ("-tiny", 2.0 ** -60)) for depth in (1, 3, 40)])
    def test_quotient_samples_match_pointwise_oracle(self, depth, scale):
        # (h * g^{-*})(p) = h(p) g^{-*}(h(p)^{-1} p h(p)) at 16 grid points,
        # at e^{it} and, through the index reversal, at e^{-it}, with the
        # exact h = apply_H(phi, g) as oracle; the quotient is linear in phi,
        # so a tiny phi is no special case (it is scaled after
        # maximizing_vector, which refuses a Hankel norm below 1e-13)
        rng = np.random.default_rng(56)
        phi = deep_symbol(rng, depth)
        g = maximizing_vector(phi)
        phi = phi.times_right(Quaternion(scale))
        h = apply_H(phi, g)
        grid = 256
        corr, _, excl = _quotient_samples(_plus_samples(phi, grid), g, grid)
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

    def test_quotient_samples_refuse_negative_support(self):
        phi = deep_symbol(np.random.default_rng(59), 3)
        g = SliceLaurentSeries({-1: ONE, 0: ONE})
        with pytest.raises(ValueError, match="supported in n >= 0"):
            _quotient_samples(_plus_samples(phi, 256), g, 256)

    def test_quotient_samples_refuse_aliasing_g(self):
        # g of degree 130 on 256 points: phi * g would wrap its n >= 128
        # part into the n < 0 bins that P_- keeps
        phi = deep_symbol(np.random.default_rng(60), 3)
        g = SliceLaurentSeries({0: ONE, 130: ONE})
        with pytest.raises(ValueError, match="too coarse"):
            _quotient_samples(_plus_samples(phi, 256), g, 256)

    @pytest.mark.parametrize("depth, N, grid", [
        (3, 64, 4096), (16, 40, 8192), (64, 136, 8192),
        pytest.param(256, None, 1040, id="harmonic-256"),
        pytest.param(1024, None, 4112, id="harmonic-1024")])
    def test_best_approx_attains_distance(self, depth, N, grid):
        # the competitor is N / g^s exactly, with nothing truncated: its fine
        # sup measured within 1.1e-12 of the Hankel norm, also on the 1/n
        # symbol (N None) at the grid rule's minimum, where the Taylor
        # coefficients of N / g^s decay slowly
        if depth == 3:
            phi = load_series(GOLDEN / "depth3.txt")
        elif N is None:
            phi = harmonic_symbol(depth)
        else:
            phi = flat_symbol(np.random.default_rng(61 + depth), depth)
        hn = hankel_norm(phi)
        res = constructive_best_approx(phi, N, grid)
        assert (residual_sup(phi, res.vector, 2**18) - hn) / hn <= 1e-11

    @pytest.mark.parametrize("k", [-43, -44])
    def test_small_symbol_distance_equals_hankel_norm(self, k):
        # h = H_phi g is below 1e-12 everywhere on the circle at these scales
        phi = load_series(GOLDEN / "depth3.txt")
        phi = SliceLaurentSeries({n: a * 2.0 ** k for n, a in phi.coeffs.items()})
        hn = hankel_norm(phi)
        res = constructive_best_approx(phi, 64, 4096)
        assert abs(res.distance - hn) <= 1e-12 * hn

    def test_gauge_invariance(self):
        rng = np.random.default_rng(54)
        phi = random_symbol(rng)
        g = maximizing_vector(phi)
        base = constructive_best_approx(phi, 32, 1024, g=g)
        for _ in range(4):
            u = random_unit(rng)
            gauged = constructive_best_approx(phi, 32, 1024, g=g.times_right(u))
            assert abs(gauged.distance - base.distance) <= 1e-10
            # g u for a unit u leaves g^s and N = P_+(phi * g) * g^c as they are
            assert gauged.vector == g.times_right(u)
            for got, want in zip(competitor(phi, gauged.vector), competitor(phi, g)):
                assert max_abs(got - want) <= 1e-13


class TestRationalOracle:
    def check(self, lams, cs):
        phi = rational_symbol(lams, cs)
        oracle = rational_oracle(lams, cs)
        assert abs(hankel_norm(phi) - oracle) <= 1e-12 * oracle
        res = constructive_best_approx(phi, None, 4 * -phi.n_min + 16)
        assert abs(res.distance - oracle) <= 1e-12 * oracle

    def test_rank_one_closed_form(self):
        lam, c = Quaternion(0.3, -0.4, 0.2, 0.5), Quaternion(1.0, 2.0, 0.0, -1.0)
        oracle = rational_oracle([lam], [c])
        assert abs(oracle - abs(c) / (1.0 - abs(lam) ** 2)) <= 1e-15 * oracle

    @pytest.mark.parametrize("moduli", [(0.5, 0.9), (0.3, 0.7, 0.85)])
    def test_fixed_symbols(self, moduli):
        rng = np.random.default_rng(len(moduli))
        lams = [random_unit(rng) * Quaternion(m) for m in moduli]
        cs = [Quaternion(*rng.normal(size=4)) for _ in moduli]
        self.check(lams, cs)

    # derandomized: 1,500 random draws peaked at 7.1e-13 on the distance
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_rational_terms())
    def test_random_symbols(self, terms):
        self.check(*terms)


class TestOptimizer:
    def test_interpolation_case(self):
        phi = SliceLaurentSeries({0: Quaternion(1, 2, 0, 1), 2: Quaternion(0.5)})
        res = optimize_distance(phi, degree=3, grid=512, budget=5000)
        assert res.distance <= 1e-6

    def test_rank_one_optimum_is_zero(self):
        phi = SliceLaurentSeries({-1: ONE})
        res = optimize_distance(phi, degree=2, grid=512, budget=5000)
        assert res.distance == pytest.approx(1.0, abs=1e-3)

    def test_deterministic_and_monotone(self):
        rng = np.random.default_rng(55)
        phi = random_symbol(rng)
        a = optimize_distance(phi, degree=3, grid=512, budget=3000)
        b = optimize_distance(phi, degree=3, grid=512, budget=3000)
        assert a.distance == b.distance
        assert a.iterates == b.iterates
        for earlier, later in zip(a.iterates, a.iterates[1:]):
            assert later <= earlier

    def test_iterates_never_beat_hankel_norm(self):
        rng = np.random.default_rng(56)
        phi = random_symbol(rng)
        hn = hankel_norm(phi)
        res = optimize_distance(phi, degree=4, grid=1024, budget=4000)
        for it in res.iterates:
            assert hn <= it + 1e-6 * max(1.0, hn)

    def test_parameter_validation(self):
        phi = SliceLaurentSeries({-1: ONE})
        with pytest.raises(ValueError):
            optimize_distance(phi, degree=-1, grid=512, budget=100)
        with pytest.raises(ValueError):
            optimize_distance(phi, degree=1, grid=512, budget=0)
        for grid in (8, 0, -8):
            with pytest.raises(ValueError, match="too coarse"):
                optimize_distance(phi, degree=0, grid=grid, budget=100)


def criterion5_symbol(rng):
    """Negative depth 1-4 and 0-2 analytic coefficients, as in criterion 5
    and the nehari benchmark."""
    coeffs = {-(m + 1): Quaternion(*rng.normal(size=4))
              for m in range(int(rng.integers(1, 5)))}
    for pos in range(int(rng.integers(0, 3))):
        coeffs[pos] = Quaternion(*rng.normal(size=4))
    return SliceLaurentSeries(coeffs)


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
        samples = _half_samples(_plus_samples(phi, grid))
        half, full = half_and_symmetric_sets(grid)
        index = _hessian_index(degree)
        ws_half = _WorkingSet(samples, half, grid, degree, index)
        ws_full = _WorkingSet(samples, full, grid, degree, index)
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
        samples = _half_samples(_plus_samples(phi, grid))
        s = 1.5 * linf_norm(phi, grid)
        for idx in half_and_symmetric_sets(grid):
            ws = _WorkingSet(samples, idx, grid, degree, _hessian_index(degree))
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
        check = _HalfGrid(phi, grid, degree)
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


PINNED = Path(__file__).resolve().parent / "data" / "criterion5_pinned.json"


def pinned_values(seed=66, count=20):
    """The numbers of the nehari benchmark's calls on ``count`` seeded
    criterion-5 symbols, as floats: the optimizer's distance, lower bound and
    iterates, the constructive distance and excluded fraction, and the sup."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        phi = criterion5_symbol(rng)
        opt = optimize_distance(phi, 6, 8192, 20000)
        cons = constructive_best_approx(phi, None, 8192, maximizing_vector(phi))
        out.append({"distance": opt.distance, "lower_bound": opt.lower_bound,
                    "iterates": opt.iterates, "constructive": cons.distance,
                    "excluded_fraction": cons.excluded_fraction,
                    "linf_norm": linf_norm(phi, 8192)})
    return out


class TestBitIdentity:
    def test_values_pinned(self):
        # the values as recorded when the optimizer began solving for phi's
        # principal part from zero; a change that moves no operation and no
        # order leaves them equal to the bit (JSON floats round-trip exactly)
        assert pinned_values() == json.loads(PINNED.read_text())


class TestGridMemory:
    # tracemalloc peak of one call on depth3.txt at grid 8192 after a warm-up
    # call, as numpy caches FFT plans on first use: every grid-length array
    # is held once.  Measured 1.45, 1.31 and 0.52 MB; the copies they replace
    # took 2.34, 1.72 and 0.66 MB.
    @pytest.mark.parametrize("name, bound", [("optimize_distance", 1_600_000),
                                             ("constructive_best_approx", 1_440_000),
                                             ("linf_norm", 575_000)])
    def test_peak(self, name, bound):
        phi = load_series(GOLDEN / "depth3.txt")
        g = maximizing_vector(phi)
        call = {"optimize_distance": lambda: optimize_distance(phi, 6, 8192, 20000),
                "constructive_best_approx": lambda: constructive_best_approx(phi, None, 8192, g),
                "linf_norm": lambda: linf_norm(phi, 8192)}[name]
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


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
        assert hankel_norm(phi) <= res.distance + 1e-6

    def test_evaluations_pinned(self):
        # evaluations is a benchmark count: a faster Newton step must leave
        # it, and the status, as they were when these values were recorded
        rng = np.random.default_rng(63)
        want = [160, 164, 183, 243, 228, 202, 190, 78, 197, 211,
                219, 240, 241, 173, 191, 147, 78, 78, 148, 173]
        got = [optimize_distance(criterion5_symbol(rng), 6, 8192, 20000)
               for _ in range(20)]
        assert [r.evaluations for r in got] == want
        assert all(r.status == "converged" for r in got)

    def test_random_symbols_converge(self):
        rng = np.random.default_rng(58)
        for _ in range(12):
            phi = criterion5_symbol(rng)
            res = self.check_certified(phi, 6, 8192)
            assert all(hankel_norm(phi) <= it + 1e-6 for it in res.iterates)

    def test_small_budget_warm_up_call(self):
        phi = SliceLaurentSeries({-2: Quaternion(1.0, 0.5, 0.0, 0.0),
                                  0: Quaternion(0.0, 0.0, 1.0, 0.0)})
        res = optimize_distance(phi, 1, 64, 40)
        assert math.isfinite(res.distance)
        assert res.distance >= hankel_norm(phi) - 1e-6
        assert res.evaluations <= 40

    def test_budget_exhausted_keeps_best_iterate(self):
        phi = criterion5_symbol(np.random.default_rng(59))
        res = optimize_distance(phi, 6, 4096, 30)
        assert res.status == "budget_exhausted"
        assert res.evaluations <= 30
        assert res.distance == res.iterates[-1] == min(res.iterates)
        assert res.lower_bound <= res.distance

    def test_working_set_bound_stops_the_solve(self, monkeypatch):
        # the bound admits the 129-point start set at degree 6 (96 entries a
        # point) and stops the exchange before any set passes it
        entries = 96 * 140
        built = []

        class Recorded(_WorkingSet):
            def __init__(self, plus, idx, *rest):
                built.append(len(idx))
                super().__init__(plus, idx, *rest)

        monkeypatch.setattr(nehari, "_WS_ENTRIES", entries)
        monkeypatch.setattr(nehari, "_WorkingSet", Recorded)
        phi = load_series(GOLDEN / "depth3.txt")
        res = optimize_distance(phi, 6, 8192, 20000)
        assert res.status == "budget_exhausted"
        assert res.evaluations < 20000
        assert built and 96 * max(built) <= entries
        assert res.lower_bound <= res.distance == min(res.iterates)

    def test_analytic_polynomial_leaves_the_solve_unchanged(self):
        # phi and phi + p, p of degree <= 6, have one principal part, which
        # the solve runs on at its own scale: every result is equal to the
        # bit, but best_approx, to which p is added.  Neither p's size nor
        # its coefficients may set the tolerance or the start
        rng = np.random.default_rng(67)
        u = Quaternion(0, *rng.normal(size=3))
        for k, depth in ((-3, 1), (0, 4), (3, 3), (6, 2), (9, 2), (12, 4)):
            phi = SliceLaurentSeries({-(m + 1): Quaternion(*rng.normal(size=4))
                                      for m in range(depth)})
            p = SliceLaurentSeries({n: Quaternion(*(10.0 ** k * rng.normal(size=4)))
                                    for n in range(int(rng.integers(1, 8)))})
            if k == 9:  # the polynomial 1e9 (1 + u q)
                p = SliceLaurentSeries({0: Quaternion(1e9), 1: u * (1e9 / abs(u))})
            want = optimize_distance(phi, 6, 4096, 20000)
            got = optimize_distance(phi + p, 6, 4096, 20000)
            for name in ("distance", "lower_bound", "iterates", "evaluations", "status"):
                assert getattr(got, name) == getattr(want, name), (k, name)
            assert got.best_approx == p + want.best_approx
            assert got.status == "converged" and got.lower_bound > 0.0
            hn = hankel_norm(phi + p)
            assert hn <= got.distance <= hn * (1.0 + (1e-2 if k == 9 else 2e-2))

    def test_depth_one_optimum_is_analytic_part(self):
        # for c z^{-1} + f with f analytic of degree <= degree, f is the best
        # approximation and the distance is |c| = the Hankel norm
        rng = np.random.default_rng(60)
        for degree in (0, 2, 6):
            coeffs = {n: Quaternion(*rng.normal(size=4)) for n in range(degree + 1)}
            coeffs[-1] = Quaternion(*rng.normal(size=4))
            phi = SliceLaurentSeries(coeffs)
            hn = hankel_norm(phi)
            res = optimize_distance(phi, degree, 1024, 20000)
            assert abs(res.distance - hn) <= 1e-9 * hn

    def test_gap_shrinks_with_degree(self):
        rng = np.random.default_rng(61)
        phi = SliceLaurentSeries({-m: Quaternion(*rng.normal(size=4))
                                  for m in (1, 2, 3)})
        hn = hankel_norm(phi)
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


def sandwich_holds(rep):
    return all(measured <= bound for _, measured, bound in rep.sandwich())


def equality_holds(rep, tol=2e-2):
    """The stronger identity ||Gamma|| = d within relative tolerance tol."""
    return abs(rep.hankel_norm - rep.distance) <= tol * max(rep.distance, 1e-12)


class TestReports:
    def test_report_text_has_field_keys(self):
        phi = SliceLaurentSeries({-1: ONE})
        report = approximation_report(phi, 512, 2, 2000)
        keys = [line.split(":")[0] for line in report.to_text().splitlines()
                if not line.startswith(" ")]
        assert keys == [f.name for f in fields(ApproximationReport)]
        assert keys[:3] == ["hankel_norm", "constructive_distance", "optimized_distance"]
        assert keys[-2:] == ["maximizing_vector", "optimizer_polynomial"]
        assert report.check()

    def test_report_for_analytic_symbol(self):
        phi = SliceLaurentSeries({1: Quaternion(2)})
        report = approximation_report(phi, 512, 2, 2000)
        assert report.hankel_norm == 0.0
        assert report.constructive_distance == 0.0
        assert report.check()

    @pytest.mark.parametrize("phi", [
        SliceLaurentSeries({-1: Quaternion(1e-200), 0: ONE}),
        SliceLaurentSeries({-1: Quaternion(1e-300), 0: ONE}),
        SliceLaurentSeries({-2: Quaternion(3e-170, 1e-170), -1: Quaternion(1e-180, 0, 2e-175),
                            0: Quaternion(1, 0.5), 1: Quaternion(0, 0, 0.25)})])
    def test_tiny_residual_start_read_at_its_own_scale(self, phi):
        # the residual beside phi's analytic part would be lost to rounding
        # at phi's scale (its squares underflow, or FFT noise of 9.2e-17
        # reads above it); the solve runs on it alone, normalized, from the
        # zero polynomial, and is optimized and bounded like any symbol
        opt = optimize_distance(phi, 6, 4096, 20000)
        hn = hankel_norm(phi)
        assert opt.status == "converged"
        assert opt.lower_bound > 0.0
        assert hn <= opt.distance <= linf_norm(project_minus(phi), 4096)
        if len(project_minus(phi).exps) == 1:  # rank one: the distance is |c|
            assert opt.distance == pytest.approx(hn, rel=1e-12, abs=0.0)

    def test_tiny_symbol_distance_not_below_hankel_norm(self):
        # the sup formula has no fourth powers to underflow at size 1e-100,
        # so the realized distances stay above the Hankel norm
        phi = SliceLaurentSeries({-1: Quaternion(1e-100), -2: Quaternion(0, 0, 1e-100, 0)})
        report = approximation_report(phi, 512, 2, 2000)
        assert report.hankel_norm == pytest.approx((1 + math.sqrt(5)) / 2 * 1e-100,
                                                   rel=1e-12)
        assert report.constructive_distance >= report.hankel_norm
        assert report.optimized_distance >= report.hankel_norm

    def test_check_is_relative_at_small_scale(self):
        rep = verify_nehari_bounds([ONE], 2, 512, 2000)
        small = replace(rep, hankel_norm=1.3e-13, constructive_distance=1.2e-13,
                        optimized_distance=1.25e-13)
        assert not small.check()

    def test_verify_rank_one(self):
        rep = verify_nehari_bounds([ONE], 2, 512, 2000)
        assert rep.hankel_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.distance == pytest.approx(1.0, abs=1e-6)
        assert sandwich_holds(rep)
        assert equality_holds(rep)

    def test_sandwich_rows_fail_outside_the_bounds(self):
        rep = verify_nehari_bounds([ONE], 2, 512, 2000)
        for d, failing in ((1.1, "sandwich_lower"), (0.45, "sandwich_upper")):
            rows = replace(rep, constructive_distance=d, optimized_distance=d).sandwich()
            assert [check for check, m, b in rows if m > b] == [failing]

    def test_verify_random_alpha(self):
        rng = np.random.default_rng(57)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        rep = verify_nehari_bounds(alpha, 4, 1024, 4000)
        assert sandwich_holds(rep)
        assert equality_holds(rep)

    def test_verify_trailing_zero_alpha(self):
        # trailing zeros pad Gamma_alpha with zero rows and columns, which
        # leave its norm that of the block of nonzero entries
        rng = np.random.default_rng(58)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(2)] + [Quaternion()] * 2
        phi = SliceLaurentSeries({-1: alpha[0], -2: alpha[1]})
        rep = verify_nehari_bounds(alpha, 4, 1024, 4000)
        assert rep.hankel_norm == hankel_norm(phi)
        assert sandwich_holds(rep)

    def test_verify_hilbert_sequence_below_pi(self):
        norms = []
        for n in (4, 8, 16):
            alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * n - 1)]
            norms.append(operator_norm(build_hankel_matrix(alpha, n)))
        assert all(v < math.pi for v in norms)
        assert norms == sorted(norms)


def scaled(f, k):
    """f 2^k, exact while every component stays a normal double."""
    return SliceLaurentSeries({n: a * 2.0 ** k for n, a in f.coeffs.items()})


# components 0 or 2^-20 <= |c| <= 16: at 2^+-1000 every component, and
# every nonzero norm, stays a normal double
_component = st.one_of(st.just(0.0), st.floats(2.0 ** -20, 16.0),
                       st.floats(-16.0, -(2.0 ** -20)))
_symbol = st.dictionaries(
    st.integers(-6, 6), st.tuples(*[_component] * 4).map(lambda c: Quaternion(*c)),
    min_size=1, max_size=8).map(SliceLaurentSeries)


@pytest.fixture(scope="module")
def depth3_report():
    return approximation_report(load_series(GOLDEN / "depth3.txt"), 4096, 6, 20000)


def depth3_routes(k):
    """optimize_distance, and constructive_best_approx without and with g, on
    depth3.txt 2^k at grid 4096, degree 6."""
    phi = scaled(load_series(GOLDEN / "depth3.txt"), k)
    return [optimize_distance(phi, 6, 4096, 20000),
            constructive_best_approx(phi, None, 4096),
            constructive_best_approx(phi, None, 4096, maximizing_vector(phi))]


@pytest.fixture(scope="module")
def depth3_base():
    return depth3_routes(0)


class TestScaling:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_symbol, st.integers(-1000, 1000))
    def test_norms_scale_exactly(self, f, k):
        # phi -> phi 2^k is exact, so each norm must move by exactly 2^k
        g = scaled(f, k)
        assert linf_norm(g, 64) == linf_norm(f, 64) * 2.0 ** k
        assert bmo_norm(g, 64) == bmo_norm(f, 64) * 2.0 ** k
        assert hankel_norm(g) == hankel_norm(f) * 2.0 ** k
        assert l2_norm(g) == l2_norm(f) * 2.0 ** k
        n = int(f.exps.min(initial=0))
        assert (sphere_sup(g.coefficient(n), g.coefficient(n + 1))
                == sphere_sup(f.coefficient(n), f.coefficient(n + 1)) * 2.0 ** k)

    @pytest.mark.parametrize("norm", [linf_norm, bmo_norm, hankel_norm])
    def test_norm_above_the_double_range_is_refused(self, norm):
        # the normalized norm is finite, but 2^1023 times it is not: a
        # ValueError, never inf
        phi = SliceLaurentSeries({n: Quaternion(1e308) for n in (-1, -2, -3)})
        with pytest.raises(ValueError, match="above the double range"):
            norm(phi)

    @pytest.mark.parametrize("k", [600, -600])
    def test_lanczos_path_scales_exactly(self, k):
        # depth 200 runs Lanczos, whose np.linalg.norm squares overflow at
        # 2^600 and underflow at 2^-600 unless the symbol is normalized
        phi = flat_symbol(np.random.default_rng(71), 200)
        assert hankel_norm(scaled(phi, k)) == hankel_norm(phi) * 2.0 ** k
        assert maximizing_vector(scaled(phi, k)) == maximizing_vector(phi)

    def test_report_below_the_double_range_is_printed(self):
        # 1e308 at n = -1, -2: every reported number fits, while the
        # optimizer's first iterate, the sup at its start, does not
        phi = SliceLaurentSeries({n: Quaternion(1e308) for n in (-1, -2)})
        rep = approximation_report(phi, 4096, 6, 20000)
        assert rep.optimizer_status == "converged"
        assert rep.hankel_norm <= rep.distance < math.inf
        assert optimize_distance(phi, 6, 4096, 20000).iterates[0] == math.inf

    @pytest.mark.parametrize("k", [-1000, -600, -330, -46, -30, -10, 200, 260, 600, 1000])
    def test_report_scales_exactly(self, depth3_report, k):
        # the same converged solve at every scale: each number and the
        # optimizer's polynomial are 2^k times the k = 0 report, the unit
        # maximizing vector, counts and states equal
        rep = approximation_report(scaled(load_series(GOLDEN / "depth3.txt"), k),
                                   4096, 6, 20000)
        assert (rep.optimizer_status, rep.optimizer_evaluations) == ("converged", 197)
        for f in fields(rep):
            want, got = getattr(depth3_report, f.name), getattr(rep, f.name)
            if isinstance(want, float) and f.name != "excluded_fraction":
                want = want * 2.0 ** k
            elif f.name == "optimizer_polynomial":
                want = scaled(want, k)
            assert got == want, f.name

    @pytest.mark.parametrize("k", [600, -600, -60, 1000, -1000])
    def test_routines_scale_exactly(self, depth3_base, k):
        # each routine runs on the normalized symbol itself: every distance,
        # bound, iterate and optimizer polynomial is 2^k times the k = 0 one,
        # and the maximizing vector, counts and states are equal
        opt, *routes = depth3_base
        assert (opt.status, opt.evaluations) == ("converged", 197)
        assert [r.status for r in routes] == ["ok", "ok"]
        for want, got in zip(depth3_base, depth3_routes(k)):
            for f in fields(got):
                w, g = getattr(want, f.name), getattr(got, f.name)
                if f.name in ("distance", "lower_bound"):
                    w = w * 2.0 ** k
                elif f.name == "iterates":
                    w = [v * 2.0 ** k for v in w]
                elif f.name == "best_approx":
                    w = scaled(w, k)
                assert g == w, f.name
