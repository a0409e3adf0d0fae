import math
import tracemalloc

import numpy as np
import pytest

from slicehankel import arrays
from slicehankel.quat import (
    REFERENCE_UNIT,
    BoundaryPoint,
    ImaginaryUnit,
    Quaternion,
    exp_unit,
    sample_sphere,
)
from slicehankel.series import (
    SliceLaurentSeries,
    _cos_sin,
    _half_samples,
    _plus_samples,
    _reversed,
    _sup_values,
    bmo_norm,
    conj_c,
    dumps_series,
    evaluate,
    extend_from_slice,
    l2_inner,
    l2_norm,
    linf_norm,
    loads_series,
    project_minus,
    project_plus,
    recip_star_at,
    sphere_sup,
    star_eval,
    star_mul,
    symmetrize,
)

ONE = Quaternion(1.0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)


def random_series(rng, lo=-4, hi=4, scale=1.0):
    return SliceLaurentSeries({
        n: Quaternion(*(scale * rng.normal(size=4)))
        for n in range(lo, hi + 1) if rng.random() < 0.8
    })


def linf_from_slice(f, unit, grid=512):
    """Sup norm recomputed from samples on an arbitrary slice: extract the
    pair with f(e^{tJ}) = a(t) + J b(t) and take the closed-form sphere sup."""
    jq = unit.as_quaternion()
    best = 0.0
    for k in range(grid):
        t = 2.0 * math.pi * k / grid
        fp = evaluate(f, BoundaryPoint(unit, t))
        fm = evaluate(f, BoundaryPoint(unit, -t))
        a = (fp + fm) * 0.5
        b = -1.0 * (jq * (fp - a))
        best = max(best, sphere_sup(a, b))
    return best


class TestEvaluate:
    def test_monomial_at_quarter_turn(self):
        f = SliceLaurentSeries({1: ONE})
        p = BoundaryPoint(REFERENCE_UNIT, math.pi / 2)
        assert evaluate(f, p).isclose(I, tol=1e-15)

    def test_cosine_combination(self):
        f = SliceLaurentSeries({-1: ONE, 1: ONE})
        for t in np.linspace(0, 2 * math.pi, 17):
            v = evaluate(f, BoundaryPoint(REFERENCE_UNIT, float(t)))
            assert v.isclose(Quaternion(2 * math.cos(t)), tol=1e-12)

    def test_constant(self):
        c = Quaternion(1, -2, 3, 4)
        f = SliceLaurentSeries.constant(c)
        rng = np.random.default_rng(0)
        p = BoundaryPoint(sample_sphere(rng), 1.234)
        assert evaluate(f, p) == c

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(5)
        f = random_series(rng)
        u = sample_sphere(rng)
        t = 0.77
        p = BoundaryPoint(u, t)
        expected = Quaternion()
        for n, a in f.coeffs.items():
            expected = expected + exp_unit(n * t, u) * a
        assert evaluate(f, p).isclose(expected, tol=1e-12)


class TestGridSamples:
    def test_matches_scalar_oracle_at_guard_edge(self):
        # support -(grid - 16)/4 .. (grid - 16)/4, the widest the grid guard
        # admits, on the reference slice and on a random one
        rng = np.random.default_rng(11)
        grid = 256
        edge = (grid - 16) // 4
        f = random_series(rng, -edge, edge)
        f = f + SliceLaurentSeries({-edge: ONE, edge: ONE})
        cos_part, sin_part = (arrays.from_pairs(*p)
                              for p in _cos_sin(_plus_samples(f, grid)))
        for unit in (REFERENCE_UNIT, sample_sphere(rng)):
            uq = np.array(unit.as_quaternion().components())
            got = cos_part + arrays.mul(uq, sin_part)
            want = np.array([
                evaluate(f, BoundaryPoint(unit, 2.0 * math.pi * k / grid)).components()
                for k in range(grid)])
            scale = np.max(np.sqrt(np.sum(want ** 2, axis=1)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("grid", [64, 63])
    def test_minus_rows_are_plus_rows_reversed(self, grid):
        # e^{-it_k} = e^{it_{-k}}: the - rows are the + rows at index -k mod
        # grid to the bit, and both rows match the scalar oracle
        rng = np.random.default_rng(13)
        f = random_series(rng, -7, 7)
        plus = _plus_samples(f, grid)
        minus = _reversed(plus)
        assert np.array_equal(minus, plus[:, -np.arange(grid) % grid])
        for sign, pairs in ((1.0, plus), (-1.0, minus)):
            want = np.array([
                evaluate(f, BoundaryPoint(REFERENCE_UNIT, sign * 2.0 * math.pi * k / grid))
                .components() for k in range(grid)])
            scale = np.max(np.sqrt(np.sum(want ** 2, axis=1)))
            assert np.max(np.abs(arrays.from_pairs(*pairs) - want)) <= 1e-12 * scale

    def test_aliasing_support_rejected(self):
        ok = SliceLaurentSeries({-8: ONE, 7: I})
        assert _plus_samples(ok, 16).shape == (2, 16)
        with pytest.raises(ValueError, match="aliases"):
            _plus_samples(SliceLaurentSeries({-8: ONE, 8: I}), 16)


class TestRepresentationFormula:
    def test_reproduces_monomial(self):
        sampler = lambda t: exp_unit(t, REFERENCE_UNIT)
        rng = np.random.default_rng(9)
        for _ in range(20):
            target = BoundaryPoint(sample_sphere(rng), float(rng.uniform(0, 2 * math.pi)))
            got = extend_from_slice(sampler, REFERENCE_UNIT, target)
            assert got.isclose(target.to_quaternion(), tol=1e-12)

    def test_same_slice_is_identity(self):
        rng = np.random.default_rng(10)
        f = random_series(rng)
        u = sample_sphere(rng)
        t = 1.9
        sampler = lambda s: evaluate(f, BoundaryPoint(u, s))
        got = extend_from_slice(sampler, u, BoundaryPoint(u, t))
        assert got.isclose(sampler(t), tol=1e-12)

    def test_extends_series_across_slices(self):
        rng = np.random.default_rng(11)
        f = random_series(rng)
        u = sample_sphere(rng)
        sampler = lambda s: evaluate(f, BoundaryPoint(u, s))
        for _ in range(20):
            target = BoundaryPoint(sample_sphere(rng), float(rng.uniform(0, 2 * math.pi)))
            got = extend_from_slice(sampler, u, target)
            assert got.isclose(evaluate(f, target), tol=1e-10)


class TestStarAlgebra:
    def test_convolution(self):
        f = SliceLaurentSeries({0: I, 1: J})
        g = SliceLaurentSeries({0: J, 1: I})
        prod = star_mul(f, g)
        # c0 = i*j = k; c1 = i*i + j*j = -2; c2 = j*i = -k
        assert prod.coefficient(0) == Quaternion(0, 0, 0, 1)
        assert prod.coefficient(1) == Quaternion(-2)
        assert prod.coefficient(2) == Quaternion(0, 0, 0, -1)

    def test_noncommutative(self):
        f = SliceLaurentSeries.constant(I)
        g = SliceLaurentSeries.constant(J)
        assert star_mul(f, g) != star_mul(g, f)

    def test_identity_and_zero(self):
        rng = np.random.default_rng(13)
        f = random_series(rng)
        one = SliceLaurentSeries.constant(ONE)
        assert star_mul(one, f) == f
        assert star_mul(f, one) == f
        assert star_mul(f, SliceLaurentSeries.zero()).is_zero()

    def test_conjugation_antihomomorphism_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            f = random_series(rng)
            g = random_series(rng)
            assert conj_c(star_mul(f, g)) == star_mul(conj_c(g), conj_c(f))

    def test_symmetrize_example(self):
        # f = 1 + q j: f^c = 1 - q j and f * f^c = 1 + q^2
        f = SliceLaurentSeries({0: ONE, 1: J})
        fs = symmetrize(f)
        assert fs == SliceLaurentSeries({0: ONE, 2: ONE})

    def test_symmetrize_is_real(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            fs = symmetrize(random_series(rng))
            for c in fs.coeffs.values():
                assert c.imag_norm() == 0.0

    def test_recip_star_of_monomial(self):
        # f = q: f^s = q^2, f^c = q, so the star-reciprocal is e^{-tI}
        f = SliceLaurentSeries({1: ONE})
        rng = np.random.default_rng(16)
        for _ in range(20):
            t = float(rng.uniform(0.1, 3.0))
            p = BoundaryPoint(sample_sphere(rng), t)
            got = recip_star_at(f, p)
            expected = exp_unit(-t, p.unit)
            assert got.isclose(expected, tol=1e-12)

    def test_recip_star_rejects_symmetrization_zero(self):
        # f = q - i has f^s = q^2 + 1, vanishing at e^{(pi/2)I}
        f = SliceLaurentSeries({0: -1.0 * I, 1: ONE})
        with pytest.raises(ValueError):
            recip_star_at(f, BoundaryPoint(REFERENCE_UNIT, math.pi / 2))

    def test_star_eval_matches_convolution(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            f = random_series(rng, -3, 3)
            g = random_series(rng, -3, 3)
            prod = star_mul(f, g)
            p = BoundaryPoint(sample_sphere(rng), float(rng.uniform(0, 2 * math.pi)))
            expected = evaluate(prod, p)
            got = star_eval(f, g, p)
            denom = max(abs(expected), 1.0)
            assert abs(got - expected) / denom < 1e-9

    def test_star_eval_zero_at_vanishing_point(self):
        f = SliceLaurentSeries({0: -1.0 * ONE, 1: ONE})  # q - 1, vanishes at 1
        g = SliceLaurentSeries({1: ONE})
        assert star_eval(f, g, BoundaryPoint(REFERENCE_UNIT, 0.0)) == Quaternion()


class TestL2Structure:
    def test_monomials_orthonormal(self):
        for n in range(-3, 4):
            for m in range(-3, 4):
                ip = l2_inner(
                    SliceLaurentSeries({n: ONE}), SliceLaurentSeries({m: ONE})
                )
                expected = ONE if n == m else Quaternion()
                assert ip == expected

    def test_pythagoras(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            f = random_series(rng)
            total = l2_norm(f) ** 2
            split = l2_norm(project_plus(f)) ** 2 + l2_norm(project_minus(f)) ** 2
            assert abs(total - split) <= 1e-14 * max(total, 1.0)

    def test_projections_orthogonal(self):
        rng = np.random.default_rng(20)
        f = random_series(rng)
        assert l2_inner(project_plus(f), project_minus(f)) == Quaternion()

    def test_l2_conjugation_invariance(self):
        rng = np.random.default_rng(21)
        f = random_series(rng)
        assert l2_norm(f) == l2_norm(conj_c(f))


class TestSupNorms:
    def test_sphere_sup_brute_force(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = Quaternion(*rng.normal(size=4))
            b = Quaternion(*rng.normal(size=4))
            closed = sphere_sup(a, b)
            best = 0.0
            for _ in range(2000):
                u = sample_sphere(rng)
                best = max(best, abs(a + u.as_quaternion() * b))
            assert best <= closed * (1 + 1e-12)
            assert closed == pytest.approx(best, rel=1e-2)

    def test_sup_values_is_bit_exact(self):
        def reference(res):
            width = res.shape[1] // 2
            ap, am = res[0, :width], res[0, width:]
            bp, bm = res[1, :width], res[1, width:]
            plus = np.abs(ap) ** 2 + np.abs(bp) ** 2
            minus = np.abs(am) ** 2 + np.abs(bm) ** 2
            d = minus - plus
            e = np.hypot(d, 2.0 * np.abs(ap * bm - am * bp))
            return np.sqrt((plus + minus + e) / 2)

        rng = np.random.default_rng(29)
        shape = (2, 2 * 300)
        res = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(_sup_values(res), reference(res))

    @pytest.mark.parametrize("grid", [250, 251, 256])
    def test_sup_values_even_in_t(self, grid):
        # swapping the + and - samples leaves the sup to the bit, so the
        # half grid k = 0 .. grid // 2 gives the full grid's max exactly
        rng = np.random.default_rng(31)
        for _ in range(10):
            f = random_series(rng, -7, 7)
            plus = _plus_samples(f, grid)
            full = _sup_values(np.concatenate([plus, _reversed(plus)], axis=1))
            assert np.array_equal(full, _reversed(full))
            half = _sup_values(_half_samples(plus))
            assert np.array_equal(half, full[:grid // 2 + 1])
            assert linf_norm(f, grid) == np.max(full)

    def test_linf_scales_exactly_by_powers_of_two(self):
        # no fourth powers of the samples: 2^e f stays clear of overflow and
        # underflow, and every step of the sup scales by 2^e to the bit
        rng = np.random.default_rng(32)
        for e in (200, -200, 300, -300):
            for _ in range(20):
                f = random_series(rng)
                scaled = SliceLaurentSeries(
                    {n: a * 2.0 ** e for n, a in f.coeffs.items()})
                assert linf_norm(scaled, 1024) == 2.0 ** e * linf_norm(f, 1024)

    def test_linf_of_constant_and_monomial(self):
        c = Quaternion(3, 0, 4, 0)
        assert linf_norm(SliceLaurentSeries.constant(c)) == pytest.approx(5.0)
        assert linf_norm(SliceLaurentSeries({5: ONE})) == pytest.approx(1.0)

    def test_linf_conjugation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_series(rng)
            a = linf_norm(f, 1024)
            b = linf_norm(conj_c(f), 1024)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)

    def test_linf_slice_independent(self):
        rng = np.random.default_rng(24)
        f = random_series(rng, -3, 3)
        ref = linf_norm(f, 512)
        for _ in range(8):
            other = linf_from_slice(f, sample_sphere(rng), 512)
            assert abs(other - ref) <= 1e-9 * max(ref, 1.0)

    def test_linf_memory_independent_of_support(self):
        # the FFT sampler holds a few grid-length arrays; a dense grid x
        # support phase matrix alone would take 65 MB here
        rng = np.random.default_rng(30)
        f = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(500)})
        tracemalloc.start()
        try:
            value = linf_norm(f, 2**13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert value > 0.0

    def test_grid_guard(self):
        f = SliceLaurentSeries({40: ONE})
        with pytest.raises(ValueError):
            linf_norm(f, 64)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(25)
        f = random_series(rng)
        g = random_series(rng)
        assert linf_norm(f + g, 1024) <= linf_norm(f, 1024) + linf_norm(g, 1024) + 1e-12


def bmo_norm_loop(f, n_units=64, n_arcs=8, grid=4096):
    """The window-by-window bmo_norm that the per-level code replaced."""
    rng = np.random.default_rng(0)
    units = [REFERENCE_UNIT] + [sample_sphere(rng) for _ in range(n_units)]
    dt = 2.0 * np.pi / grid
    cos_part, sin_part = (arrays.from_pairs(*p)
                          for p in _cos_sin(_plus_samples(f, grid)))
    best = 0.0
    for unit in units:
        vals = cos_part + arrays.mul(np.array(unit.as_quaternion().components()),
                                     sin_part)
        ext = np.concatenate([vals, vals[:1]], axis=0)
        for m in range(n_arcs + 1):
            npts = grid >> m
            if npts < 4:
                break
            length = npts * dt
            step = max(1, npts // 2)
            for start in range(0, grid, step):
                idx = (start + np.arange(npts + 1)) % grid
                window = ext[idx]
                mean = np.trapezoid(window, dx=dt, axis=0) / length
                dev = np.sqrt(np.sum((window - mean) ** 2, axis=1))
                osc = float(np.trapezoid(dev, dx=dt) / length)
                if osc > best:
                    best = osc
    return best


class TestBmo:
    @pytest.mark.parametrize("terms, n_units, n_arcs, grid", [
        (5, 3, 8, 1024),
        (50, 2, 6, 1000),
        (50, 0, 12, 4096),
        (5, 4, 3, 17),
    ])
    def test_matches_window_loop(self, terms, n_units, n_arcs, grid):
        rng = np.random.default_rng(29)
        f = SliceLaurentSeries(
            {n: Quaternion(*rng.normal(size=4)) for n in range(-terms // 2, terms - terms // 2)})
        got = bmo_norm(f, n_units=n_units, n_arcs=n_arcs, grid=grid)
        ref = bmo_norm_loop(f, n_units=n_units, n_arcs=n_arcs, grid=grid)
        assert abs(got - ref) <= 1e-14 * ref

    def test_constant_has_zero_oscillation(self):
        f = SliceLaurentSeries.constant(Quaternion(2, 1, -1, 3))
        assert bmo_norm(f, n_units=4, n_arcs=4, grid=256) <= 1e-12

    def test_bounded_by_twice_sup(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            f = random_series(rng, 0, 4)
            assert bmo_norm(f, n_units=4, n_arcs=6, grid=256) \
                <= 2.0 * linf_norm(f, 256) + 1e-9

    def test_positive_for_oscillating_function(self):
        f = SliceLaurentSeries({1: ONE})
        assert bmo_norm(f, n_units=2, n_arcs=4, grid=256) > 0.1

    def test_honours_n_arcs_beyond_eight(self, monkeypatch):
        f = random_series(np.random.default_rng(28), 0, 40)
        calls = []
        trapezoid = np.trapezoid

        def counting(*args, **kwargs):
            calls.append(1)
            return trapezoid(*args, **kwargs)

        monkeypatch.setattr(np, "trapezoid", counting)
        coarse = bmo_norm(f, n_units=0, n_arcs=8, grid=16384)
        coarse_calls = len(calls)
        fine = bmo_norm(f, n_units=0, n_arcs=12, grid=16384)
        assert fine >= coarse
        assert len(calls) - coarse_calls > coarse_calls


class TestSerialization:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(27)
        f = SliceLaurentSeries({
            -3: Quaternion(1 / 3, -2 / 7, 1e-300, 12345.678900001),
            0: Quaternion(*rng.normal(size=4)),
            9: Quaternion(0.1, 0.2, 0.3, 0.4),
        })
        g = loads_series(dumps_series(f))
        for n in set(f.coeffs) | set(g.coeffs):
            assert f.coefficient(n) == g.coefficient(n)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n1 1.0 0.0 0.0 0.0\n"
        f = loads_series(text)
        assert f == SliceLaurentSeries({1: ONE})

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            loads_series("1 1.0 0.0 0.0 0.0\n2 bogus 0 0 0\n")
        with pytest.raises(ValueError, match="line 1"):
            loads_series("1 2 3\n")

    def test_duplicate_exponent_rejected(self):
        # a second record for n = -1 must not replace the first silently
        with pytest.raises(ValueError, match="line 3: duplicate exponent -1"):
            loads_series("-1 1.0 0 0 0\n# again\n-1 5.0 0 0 0\n")
