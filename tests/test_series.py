import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# components 0 or 2^-20 .. 8 in modulus, so no square under- or overflows:
# properties below are not about the scale of a symbol
_component = st.floats(-8.0, 8.0).map(lambda x: x if abs(x) >= 2.0 ** -20 else 0.0)
_symbol = st.dictionaries(
    st.integers(-8, 8), st.builds(Quaternion, _component, _component, _component, _component),
    max_size=17,
).map(SliceLaurentSeries)
_unit = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda c: math.hypot(*c) >= 0.1).map(lambda c: Quaternion(*c) * (1.0 / math.hypot(*c)))


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
        plus = _plus_samples(f, grid)
        minus = _reversed(plus)
        cos_part = arrays.from_pairs(*(plus + minus) / 2)
        sin_part = arrays.from_pairs(*(plus - minus) / 2j)
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
        # the one grid rule, grid >= 4 max|n| + 16, at its edge: max|n| = 8
        ok = SliceLaurentSeries({-8: ONE, 7: I})
        assert _plus_samples(ok, 48).shape == (2, 48)
        with pytest.raises(ValueError, match="need at least 48"):
            _plus_samples(ok, 47)
        # a far coefficient counts though its norm_sq underflows to 0: it is
        # refused, not sampled as its alias n = 39 - 48
        tiny = ok + SliceLaurentSeries({39: Quaternion(1e-170)})
        with pytest.raises(ValueError, match="need at least 172"):
            _plus_samples(tiny, 48)
        # a stored zero is not placed: at index 49 mod 48 it would overwrite
        # the coefficient at n = 1
        f = SliceLaurentSeries({-8: ONE, 1: J})
        padded = f + SliceLaurentSeries({49: Quaternion()})
        assert np.array_equal(_plus_samples(padded, 48), _plus_samples(f, 48))


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

    def test_star_reciprocal_and_product_scale_exactly(self):
        # (f c)^-* = c^-1 f^-*, and f 2^-600 vanishes nowhere f does not:
        # both cutoffs read relative to the scale of f
        rng = np.random.default_rng(35)
        for _ in range(10):
            f, g = random_series(rng, -3, 3), random_series(rng, -3, 3)
            small = SliceLaurentSeries({n: a * 2.0 ** -600 for n, a in f.coeffs.items()})
            p = BoundaryPoint(sample_sphere(rng), float(rng.uniform(0, 2 * math.pi)))
            assert recip_star_at(small, p) == recip_star_at(f, p) * 2.0 ** 600
            assert star_eval(small, g, p) == star_eval(f, g, p) * 2.0 ** -600

    @pytest.mark.parametrize("angle", [5e-13, 5e-15])
    def test_star_eval_near_real_point(self, angle):
        # f(p)^-1 p f(p) has an imaginary part of about the angle, which
        # must read as real rather than reach ImaginaryUnit
        f = SliceLaurentSeries({1: ONE + 0.5 * J})
        g = SliceLaurentSeries({2: I})
        p = BoundaryPoint(ImaginaryUnit(0.0, 1.0, 0.0), angle)
        assert abs(star_eval(f, g, p) - evaluate(star_mul(f, g), p)) <= 1e-11

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

    def test_inner_product_conjugate_symmetric_to_the_bit(self):
        # <g, f> holds the products of <f, g> with the imaginary ones negated,
        # and fsum rounds their exact sum once, so conjugation is exact
        def qbits(q):
            return np.array(q.components()).view(np.int64).tolist()

        rng = np.random.default_rng(23)
        for _ in range(50):
            f, g = random_series(rng), random_series(rng)
            assert qbits(l2_inner(f, g)) == qbits(l2_inner(g, f).conjugate())
            squares = math.fsum((f.rows.ravel() ** 2).tolist())
            assert qbits(l2_inner(f, f)) == qbits(Quaternion(squares, 0.0, 0.0, 0.0))


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
            # the buffer form writes every entry of out, bit for bit the same
            buf = np.full((2, 2 * (grid // 2 + 1)), np.nan, dtype=complex)
            assert _half_samples(plus, out=buf) is buf
            assert buf.tobytes() == _half_samples(plus).tobytes()
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
        # support phase matrix alone would take 65 MB here.  Measured 545,186
        # bytes after a warm-up call, as numpy caches FFT plans on first use
        rng = np.random.default_rng(30)
        f = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(500)})
        linf_norm(f, 2**13)
        tracemalloc.start()
        try:
            value = linf_norm(f, 2**13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 595_000
        assert value > 0.0

    def test_grid_guard(self):
        f = SliceLaurentSeries({40: ONE})
        for norm in (linf_norm, bmo_norm):
            with pytest.raises(ValueError):
                norm(f, 64)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(25)
        f = random_series(rng)
        g = random_series(rng)
        assert linf_norm(f + g, 1024) <= linf_norm(f, 1024) + linf_norm(g, 1024) + 1e-12


def bmo_arcs(grid):
    """Index windows of the arcs bmo_norm scans: every dyadic length
    grid >> m of at least 4 grid steps, at every start, wrapping."""
    npts = grid
    while npts >= 4:
        for start in range(grid):
            yield (start + np.arange(npts)) % grid
        npts //= 2


def slice_samples(f, unit, idx, grid):
    return np.array([evaluate(f, BoundaryPoint(unit, 2.0 * math.pi * k / grid)).components()
                     for k in idx])


def mean_oscillation(vals):
    """mean |f - f_I|^2 over the (npts, 4) samples of one arc."""
    return float(np.mean(np.sum((vals - vals.mean(axis=0)) ** 2, axis=1)))


def bmo_brute_force(f, grid):
    """Max over bmo_norm's arcs of the L2 oscillation on each arc's
    maximizing slice J* = v/|v|, v = mean_I Im(C~ conj S~), where
    f(e^{tJ}) = C + J S and ~ centres on the arc; all values from evaluate."""
    idx = np.arange(grid)
    fp = slice_samples(f, REFERENCE_UNIT, idx, grid)
    fm = slice_samples(f, REFERENCE_UNIT, -idx, grid)
    cos_part = (fp + fm) / 2
    sin_part = arrays.mul(np.array([0.0, -1.0, 0.0, 0.0]), (fp - fm) / 2)
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    best = 0.0
    for arc in bmo_arcs(grid):
        c = cos_part[arc] - cos_part[arc].mean(axis=0)
        s = sin_part[arc] - sin_part[arc].mean(axis=0)
        v = arrays.mul(c, s * conj).mean(axis=0)[1:]
        size = np.linalg.norm(v)
        unit = ImaginaryUnit(*(v / size)) if size > 0.0 else REFERENCE_UNIT
        best = max(best, mean_oscillation(slice_samples(f, unit, arc, grid)))
    return math.sqrt(best)


_BMO_SYMBOLS = {
    "five-terms": lambda rng: SliceLaurentSeries(
        {n: Quaternion(*rng.normal(size=4)) for n in range(-2, 3)}),
    "laurent": lambda rng: random_series(rng, -4, 4),
    "analytic": lambda rng: random_series(rng, 0, 11, scale=3.0),
}


class TestBmo:
    # grid 25: the five-term support -2..2 needs grid >= 24; arcs of 25, 12, 6
    @pytest.mark.parametrize("symbol, grid", [
        (symbol, grid) for symbol in sorted(_BMO_SYMBOLS) for grid in (64, 63)
    ] + [("five-terms", 25)])
    def test_matches_brute_force_oracle(self, symbol, grid):
        f = _BMO_SYMBOLS[symbol](np.random.default_rng(29))
        ref = bmo_brute_force(f, grid)
        assert abs(bmo_norm(f, grid) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("grid", [64, 63])
    def test_random_slices_stay_below(self, grid):
        rng = np.random.default_rng(31)
        f = random_series(rng, -5, 5)
        value = bmo_norm(f, grid)
        for _ in range(50):
            vals = slice_samples(f, sample_sphere(rng), range(grid), grid)
            osc = max(mean_oscillation(vals[arc]) for arc in bmo_arcs(grid))
            assert math.sqrt(osc) <= value * (1 + 1e-12)

    def test_constant_shift_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            f = random_series(rng)
            c = SliceLaurentSeries.constant(Quaternion(*rng.normal(size=4)))
            assert bmo_norm(f + c, 256) == bmo_norm(f, 256)

    def test_scales_exactly_by_powers_of_two(self):
        # the squares of 2^600 overflow and those of 2^-600 underflow
        f = random_series(np.random.default_rng(33))
        for e in (300, -300, 600, -600):
            scaled = SliceLaurentSeries(
                {n: a * 2.0 ** e for n, a in f.coeffs.items()})
            assert bmo_norm(scaled, 1024) == 2.0 ** e * bmo_norm(f, 1024)

    def test_subnormal_component_beside_larger_is_accepted(self):
        # a product with a unit leaves subnormal parts, which scaling by 2^-1
        # rounds to zero; the coefficient keeps its larger parts and stays
        f = SliceLaurentSeries({2: Quaternion(-1e-323, -2.0, -5e-324, 1.0)})
        g = SliceLaurentSeries({2: Quaternion(0.0, -2.0, 0.0, 1.0)})
        assert bmo_norm(f, 64) == bmo_norm(g, 64)
        assert linf_norm(f, 64) == linf_norm(g, 64)

    def test_finite_where_squares_overflow(self):
        f = random_series(np.random.default_rng(34))
        big = SliceLaurentSeries({n: a * 2.0 ** 600 for n, a in f.coeffs.items()})
        value = bmo_norm(big, 256)
        assert math.isfinite(value)
        assert value == 2.0 ** 600 * bmo_norm(f, 256)

    def test_memory_independent_of_support(self):
        # prefix sums over one period and one buffer of arc means: 2.45-2.58
        # MB measured (the higher on a first FFT of this length); prefix sums
        # over two periods took 6.0 MB
        rng = np.random.default_rng(30)
        f = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(500)})
        tracemalloc.start()
        try:
            value = bmo_norm(f, 2**13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_800_000
        assert value > 0.0

    def test_constant_has_zero_oscillation(self):
        f = SliceLaurentSeries.constant(Quaternion(2, 1, -1, 3))
        assert bmo_norm(f, grid=256) <= 1e-12

    def test_bounded_by_twice_sup(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            f = random_series(rng, 0, 4)
            assert bmo_norm(f, grid=256) <= 2.0 * linf_norm(f, 256) + 1e-9

    def test_positive_for_oscillating_function(self):
        f = SliceLaurentSeries({1: ONE})
        assert bmo_norm(f, grid=256) > 0.1

    @settings(max_examples=60, deadline=None)
    @given(_symbol, st.integers(64, 256), _unit)
    def test_below_linf_and_unit_invariant(self, f, grid, u):
        # a mean of |f_J|^2 over grid points is at most the grid's sphere sup
        # squared (up to the rounding of the means: a monomial's bmo and linf
        # are equal); |f_J u| = |f_J| and (f u)_I = f_I u on every slice J
        value = bmo_norm(f, grid)
        assert value <= linf_norm(f, grid) * (1 + 1e-12)
        assert abs(bmo_norm(f.times_right(u), grid) - value) <= 1e-12 * value


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


# components mixing signed zeros, subnormals and normals, so that a row can
# be all zero, all -0.0, or differ from another only in the sign of a zero
_EDGE_COMPONENTS = np.array([0.0, -0.0, 5e-324, -1e-310, 1.0, -2.5, 1e300])


def edge_series(rng, lo=-5, hi=5):
    return SliceLaurentSeries({
        n: Quaternion(*rng.choice(_EDGE_COMPONENTS, size=4))
        for n in range(lo, hi + 1) if rng.random() < 0.7
    })


def bits(f):
    """f's exponents and its components' bit patterns: -0.0 and 0.0 differ."""
    return f.exps.tolist(), f.rows.view(np.int64).tolist()


def expected_bits(coeffs):
    """bits() of a series holding the per-coefficient results coeffs, with
    the all-zero ones left out, as a series leaves them out."""
    kept = sorted((n, a.components()) for n, a in coeffs.items() if any(a.components()))
    rows = np.array([c for _, c in kept], dtype=float).reshape(-1, 4)
    return [n for n, _ in kept], rows.view(np.int64).tolist()


class TestArrayStore:
    def test_operations_match_per_coefficient_arithmetic(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            f, g = edge_series(rng), edge_series(rng, -3, 8)
            c = Quaternion(*rng.choice(_EDGE_COMPONENTS[:6], size=4))
            joint = set(f.support) | set(g.support)
            cases = [
                (f + g, {n: f.coefficient(n) + g.coefficient(n) for n in joint}),
                (f - g, {n: f.coefficient(n) - g.coefficient(n) for n in joint}),
                (-f, {n: -a for n, a in f.coeffs.items()}),
                (f.times_right(c), {n: a * c for n, a in f.coeffs.items()}),
                (f.shifted(-3), {n - 3: a for n, a in f.coeffs.items()}),
                (conj_c(f), {n: a.conjugate() for n, a in f.coeffs.items()}),
                (project_plus(f), {n: a for n, a in f.coeffs.items() if n >= 0}),
                (project_minus(f), {n: a for n, a in f.coeffs.items() if n < 0}),
            ]
            for got, coeffs in cases:
                assert bits(got) == expected_bits(coeffs)
            assert (f - f).is_zero() and (f + -f).is_zero()

    def test_zero_rows_dropped(self):
        f = SliceLaurentSeries({0: Quaternion(-0.0, -0.0, -0.0, -0.0), 1: Quaternion(),
                                2: Quaternion(0.0, -0.0, 0.0, 5e-324)})
        assert f.support == (2,)
        rows = np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, 0.0, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0]])
        g = SliceLaurentSeries.from_rows([-4, 0, 6], rows)
        assert g.support == (6,) and bits(g)[1] == rows[2:].view(np.int64).tolist()

    def test_store_rejects_writes(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0]])
        f = SliceLaurentSeries.from_rows([3], rows)
        rows[0, 0] = 9.0  # from_rows copies its input
        assert f.coefficient(3) == Quaternion(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(ValueError):
            f.exps[0] = 4
        with pytest.raises(ValueError):
            f.rows[0, 0] = 5.0
        with pytest.raises(TypeError):
            f.coeffs[3] = ONE
        assert f == SliceLaurentSeries({3: Quaternion(1.0, 2.0, 3.0, 4.0)})

    def test_sign_of_zero_equal_and_same_hash(self):
        f = SliceLaurentSeries({1: Quaternion(1.0, 0.0, -0.0, 2.0)})
        g = SliceLaurentSeries({1: Quaternion(1.0, -0.0, 0.0, 2.0)})
        assert bits(f) != bits(g)
        assert f == g and hash(f) == hash(g)

    def test_repr_pinned(self):
        # the benchmark's input digest hashes this text
        f = SliceLaurentSeries({3: Quaternion(0.1, -0.0, 2.5e-300, 1e300),
                                -2: Quaternion(-1.0),
                                0: Quaternion(0.0, 0.0, -0.0, 5e-324),
                                7: Quaternion(-0.0, -0.0, 0.0, 0.0)})
        assert repr(f) == (
            "SliceLaurentSeries({-2: Quaternion(-1.0, 0.0, 0.0, 0.0), "
            "0: Quaternion(0.0, 0.0, -0.0, 5e-324), "
            "3: Quaternion(0.1, -0.0, 2.5e-300, 1e+300)})")

    def test_exponent_range(self):
        edge = 2**62
        assert SliceLaurentSeries({edge - 1: ONE, 1 - edge: ONE}).support == (1 - edge, edge - 1)
        for n in (edge, -edge, 10**29):
            with pytest.raises(ValueError, match=f"exponent {n} outside"):
                SliceLaurentSeries({n: ONE})

    def test_from_rows_refuses_exponent_beyond_range(self):
        # the mapping constructor's rule, also for a row it would drop as zero
        edge = 2**62
        row = [[1.0, 0.0, 0.0, 0.0]]
        assert SliceLaurentSeries.from_rows([edge - 1], row).support == (edge - 1,)
        # Python ints past int64 too, which numpy cannot convert
        for n in (edge + 5, -edge, np.iinfo(np.int64).min, 10**29, -10**29):
            for rows in (row, [[0.0] * 4]):
                with pytest.raises(ValueError, match=f"exponent {n} outside"):
                    SliceLaurentSeries.from_rows([n], rows)

    def test_shift_refuses_exponent_beyond_range(self):
        # n + k is checked before the int64 add, which would wrap past 2^63
        edge = 2**62
        assert SliceLaurentSeries({edge - 1: ONE, 0: ONE}).shifted(1 - edge).support == (1 - edge, 0)
        top = SliceLaurentSeries({edge - 1: ONE})
        for k, n in ((1, edge), (edge, 2 * edge - 1), (2**64, 2**64 + edge - 1)):
            with pytest.raises(ValueError, match=f"exponent {n} outside"):
                top.shifted(k)
        with pytest.raises(ValueError, match=f"exponent {-edge} outside"):
            SliceLaurentSeries({1 - edge: ONE}).shifted(-1)
