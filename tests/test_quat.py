import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicehankel.quat import (
    REFERENCE_UNIT,
    BoundaryPoint,
    ImaginaryUnit,
    Quaternion,
    exp_unit,
    sample_sphere,
)


def left_mul_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by q; independent oracle for the
    Hamilton product."""
    w, x, y, z = q.components()
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def random_quaternion(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.normal(size=4)))


class TestQuaternion:
    def test_mul_matches_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_quaternion(rng)
            q = random_quaternion(rng)
            expected = left_mul_matrix(p) @ np.array(q.components())
            got = np.array((p * q).components())
            assert np.allclose(got, expected, atol=1e-12)

    def test_basis_relations(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * k == i
        assert k * i == j
        assert i * i == Quaternion(-1)
        assert j * j == Quaternion(-1)
        assert i * j == -(j * i)

    def test_norm_is_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_quaternion(rng)
            q = random_quaternion(rng)
            assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-12)

    def test_inverse(self):
        q = Quaternion(1.0, -2.0, 3.0, 0.5)
        assert (q * q.inverse()).isclose(Quaternion(1.0))
        assert (q.inverse() * q).isclose(Quaternion(1.0))

    def test_zero_has_no_inverse(self):
        with pytest.raises(ValueError):
            Quaternion().inverse()

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_inverse_scales_exactly(self, k):
        # |q|^2 underflows below about 1e-162 and overflows above 1e154: the
        # inverse is formed on q scaled to its largest component
        q = Quaternion(1.0, -2.0, 3.0, 0.5)
        assert (q * 2.0 ** k).inverse() == q.inverse() * 2.0 ** -k
        tiny = Quaternion(1e-170).inverse()
        assert abs(tiny.w - 1e170) <= 1e-15 * 1e170

    def test_inverse_above_the_double_range_is_refused(self):
        with pytest.raises(ValueError, match="above the double range"):
            Quaternion(0.0, 5e-324, 0.0, 0.0).inverse()

    def test_conjugation_reverses_products(self):
        rng = np.random.default_rng(3)
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        assert (p * q).conjugate().isclose(q.conjugate() * p.conjugate(), tol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Quaternion(math.nan)
        with pytest.raises(ValueError):
            Quaternion(0.0, math.inf)

    def test_scalar_operations(self):
        q = Quaternion(1, 2, 3, 4)
        assert q * 2 == Quaternion(2, 4, 6, 8)
        assert 2 * q == q * 2
        assert q / 2 == Quaternion(0.5, 1, 1.5, 2)


_component = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_quaternion = st.builds(Quaternion, _component, _component, _component, _component)


class TestAlgebraProperties:
    @given(_quaternion, _quaternion, _quaternion)
    def test_mul_associative(self, p, q, r):
        scale = max(1.0, abs(p) * abs(q) * abs(r))
        assert ((p * q) * r).isclose(p * (q * r), tol=1e-10 * scale)

    @given(_quaternion, _quaternion, _quaternion)
    def test_mul_distributes_over_add(self, p, q, r):
        scale = max(1.0, abs(p) * (abs(q) + abs(r)))
        assert (p * (q + r)).isclose(p * q + p * r, tol=1e-10 * scale)

    @given(_quaternion)
    def test_conjugate_involution_and_norm(self, q):
        assert q.conjugate().conjugate() == q
        assert (q * q.conjugate()).isclose(
            Quaternion(q.norm_sq()), tol=1e-10 * max(1.0, q.norm_sq())
        )


class TestImaginaryUnit:
    def test_squares_to_minus_one(self):
        u = ImaginaryUnit(1.0, 2.0, -0.5)
        q = u.as_quaternion()
        assert (q * q).isclose(Quaternion(-1.0), tol=1e-12)

    def test_renormalizes(self):
        u = ImaginaryUnit(3.0, 0.0, 4.0)
        assert u.x == pytest.approx(0.6)
        assert u.z == pytest.approx(0.8)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ImaginaryUnit(0.0, 0.0, 0.0)

    def test_sampler_is_on_sphere_and_deterministic(self):
        rng = np.random.default_rng(7)
        units = [sample_sphere(rng) for _ in range(50)]
        for u in units:
            assert u.x**2 + u.y**2 + u.z**2 == pytest.approx(1.0, abs=1e-12)
        rng2 = np.random.default_rng(7)
        again = [sample_sphere(rng2) for _ in range(50)]
        assert units == again


class TestBoundaryPoint:
    def test_exp_unit(self):
        q = exp_unit(math.pi / 2, REFERENCE_UNIT)
        assert q.isclose(Quaternion(0, 1, 0, 0), tol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = sample_sphere(rng)
            t = float(rng.uniform(0, math.pi))
            p = BoundaryPoint(u, t)
            back = BoundaryPoint.from_quaternion(p.to_quaternion())
            assert back.to_quaternion().isclose(p.to_quaternion(), tol=1e-9)

    @pytest.mark.parametrize("a", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_round_trip_near_zero_and_pi(self, a):
        # acos(w) is flat at w = +-1: it read cos a + i sin a as angle 0
        unit = ImaginaryUnit(1.0, 2.0, 2.0)
        for t in (a, math.pi - a):
            back = BoundaryPoint.from_quaternion(exp_unit(t, unit))
            assert back.angle == pytest.approx(t, rel=2e-15, abs=0.0)
            assert back.unit.as_quaternion().isclose(unit.as_quaternion(), tol=1e-15)

    def test_angle_reduced_mod_two_pi(self):
        p = BoundaryPoint(REFERENCE_UNIT, 2 * math.pi + 0.25)
        assert p.angle == pytest.approx(0.25)

    def test_real_points_use_reference_unit(self):
        p = BoundaryPoint.from_quaternion(Quaternion(-1.0))
        assert p.unit == REFERENCE_UNIT
        assert p.angle == pytest.approx(math.pi)

    @pytest.mark.parametrize("angle", [5e-13, 5e-15])
    def test_near_real_point_reads_as_real(self, angle):
        # one cutoff: an imaginary part too short for ImaginaryUnit to
        # normalize is the imaginary part of a real point
        q = Quaternion(math.cos(angle), math.sin(angle), 0.0, 0.0)
        p = BoundaryPoint.from_quaternion(q)
        assert p.unit == REFERENCE_UNIT
        assert p.to_quaternion().isclose(q, tol=1e-12)

    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ValueError):
            BoundaryPoint.from_quaternion(Quaternion(2.0))
