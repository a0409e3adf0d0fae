import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slicehankel import hankel
from slicehankel.hankel import (
    HankelMatrix,
    QuaternionMatrix,
    apply_H,
    apply_gamma,
    bilinear_form,
    build_hankel_matrix,
    commutation_residual,
    complex_embed,
    deembed_vector,
    embed_vector,
    hankel_from_symbol,
    operator_norm,
    shift_S,
    shift_S_adj,
    shift_T,
    shift_T_adj,
)
from slicehankel.quat import Quaternion
from slicehankel.series import SliceLaurentSeries, l2_inner, l2_norm
from test_golden import SRC, THREAD_VARS

TESTS = Path(__file__).resolve().parent

ONE = Quaternion(1.0)


def random_matrix(rng, rows, cols):
    return QuaternionMatrix(rng.normal(size=(rows, cols, 4)))


def random_alpha(rng, length):
    return [Quaternion(*rng.normal(size=4)) for _ in range(length)]


def random_vec(rng, n):
    return rng.normal(size=(n, 4))


def action_matrix(alpha, n, action=apply_H):
    """Column k holds coefficients -1..-n of action(phi, z^k) for the symbol
    phi with phi_hat(-1-m) = alpha(m).  With the default action H_phi this is
    the matrix of the star-algebra action, whose commutation residual checks
    P_- S H_phi = H_phi T."""
    phi = SliceLaurentSeries({-1 - m: a for m, a in enumerate(alpha)})
    columns = [action(phi, SliceLaurentSeries({k: ONE})) for k in range(n)]
    return QuaternionMatrix([[h.coefficient(-1 - j).components() for h in columns]
                             for j in range(n)])


def clustered_matrix(rng, gap, n=150):
    """Real n x n matrix with top singular values 2 and 2 (1 - gap), the rest
    in [0, 1.9), in a random orthogonal basis."""
    sigma = np.concatenate([[2.0, 2.0 * (1 - gap)], rng.uniform(0.0, 1.9, n - 2)])
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    data = np.zeros((n, n, 4))
    data[:, :, 0] = (q1 * sigma) @ q2.T
    return QuaternionMatrix(data)


class TestHankelMatrix:
    def test_constant_antidiagonals(self):
        alpha = [Quaternion(m) for m in range(7)]
        m = build_hankel_matrix(alpha, 4)
        for j in range(4):
            for k in range(4):
                assert m.entry(j, k) == Quaternion(j + k)

    def test_entries_beyond_data_are_zero(self):
        m = build_hankel_matrix([ONE], 3)
        assert m.entry(0, 0) == ONE
        assert m.entry(2, 2) == Quaternion()

    def test_from_symbol_indexing(self):
        phi = SliceLaurentSeries({-1: Quaternion(1), -3: Quaternion(3), 2: Quaternion(9)})
        m = hankel_from_symbol(phi, 4)
        # entry (j,k) = phi_hat(-1-j-k); positive coefficients never appear
        assert m.entry(0, 0) == Quaternion(1)
        assert m.entry(1, 1) == Quaternion(3)
        assert m.entry(0, 2) == Quaternion(3)
        assert m.entry(3, 3) == Quaternion()

    def test_from_symbol_matches_entries(self):
        rng = np.random.default_rng(35)
        depth = 9
        phi = SliceLaurentSeries({
            n: Quaternion(*rng.normal(size=4)) for n in range(-depth, 4)
        })
        # N = 4 reads only 2N - 1 = 7 of the 9 negative coefficients
        for N in (1, 2, depth // 2, depth, 2 * depth + 8):
            m = hankel_from_symbol(phi, N)
            for j in range(N):
                for k in range(N):
                    expected = phi.coefficient(-1 - j - k).components()
                    assert tuple(m.data[j, k]) == expected

    def test_apply_gamma_matches_matrix(self):
        rng = np.random.default_rng(31)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(5)]
        v = [Quaternion(*rng.normal(size=4)) for _ in range(5)]
        m = build_hankel_matrix(alpha, 5)
        got = apply_gamma(alpha, v)
        expected = m.apply(np.array([q.components() for q in v]))
        for j in range(5):
            brute = Quaternion()
            for k in range(5):
                if j + k < len(alpha):
                    brute = brute + alpha[j + k] * v[k]
            assert got[j].isclose(brute, tol=1e-12)
            assert got[j].isclose(Quaternion(*expected[j]), tol=1e-12)

    def test_matrix_action_matches_series_action(self):
        rng = np.random.default_rng(32)
        phi = SliceLaurentSeries({
            n: Quaternion(*rng.normal(size=4)) for n in range(-4, 3)
        })
        n_trunc = 8
        f = SliceLaurentSeries({
            k: Quaternion(*rng.normal(size=4)) for k in range(n_trunc)
        })
        res = apply_H(phi, f)
        m = hankel_from_symbol(phi, n_trunc)
        vec = np.array([f.coefficient(k).components() for k in range(n_trunc)])
        out = m.apply(vec)
        for j in range(n_trunc):
            assert res.coefficient(-1 - j).isclose(Quaternion(*out[j]), tol=1e-12)

    def test_apply_H_rejects_negative_support(self):
        with pytest.raises(ValueError):
            apply_H(SliceLaurentSeries({-1: ONE}), SliceLaurentSeries({-1: ONE}))

    def test_bilinear_form_pairs_with_action(self):
        rng = np.random.default_rng(33)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        a = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        b = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        form = bilinear_form(alpha, a, b)
        brute = Quaternion()
        for n, bn in enumerate(b):
            for k, ak in enumerate(a):
                if n + k < len(alpha):
                    brute = brute + alpha[n + k] * ak * bn
        assert form.isclose(brute, tol=1e-12)
        ga = apply_gamma(alpha, a)
        expected = Quaternion()
        for n, bn in enumerate(b):
            expected = expected + ga[n] * bn
        assert form.isclose(expected, tol=1e-12)

    def test_truncation_size_must_be_positive(self):
        with pytest.raises(ValueError):
            hankel_from_symbol(SliceLaurentSeries({-1: ONE}), 0)
        with pytest.raises(ValueError, match="truncation size must be >= 1"):
            build_hankel_matrix([ONE], 0)

    def test_quaternion_matrix_refuses_malformed_input(self):
        for data in (np.zeros((2, 2, 3)), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="shape"):
                QuaternionMatrix(data)
        data = np.zeros((2, 2, 4))
        data[1, 0, 3] = math.nan
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            QuaternionMatrix(data)
        with pytest.raises(ValueError, match="dimension mismatch"):
            QuaternionMatrix.zeros(2, 3).matmul(QuaternionMatrix.zeros(2, 3))
        assert operator_norm(QuaternionMatrix.zeros(0, 3)) == 0.0


class TestComplexEmbedding:
    def test_multiplicative(self):
        rng = np.random.default_rng(34)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        lhs = complex_embed(a.matmul(b))
        rhs = complex_embed(a) @ complex_embed(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_vector_isometry_and_round_trip(self):
        rng = np.random.default_rng(35)
        v = random_vec(rng, 6)
        ev = embed_vector(v)
        assert np.linalg.norm(ev) == pytest.approx(np.linalg.norm(v), rel=1e-14)
        assert np.max(np.abs(deembed_vector(ev) - v)) == 0.0

    def test_intertwines_matrix_action(self):
        rng = np.random.default_rng(36)
        m = random_matrix(rng, 4, 4)
        v = random_vec(rng, 4)
        lhs = complex_embed(m) @ embed_vector(v)
        rhs = embed_vector(m.apply(v))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def pinned_matrix(kind, n):
    """The Hilbert matrix of size n, or a flat one from random_alpha seeded
    with n."""
    if kind == "hilbert":
        alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * n - 1)]
    else:
        alpha = random_alpha(np.random.default_rng(n), 2 * n - 1)
    return build_hankel_matrix(alpha, n)


def top_pair_digests():
    """The sha256 of each pinned case's Lanczos top pair, σ's 8 bytes then
    the vector's, keyed "kind-n"."""
    digests = {}
    for kind, n in TestOperatorNorm.PINNED_PAIRS:
        sigma, v = hankel.top_singular_pair(pinned_matrix(kind, n))
        digests[f"{kind}-{n}"] = hashlib.sha256(struct.pack("<d", sigma) + v.tobytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def pinned_digests():
    """``top_pair_digests`` from a child process with BLAS pinned to one
    thread, as for the goldens: a threaded BLAS sum can differ in its last
    bit, which the Lanczos iteration carries into the pair."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    code = "import json, test_hankel; print(json.dumps(test_hankel.top_pair_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


class TestOperatorNorm:
    def test_golden_ratio_block(self):
        # [[1,1],[1,0]]: eigenvalues (1 +- sqrt(5))/2 by the characteristic
        # polynomial x^2 - x - 1, so the norm is the golden ratio
        m = build_hankel_matrix([ONE, ONE], 2)
        assert operator_norm(m) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_real_symmetric_eigh_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            alpha = [Quaternion(float(rng.normal())) for _ in range(9)]
            m = build_hankel_matrix(alpha, 5)
            real = np.array([[m.entry(j, k).w for k in range(5)] for j in range(5)])
            expected = float(np.max(np.abs(np.linalg.eigvalsh(real))))
            assert operator_norm(m) == pytest.approx(expected, rel=1e-12)

    def test_norm_is_attained_and_bounds_samples(self):
        rng = np.random.default_rng(38)
        m = random_matrix(rng, 5, 5)
        nrm = operator_norm(m)
        for _ in range(200):
            v = random_vec(rng, 5)
            ratio = np.linalg.norm(m.apply(v)) / np.linalg.norm(v)
            assert ratio <= nrm * (1 + 1e-12)
        _, _, vh = np.linalg.svd(complex_embed(m))
        vq = deembed_vector(np.conj(vh[0]))
        achieved = np.linalg.norm(m.apply(vq)) / np.linalg.norm(vq)
        assert achieved == pytest.approx(nrm, rel=1e-10)

    def test_monotone_in_truncation(self):
        rng = np.random.default_rng(39)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(127)]
        norms = [
            operator_norm(build_hankel_matrix(alpha, n)) for n in (8, 16, 32, 64)
        ]
        for small, large in zip(norms, norms[1:]):
            assert large >= small - 1e-12

    def test_lanczos_matches_dense_svd(self):
        # 22 quaternion matrices above the dense-SVD crossover
        rng = np.random.default_rng(41)
        cases = [random_matrix(rng, r, c) for r, c in
                 [(129, 129), (200, 200), (256, 256), (400, 200), (200, 400),
                  (300, 150), (150, 300), (257, 131)]]
        for n in (129, 160, 200, 256, 300, 400):
            alpha = [Quaternion(*rng.normal(size=4)) for _ in range(2 * n - 1)]
            cases.append(build_hankel_matrix(alpha, n))
        # rank-deficient: a depth-64 symbol padded to N=256 has 64 nonzero
        # antidiagonals, and an outer product has quaternion rank one
        for _ in range(5):
            coeffs = {-1 - m: Quaternion(*rng.normal(size=4)) for m in range(64)}
            cases.append(hankel_from_symbol(SliceLaurentSeries(coeffs), 256))
        cases.append(random_matrix(rng, 300, 1).matmul(random_matrix(rng, 1, 200)))
        cases += [clustered_matrix(rng, 1e-6), QuaternionMatrix.zeros(150, 200)]
        for m in cases:
            dense = float(np.linalg.svd(complex_embed(m), compute_uv=False)[0])
            theta = operator_norm(m)
            assert abs(theta - dense) <= 1e-12 * dense
            # a Ritz value exceeds the top singular value by rounding at most
            assert theta <= dense * (1 + 1e-12)

    def test_dispatch_at_crossover(self):
        rng = np.random.default_rng(42)
        small = random_matrix(rng, hankel.DENSE_SVD_MAX_SIZE, 300)
        large = random_matrix(rng, hankel.DENSE_SVD_MAX_SIZE + 1, 300)
        assert operator_norm(small) == float(
            np.linalg.svd(complex_embed(small), compute_uv=False)[0])
        a = complex_embed(large)
        assert operator_norm(large) == hankel._lanczos_top_singular_value(
            lambda v: a @ v, lambda u: np.conj(a.T @ np.conj(u)), a.shape)[0]
        # a Hankel matrix takes the same branches, with FFT products above
        for n in (hankel.DENSE_SVD_MAX_SIZE, hankel.DENSE_SVD_MAX_SIZE + 1):
            m = build_hankel_matrix(random_alpha(rng, 2 * n - 1), n)
            expected = (
                float(np.linalg.svd(complex_embed(m), compute_uv=False)[0])
                if n <= hankel.DENSE_SVD_MAX_SIZE
                else hankel._lanczos_top_singular_value(*m.embedded_operator())[0]
            )
            assert operator_norm(m) == expected

    def test_top_singular_pair(self):
        rng = np.random.default_rng(45)
        for n in (hankel.DENSE_SVD_MAX_SIZE, 200):
            m = build_hankel_matrix(random_alpha(rng, 2 * n - 1), n)
            sigma, v = hankel.top_singular_pair(m)
            assert sigma == pytest.approx(operator_norm(m), rel=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            vq = deembed_vector(v)
            assert np.linalg.norm(m.apply(vq)) == pytest.approx(sigma, rel=1e-10)

    def test_lanczos_exact_cases_and_determinism(self):
        assert operator_norm(QuaternionMatrix.zeros(300, 300)) == 0.0
        eye = np.zeros((300, 300, 4))
        eye[np.arange(300), np.arange(300), 0] = 1.0
        assert operator_norm(QuaternionMatrix(eye)) == pytest.approx(1.0, abs=1e-15)
        m = random_matrix(np.random.default_rng(43), 250, 250)
        assert operator_norm(m) == operator_norm(m)

    def test_value_stop_on_unsplit_pair(self):
        # a top pair 1e-9 apart looks like one singular value while the
        # residual is above 1e-12: Lanczos runs on until the pair splits
        for seed in range(3):
            m = clustered_matrix(np.random.default_rng(seed), 1e-9)
            dense = float(np.linalg.svd(complex_embed(m), compute_uv=False)[0])
            assert abs(operator_norm(m) - dense) <= 1e-12 * dense
            assert operator_norm(m) == hankel.top_singular_pair(m)[0]

    # sha256 of the Lanczos top pair, σ's 8 bytes then the vector's, for
    # Hilbert matrices and random flat ones (random_alpha seeded with N),
    # as recorded before the Lanczos state moved into arrays, which changed
    # no operand, with BLAS on one thread (see pinned_digests)
    PINNED_PAIRS = {
        ("hilbert", 97):
            "014acdd6a6c8261f9de21818ae1cc5831a4e6ca5767e76f9e779a8b7c25e7f30",
        ("hilbert", 128):
            "6ed0abe339b3ff89d35733331c4a3b0c9ab1bb6fb225a993da928fe05e0722e2",
        ("hilbert", 512):
            "1b3740c6f0b58979f0aee4f2cfa011e73d49a33a3a39d455f792192ab49b3a49",
        ("hilbert", 1024):
            "4e9efae71cd56e8d2c129af3cd04730d282919b09a012a34dfde3b2d9fa3070e",
        ("flat", 97):
            "23379e16f088e480c257af983f3b6028c390fb78482db182c98b52778cdbd684",
        ("flat", 200):
            "0e9208b6b64adbcd835bf35999800e363e03241bac6ebee7c6fb75a874f75aa1",
        ("flat", 400):
            "1530c7836685a6e54b25a6786faaa119e5dded27c8d05cbbb14038ca64bb936e",
    }

    @pytest.mark.parametrize("kind, n", sorted(PINNED_PAIRS))
    def test_top_pair_pinned(self, pinned_digests, kind, n):
        assert pinned_digests[f"{kind}-{n}"] == self.PINNED_PAIRS[kind, n]
        # above the crossover the norm is the pair's value, one stop rule
        m = pinned_matrix(kind, n)
        assert operator_norm(m) == hankel.top_singular_pair(m)[0]

    def test_lanczos_hilbert_matches_eigvalsh(self):
        for size in (128, 256, 512, 1024):
            alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * size - 1)]
            real = 1.0 / (np.add.outer(np.arange(size), np.arange(size)) + 1.0)
            expected = float(np.max(np.linalg.eigvalsh(real)))
            got = operator_norm(build_hankel_matrix(alpha, size))
            assert abs(got - expected) <= 1e-12 * expected


class TestMatrixFree:
    def test_view_is_the_dense_gather(self):
        rng = np.random.default_rng(46)
        for n in (1, 2, 5):
            for length in (1, n, 2 * n - 1):
                alpha = random_alpha(rng, length)
                m = build_hankel_matrix(alpha, n)
                assert isinstance(m, HankelMatrix)
                assert m.antidiagonal.shape == (2 * n - 1, 4)
                assert np.array_equal(m.data, hankel._hankel_data(alpha, n, n))
                assert not m.data.flags.writeable
                with pytest.raises(ValueError):
                    m.data[0, 0, 0] = 1.0
        # Quaternion(inf) cannot be made: the view's own check is reached
        # from the raw antidiagonal
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            HankelMatrix(np.array([[np.inf, 0.0, 0.0, 0.0]]))

    def test_fft_products_match_embedding(self):
        rng = np.random.default_rng(47)
        for n in (129, 200, 257, 300):
            alpha = random_alpha(rng, 2 * n - 1)
            m = build_hankel_matrix(alpha, n)
            assert np.array_equal(m.data, hankel._hankel_data(alpha, n, n))
            assert not m.data.flags.writeable
            a = complex_embed(m)
            matvec, rmatvec, shape = m.embedded_operator()
            assert shape == a.shape
            for _ in range(3):
                x = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
                ref = a @ x
                assert np.linalg.norm(matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
                ref = a.conj().T @ x
                assert np.linalg.norm(rmatvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["hilbert", "random"])
    def test_norm_memory_is_linear(self, name):
        # the dense (2N)^2 complex embedding alone would take 268 MB
        n = 2048
        if name == "hilbert":
            alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * n - 1)]
        else:
            alpha = random_alpha(np.random.default_rng(48), 2 * n - 1)
        tracemalloc.start()
        try:
            nrm = operator_norm(build_hankel_matrix(alpha, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000
        assert 0.0 < nrm and (name == "random" or nrm < math.pi)


class TestShifts:
    def test_bilateral_adjoint(self):
        rng = np.random.default_rng(40)
        f = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(-3, 4)})
        g = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(-3, 4)})
        assert l2_inner(shift_S(f), g) == l2_inner(f, shift_S_adj(g))

    def test_hardy_shift_isometry(self):
        rng = np.random.default_rng(41)
        f = SliceLaurentSeries({n: Quaternion(*rng.normal(size=4)) for n in range(5)})
        assert l2_norm(shift_T(f)) == l2_norm(f)
        assert shift_T_adj(shift_T(f)) == f

    def test_backward_shift_drops_constant(self):
        f = SliceLaurentSeries({0: Quaternion(7), 1: Quaternion(0, 1, 0, 0)})
        assert shift_T_adj(f) == SliceLaurentSeries({0: Quaternion(0, 1, 0, 0)})

    def test_hardy_shifts_reject_negative_support(self):
        f = SliceLaurentSeries({-1: ONE})
        with pytest.raises(ValueError):
            shift_T(f)
        with pytest.raises(ValueError):
            shift_T_adj(f)


class TestCommutation:
    def test_hankel_matrices_commute(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = action_matrix(random_alpha(rng, 21), 11)
            assert commutation_residual(m) <= 1e-14
        # 0 x 0 and 1 x 1 truncations have an empty interior
        for n in (0, 1):
            assert commutation_residual(QuaternionMatrix(np.zeros((n, n, 4)))) == 0.0

    def test_non_hankel_action_fails(self):
        # H_phi z^k -> H_phi z^(2k) has the matrix alpha(j + 2k), not Hankel
        rng = np.random.default_rng(44)
        for _ in range(5):
            m = action_matrix(random_alpha(rng, 21), 11,
                              lambda phi, f: apply_H(phi, f.shifted(f.n_min)))
            assert commutation_residual(m) > 1e-2

    def test_corruption_is_detected(self):
        rng = np.random.default_rng(43)
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(21)]
        m = build_hankel_matrix(alpha, 11)
        delta = 1e-3
        data = m.data.copy()
        data[4, 5, 0] += delta
        assert commutation_residual(QuaternionMatrix(data)) > delta / 2

    def test_requires_square(self):
        with pytest.raises(ValueError):
            commutation_residual(QuaternionMatrix(np.zeros((2, 3, 4))))
