"""Truncated Hankel operators as quaternion matrices, the complex embedding,
operator norms and top singular pairs (the Hermitian eigensolver on the
embedding's Gram matrix up to 96 rows or columns, Golub-Kahan-Lanczos above),
the bilinear form and the shift machinery.

A Hankel matrix keeps only its (2N - 1, 4) antidiagonal: its dense entries
are a read-only strided view, and above the dense crossover Lanczos applies
its complex embedding by length-2N FFT correlations in O(N) memory."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import arrays
from .quat import Quaternion
from .series import SliceLaurentSeries, _scale_back, project_minus, star_mul

__all__ = [
    "QuaternionMatrix",
    "HankelMatrix",
    "apply_gamma",
    "build_hankel_matrix",
    "hankel_from_symbol",
    "apply_H",
    "bilinear_form",
    "complex_embed",
    "embed_vector",
    "deembed_vector",
    "operator_norm",
    "top_singular_pair",
    "shift_S",
    "shift_S_adj",
    "shift_T",
    "shift_T_adj",
    "commutation_residual",
]


class QuaternionMatrix:
    """Dense quaternion matrix stored as a (rows, cols, 4) float array."""

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError("expected an array of shape (rows, cols, 4)")
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix entries must be finite")
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuaternionMatrix":
        return cls(np.zeros((rows, cols, 4)))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, j: int, k: int) -> Quaternion:
        return Quaternion(*self.data[j, k])

    def matmul(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        prod = arrays.mul(self.data[:, :, None, :], other.data[None, :, :, :])
        return QuaternionMatrix(prod.sum(axis=1))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix times a quaternion column vector of shape (cols, 4)."""
        vec = np.asarray(vec, dtype=float)
        prod = arrays.mul(self.data, vec[None, :, :])
        return prod.sum(axis=1)

    def embedded_operator(self):
        """(matvec, rmatvec, shape) of the complex embedding, for Lanczos."""
        a = complex_embed(self)
        # a^H u without a conjugated copy of a
        return (lambda v: a @ v), (lambda u: np.conj(a.T @ np.conj(u))), a.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuaternionMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.all(self.data == other.data))

    def __repr__(self) -> str:
        return f"QuaternionMatrix(shape={self.data.shape[:2]})"


class HankelMatrix(QuaternionMatrix):
    """Square Hankel matrix M[j][k] = antidiagonal[j + k], stored as its
    (2N - 1, 4) antidiagonal; ``data`` is a zero-copy read-only view of it."""

    __slots__ = ("antidiagonal",)

    def __init__(self, antidiagonal):
        antidiagonal = np.array(antidiagonal, dtype=float)
        if antidiagonal.ndim != 2 or antidiagonal.shape[1] != 4 or len(antidiagonal) % 2 == 0:
            raise ValueError("expected an antidiagonal of shape (2N - 1, 4)")
        if not np.all(np.isfinite(antidiagonal)):
            raise ValueError("matrix entries must be finite")
        antidiagonal.flags.writeable = False
        n = (len(antidiagonal) + 1) // 2
        step, comp = antidiagonal.strides
        self.antidiagonal = antidiagonal
        self.data = np.lib.stride_tricks.as_strided(
            antidiagonal, (n, n, 4), (step, step, comp), writeable=False)

    def embedded_operator(self):
        """(matvec, rmatvec, shape) of the complex embedding by FFT.

        Each block Z w, Z[j][k] = z(j + k), is a correlation: with w reversed
        it is entries N-1..2N-2 of the convolution z * w, and length-2N FFTs
        leave those entries unaliased.  The adjoint is the Hankel matrix of
        the quaternion-conjugated antidiagonal, z1 -> conj z1, z2 -> -z2."""
        n = self.rows
        z1, z2 = arrays.to_pairs(self.antidiagonal)
        f1, f2 = np.fft.fft(z1, 2 * n), np.fft.fft(z2, 2 * n)
        return (_hankel_product(f1, f2, n),
                _hankel_product(np.fft.fft(np.conj(z1), 2 * n), -f2, n),
                (2 * n, 2 * n))


def _hankel_product(f1: np.ndarray, f2: np.ndarray, n: int):
    """x -> E x for the embedding E of the N x N Hankel matrix whose
    antidiagonal pair z1 + z2 j has length-2N spectra f1, f2.  Per entry the
    embedding is [[z1, z2], [-conj z2, conj z1]], so with x = (x_e, x_o)
    interleaved, (E x)_e = Z1 x_e + Z2 x_o and
    (E x)_o = conj(Z1 conj x_o - Z2 conj x_e)."""

    def product(x: np.ndarray) -> np.ndarray:
        # rows xe, xo, conj xo, conj xe, each reversed and zero-padded to 2N
        buf = np.zeros((4, 2 * n), dtype=complex)
        buf[0, :n], buf[1, :n] = x[-2::-2], x[::-2]
        np.conj(buf[1::-1, :n], out=buf[2:, :n])
        spec = np.fft.fft(buf, out=buf)
        corr = spec[:2]
        corr[0] = f1 * spec[0] + f2 * spec[1]
        corr[1] = f1 * spec[2] - f2 * spec[3]
        np.fft.ifft(corr, out=corr)
        out = np.empty(2 * n, dtype=complex)
        out[0::2] = corr[0, n - 1:2 * n - 1]
        out[1::2] = np.conj(corr[1, n - 1:2 * n - 1])
        return out

    return product


def _components(qs: Sequence[Quaternion]) -> np.ndarray:
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def _padded(alpha: Sequence[Quaternion], length: int) -> np.ndarray:
    """(length, 4) components of alpha(0..length-1), zero past the data."""
    padded = np.zeros((max(length, 0), 4))
    m = min(len(alpha), len(padded))
    padded[:m] = _components(alpha[:m])
    return padded


def _hankel_data(alpha: Sequence[Quaternion], rows: int, cols: int) -> np.ndarray:
    """(rows, cols, 4) array with entry (j, k) = alpha(j+k), zero past the data."""
    return _padded(alpha, rows + cols - 1)[np.add.outer(np.arange(rows), np.arange(cols))]


def apply_gamma(alpha: Sequence[Quaternion], v: Sequence[Quaternion]) -> list[Quaternion]:
    """(Gamma_alpha v)(j) = sum_k alpha(j+k) v(k), alpha on the left."""
    data = _hankel_data(alpha, len(alpha), len(v))
    prod = arrays.mul(data, _components(v)[None, :, :]).sum(axis=1)
    return [Quaternion(*row) for row in prod]


def build_hankel_matrix(alpha: Sequence[Quaternion], N: int) -> HankelMatrix:
    """M[j][k] = alpha(j+k) for 0 <= j, k < N, stored as its antidiagonal."""
    if N < 1:
        raise ValueError("truncation size must be >= 1")
    return HankelMatrix(_padded(alpha, 2 * N - 1))


def hankel_from_symbol(phi: SliceLaurentSeries, N: int) -> HankelMatrix:
    """M[j][k] = phi_hat(-1-j-k) for 0 <= j, k < N, i.e. the Hankel matrix of
    alpha(m) = phi_hat(-1-m), placed from phi's rows at n = -1 .. 1 - 2N."""
    antidiagonal = np.zeros((max(2 * N - 1, 0), 4))
    inside = (phi.exps < 0) & (phi.exps >= 1 - 2 * N)
    antidiagonal[-1 - phi.exps[inside]] = phi.rows[inside]
    return HankelMatrix(antidiagonal)


def apply_H(phi: SliceLaurentSeries, f: SliceLaurentSeries) -> SliceLaurentSeries:
    """H_phi f = P_-(phi * f) for f in the Hardy space."""
    if f.n_min < 0:
        raise ValueError("input must be supported in n >= 0")
    return project_minus(star_mul(phi, f))


def bilinear_form(
    alpha: Sequence[Quaternion], a: Sequence[Quaternion], b: Sequence[Quaternion]
) -> Quaternion:
    """G_alpha(a, b) = sum_n sum_k alpha(n+k) a_k b_n, products left to right."""
    data = _hankel_data(alpha, len(b), len(a))
    terms = arrays.mul(arrays.mul(data, _components(a)[None, :, :]),
                       _components(b)[:, None, :])
    return Quaternion(*terms.sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# complex embedding H -> M_2(C)
# ---------------------------------------------------------------------------


def complex_embed(m: QuaternionMatrix) -> np.ndarray:
    """Entrywise block [[z1, z2], [-conj(z2), conj(z1)]] for q = z1 + z2 j."""
    z1, z2 = arrays.to_pairs(m.data)
    out = np.empty((2 * m.rows, 2 * m.cols), dtype=complex)
    out[0::2, 0::2] = z1
    out[0::2, 1::2] = z2
    out[1::2, 0::2] = -np.conj(z2)
    out[1::2, 1::2] = np.conj(z1)
    return out


def embed_vector(vec: np.ndarray) -> np.ndarray:
    """Quaternion column (n, 4) -> complex column (2n,), the first block column."""
    vec = np.asarray(vec, dtype=float)
    z1, z2 = arrays.to_pairs(vec)
    out = np.empty(2 * vec.shape[0], dtype=complex)
    out[0::2] = z1
    out[1::2] = -np.conj(z2)
    return out


def deembed_vector(u: np.ndarray) -> np.ndarray:
    """Inverse of embed_vector: complex (2n,) -> quaternion (n, 4)."""
    u = np.asarray(u, dtype=complex)
    return arrays.from_pairs(u[0::2], -np.conj(u[1::2]))


# up to this many rows or columns the dense Gram eigenvalue keeps up with
# Lanczos on a flat spectrum, Lanczos's slowest case (random Hankel blocks;
# median ms of 8 seeds, one BLAS thread, 2 vCPUs):
#     N         64    80    88    96   104   112   128
#     dense    2.9   5.0   6.1   7.4   8.9  10.7  10.9
#     Lanczos  8.2  10.2   9.5  10.3   9.8   8.8   6.0
# The tie falls at 104-112 as the host's speed drifts; 96, below it, keeps
# every size on one path across hosts, N = 97's pinned Lanczos pair among
# them.  Decaying spectra cross earlier (Hilbert at N = 128: 10.6 ms dense,
# 0.8 ms Lanczos), and the dense pair's eigh costs 1.7-2.0 times the
# values-only eigvalsh.
DENSE_SVD_MAX_SIZE = 96


def operator_norm(m: QuaternionMatrix) -> float:
    """Largest singular value, i.e. sup ||Mv|| / ||v|| over quaternion vectors.

    Computed as the top singular value of the complex embedding; the embedding
    is a norm-preserving bijection on column vectors, so the two sups agree.
    Up to DENSE_SVD_MAX_SIZE rows or columns this is the square root of the
    top eigenvalue of the embedding's Gram matrix (``_dense_top_pair``);
    above, it is ``top_singular_pair(m)[0]``, the Golub-Kahan-Lanczos Ritz
    value θ, within about 1e-12 relative of the dense value.  θ ≤ σ_max in
    exact arithmetic, so a Hankel norm stays a lower bound on every analytic
    distance; in floating point θ can land an ulp or so above the dense value.
    """
    if min(m.rows, m.cols) <= DENSE_SVD_MAX_SIZE:
        return _dense_top_pair(m, vector=False)[0]
    return top_singular_pair(m)[0]


def top_singular_pair(m: QuaternionMatrix) -> tuple[float, np.ndarray]:
    """Top singular value and a unit top right singular vector of the complex
    embedding: the top eigenpair of its Gram matrix (``_dense_top_pair``) up
    to DENSE_SVD_MAX_SIZE rows or columns, the Lanczos Ritz pair above, from
    the products of ``m.embedded_operator()``.  A matrix without rows has
    (0, e_0); one without columns has no vector, and raises."""
    if m.cols == 0:
        raise ValueError("a matrix without columns has no singular vector")
    if min(m.rows, m.cols) <= DENSE_SVD_MAX_SIZE:
        return _dense_top_pair(m, vector=True)
    return _lanczos_top_singular_value(*m.embedded_operator())


def _dense_top_pair(m: QuaternionMatrix, vector: bool) -> tuple[float, np.ndarray | None]:
    """σ and, if ``vector``, a unit top right singular vector v of the
    embedding E, from the Hermitian eigensolver on its Gram matrix G on the
    smaller side: G = E^H E with v its top eigenvector, or for a wide E,
    G = E E^H with top eigenvector u and v = E^H u / σ; (0, e_0) for E = 0.

    E is first scaled by the power of two that puts its largest component in
    [1, 2), exactly, so that no square in G under- or overflows; σ is scaled
    back, and refused when it lies above the double range.  G = χ(M^* M)
    (or χ(M M^*)) is an embedded quaternion matrix, so one product gives its
    even rows and its odd rows are their conjugated copies: (-conj b, conj a)
    below each (a, b)."""
    e = complex_embed(m)
    parts = e.view(float)
    top = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    if top == 0.0:
        return 0.0, np.eye(1, 2 * m.cols, dtype=complex)[0]
    shift = 1 - math.frexp(top)[1]
    np.ldexp(parts, shift, out=parts)
    scale = math.ldexp(1.0, -shift)
    wide = m.rows < m.cols
    f = np.conj(e.T) if wide else e
    gram = np.empty((f.shape[1], f.shape[1]), dtype=complex)
    even, odd = gram[0::2], gram[1::2]
    np.matmul(np.conj(f[:, 0::2].T), f, out=even)
    np.conjugate(even[:, 0::2], out=odd[:, 1::2])
    np.conjugate(even[:, 1::2], out=odd[:, 0::2])
    np.negative(odd[:, 0::2], out=odd[:, 0::2])
    if not vector:
        sigma = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
        return _scale_back(sigma, scale, "operator norm"), None
    lam, vecs = np.linalg.eigh(gram)
    sigma = math.sqrt(float(lam[-1]))
    v = f @ vecs[:, -1] / sigma if wide else vecs[:, -1]
    return _scale_back(sigma, scale, "operator norm"), v


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from w its components along the orthonormal rows of basis, twice."""
    for _ in range(2):
        w = w - basis.T @ np.conj(basis @ np.conj(w))
    return w


def _lanczos_top_singular_value(matvec, rmatvec, shape) -> tuple[float, np.ndarray]:
    """Top singular value and right Ritz vector by Golub-Kahan-Lanczos.

    The operator of the given (rows, cols) shape is known only through
    matvec (a v) and rmatvec (a^H u).  Bidiagonalizes a V_k = U_k B_k from a
    fixed-seed start vector with full reorthogonalization, and stops on
    breakdown, when the Krylov space is exhausted, or when the Ritz residual
    ρ = β_k |x_k| (x the top left singular vector of B_k) is at most 1e-12·θ.
    Returns θ and V_k y, y the top right singular vector of B_k.
    """
    m, n = shape
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    us, vs = np.empty((16, m), dtype=complex), np.empty((16, n), dtype=complex)
    b = np.zeros((16, 16))
    vs[0] = v
    k = 0
    p = matvec(v)
    while True:
        p = _reorthogonalize(p, us[:k])
        alpha = b[k, k] = float(np.linalg.norm(p))
        k += 1
        if alpha > 0.0:
            u = us[k - 1] = p / alpha
            r = _reorthogonalize(rmatvec(u) - alpha * v, vs[:k])
            beta = float(np.linalg.norm(r))
        x, s, yh = np.linalg.svd(b[:k, :k])
        if (alpha == 0.0 or beta == 0.0 or k == min(m, n)
                or beta * abs(x[-1, 0]) <= 1e-12 * s[0]):
            return float(s[0]), np.conj(yh[0]) @ vs[:k]
        if k == len(b):
            us, vs = (np.concatenate([w, np.empty_like(w)]) for w in (us, vs))
            b = np.pad(b, (0, k))
        b[k - 1, k] = beta
        v = vs[k] = r / beta
        p = matvec(v) - beta * u


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def shift_S(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """Bilateral shift (Sf)(q) = q f(q)."""
    return f.shifted(1)


def shift_S_adj(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """(S* f)(q) = conj(q) * f(q)."""
    return f.shifted(-1)


def shift_T(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """Right shift on the Hardy space."""
    if f.n_min < 0:
        raise ValueError("input must be supported in n >= 0")
    return f.shifted(1)


def shift_T_adj(f: SliceLaurentSeries) -> SliceLaurentSeries:
    """Backward shift: drop f_hat(0) and shift down."""
    if f.n_min < 0:
        raise ValueError("input must be supported in n >= 0")
    keep = f.exps >= 1
    return SliceLaurentSeries.from_rows(f.exps[keep] - 1, f.rows[keep])


def commutation_residual(r: QuaternionMatrix) -> float:
    """Frobenius norm of (P_- S R - R T) on the interior truncation block.

    Rows index frequencies -1..-N, columns 0..N-1.  On the interior the
    identity reads R[j+1][k] = R[j][k+1]; the last row and column are dropped
    because the infinite-matrix identity fails on the truncation boundary.
    """
    if r.rows != r.cols:
        raise ValueError("square truncation required")
    diff = r.data[1:, :-1] - r.data[:-1, 1:]
    return float(np.sqrt(np.sum(np.square(diff))))
