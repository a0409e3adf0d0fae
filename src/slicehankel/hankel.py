"""Truncated Hankel operators as quaternion matrices, the complex embedding,
operator norms (dense SVD up to 128 rows or columns, Golub-Kahan-Lanczos with
θ ≤ σ_max above), the bilinear form and the shift machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import arrays
from .quat import Quaternion
from .series import SliceLaurentSeries, project_minus, star_mul

__all__ = [
    "QuaternionMatrix",
    "HankelOperator",
    "apply_gamma",
    "build_hankel_matrix",
    "hankel_from_symbol",
    "apply_H",
    "bilinear_form",
    "complex_embed",
    "embed_vector",
    "deembed_vector",
    "operator_norm",
    "shift_S",
    "shift_S_adj",
    "shift_T",
    "shift_T_adj",
    "commutation_residual",
    "dump_matrix",
    "load_matrix",
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
    def from_entries(cls, entries: Sequence[Sequence[Quaternion]]) -> "QuaternionMatrix":
        return cls(np.array(
            [[q.components() for q in row] for row in entries], dtype=float
        ).reshape(len(entries), len(entries[0]), 4))

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuaternionMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.all(self.data == other.data))

    def __repr__(self) -> str:
        return f"QuaternionMatrix(shape={self.data.shape[:2]})"


@dataclass(frozen=True)
class HankelOperator:
    """Antidiagonal data alpha(0), alpha(1), ... with a truncation size."""

    alpha: tuple[Quaternion, ...]
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation size must be >= 1")

    def matrix(self) -> QuaternionMatrix:
        return build_hankel_matrix(self.alpha, self.N)


def _components(qs: Sequence[Quaternion]) -> np.ndarray:
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def _hankel_data(alpha: Sequence[Quaternion], rows: int, cols: int) -> np.ndarray:
    """(rows, cols, 4) array with entry (j, k) = alpha(j+k), zero past the data."""
    padded = np.zeros((max(rows + cols - 1, 0), 4))
    m = min(len(alpha), len(padded))
    padded[:m] = _components(alpha[:m])
    return padded[np.add.outer(np.arange(rows), np.arange(cols))]


def apply_gamma(alpha: Sequence[Quaternion], v: Sequence[Quaternion]) -> list[Quaternion]:
    """(Gamma_alpha v)(j) = sum_k alpha(j+k) v(k), alpha on the left."""
    data = _hankel_data(alpha, len(alpha), len(v))
    prod = arrays.mul(data, _components(v)[None, :, :]).sum(axis=1)
    return [Quaternion(*row) for row in prod]


def build_hankel_matrix(alpha: Sequence[Quaternion], N: int) -> QuaternionMatrix:
    """M[j][k] = alpha(j+k) for 0 <= j, k < N."""
    if N < 1:
        raise ValueError("truncation size must be >= 1")
    return QuaternionMatrix(_hankel_data(alpha, N, N))


def hankel_from_symbol(phi: SliceLaurentSeries, N: int) -> HankelOperator:
    """Antidiagonal data alpha(m) = phi_hat(-1-m), so entry (j,k) = phi_hat(-1-j-k)."""
    alpha = tuple(phi.coefficient(-1 - m) for m in range(2 * N - 1))
    return HankelOperator(alpha=alpha, N=N)


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


# up to this many rows or columns a dense SVD beats Lanczos (measured on
# random quaternion Hankel and dense matrices with one BLAS thread)
DENSE_SVD_MAX_SIZE = 128


def operator_norm(m: QuaternionMatrix) -> float:
    """Largest singular value, i.e. sup ||Mv|| / ||v|| over quaternion vectors.

    Computed as the top singular value of the complex embedding; the embedding
    is a norm-preserving bijection on column vectors, so the two sups agree.
    Up to DENSE_SVD_MAX_SIZE (128) rows or columns this is a dense SVD;
    above, the Golub-Kahan-Lanczos Ritz value θ, within about 1e-12 relative
    of the dense value and never above it (θ ≤ σ_max), so a Hankel norm
    stays a lower bound on every analytic distance.
    """
    if m.rows == 0 or m.cols == 0:
        return 0.0
    if min(m.rows, m.cols) <= DENSE_SVD_MAX_SIZE:
        return float(np.linalg.svd(complex_embed(m), compute_uv=False)[0])
    return _lanczos_top_singular_value(complex_embed(m))


def _reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from w its components along the orthonormal rows of basis, twice."""
    for _ in range(2):
        w = w - basis.T @ np.conj(basis @ np.conj(w))
    return w


def _lanczos_top_singular_value(a: np.ndarray) -> float:
    """Top singular value of a complex matrix by Golub-Kahan-Lanczos.

    Bidiagonalizes a V_k = U_k B_k from a fixed-seed start vector with full
    reorthogonalization, and stops when the Ritz residual β_k |x_k| is at
    most 1e-12·θ (x the top left singular vector of B_k), on breakdown, or
    when the Krylov space is exhausted.
    """
    m, n = a.shape
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    us, vs = np.empty((0, m), dtype=complex), v[None, :]
    alphas: list[float] = []
    betas: list[float] = []
    p = a @ v
    while True:
        p = _reorthogonalize(p, us)
        alphas.append(float(np.linalg.norm(p)))
        if alphas[-1] > 0.0:
            u = p / alphas[-1]
            us = np.vstack([us, u])
            # a^H u without a conjugated copy of a
            r = _reorthogonalize(np.conj(a.T @ np.conj(u)) - alphas[-1] * v, vs)
            beta = float(np.linalg.norm(r))
        x, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        if (alphas[-1] == 0.0 or beta == 0.0 or beta * abs(x[-1, 0]) <= 1e-12 * s[0]
                or len(alphas) == min(m, n)):
            return float(s[0])
        betas.append(beta)
        v = r / beta
        vs = np.vstack([vs, v])
        p = a @ v - beta * u


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
    return SliceLaurentSeries({n - 1: a for n, a in f.coeffs.items() if n >= 1})


def commutation_residual(r: QuaternionMatrix) -> float:
    """Frobenius norm of (P_- S R - R T) on the interior truncation block.

    Rows index frequencies -1..-N, columns 0..N-1.  On the interior the
    identity reads R[j+1][k] = R[j][k+1]; the last row and column are dropped
    because the infinite-matrix identity fails on the truncation boundary.
    """
    if r.rows != r.cols:
        raise ValueError("square truncation required")
    if r.rows < 2:
        return 0.0
    diff = r.data[1:, :-1] - r.data[:-1, 1:]
    return float(np.sqrt(np.sum(np.square(diff))))


# ---------------------------------------------------------------------------
# matrix dump format
# ---------------------------------------------------------------------------


def dump_matrix(m: QuaternionMatrix) -> str:
    lines = [f"matrix {m.rows} {m.cols}"]
    for j in range(m.rows):
        parts = []
        for k in range(m.cols):
            w, x, y, z = (float(v) for v in m.data[j, k])
            parts.append(f"{w!r} {x!r} {y!r} {z!r}")
        lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> QuaternionMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("matrix"):
        raise ValueError("missing matrix header")
    _, rows_s, cols_s = lines[0].split()
    rows, cols = int(rows_s), int(cols_s)
    if len(lines) != rows + 1:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    data = np.zeros((rows, cols, 4))
    for j in range(rows):
        vals = [float(p) for p in lines[j + 1].split()]
        if len(vals) != 4 * cols:
            raise ValueError(f"row {j}: expected {4 * cols} floats, found {len(vals)}")
        data[j] = np.array(vals).reshape(cols, 4)
    return QuaternionMatrix(data)
