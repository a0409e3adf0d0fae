"""Vectorized quaternion arithmetic on float arrays of shape (..., 4)."""

from __future__ import annotations

import numpy as np


def to_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split q = z1 + z2 j into complex arrays z1 = w + ix, z2 = y + iz."""
    return p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]


def from_pairs(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Inverse of to_pairs: the (..., 4) components of z1 + z2 j."""
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def conj(p: np.ndarray) -> np.ndarray:
    out = np.array(p, dtype=float, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def norm_sq(p: np.ndarray) -> np.ndarray:
    return np.sum(np.square(p), axis=-1)


def norm(p: np.ndarray) -> np.ndarray:
    return np.sqrt(norm_sq(p))


def inv(p: np.ndarray) -> np.ndarray:
    n2 = norm_sq(p)
    return conj(p) / n2[..., None]
