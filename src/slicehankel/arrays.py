"""Vectorized quaternion arithmetic on float arrays of shape (..., 4) and on
complex pairs q = z1 + z2 j."""

from __future__ import annotations

import numpy as np


def to_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split q = z1 + z2 j into complex arrays z1 = w + ix, z2 = y + iz."""
    return p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]


def from_pairs(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Inverse of to_pairs: the (..., 4) components of z1 + z2 j."""
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def mul_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a1 + a2 j)(b1 + b2 j) = (a1 b1 - a2 conj b2) + (a1 b2 + a2 conj b1) j."""
    (a1, a2), (b1, b2) = a, b
    return np.stack([a1 * b1 - a2 * np.conj(b2), a1 * b2 + a2 * np.conj(b1)])


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


def norm_sq(p: np.ndarray) -> np.ndarray:
    return np.sum(np.square(p), axis=-1)


def norm(p: np.ndarray) -> np.ndarray:
    return np.sqrt(norm_sq(p))
