"""Small shared helpers, among them the one atom check and atom Fourier sum."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def canonical_angle(theta):
    """Map an angle (a float) or angles (an array) to [0, 2*pi)."""
    a = np.mod(theta, TWO_PI)
    a = np.where(a == TWO_PI, 0.0, a)  # a tiny negative angle rounds up to 2*pi
    return float(a) if a.ndim == 0 else a


def atoms(angles, weights):
    """Checked read-only float arrays (angles wrapped to [0, 2*pi), weights)."""
    a = np.array(angles, dtype=float, ndmin=1)
    w = np.array(weights, dtype=float)
    if a.shape != w.shape or a.ndim != 1:
        raise ValueError("angles and weights must be 1-d sequences of equal length")
    if not (np.isfinite(a).all() and np.isfinite(w).all()):
        raise ValueError("atom angles and weights must be finite")
    if np.any(w < 0):
        raise ValueError("atom weights must be nonnegative")
    a = canonical_angle(a)
    a.setflags(write=False)
    w.setflags(write=False)
    return a, w


def atom_moments(angles, weights, n: int) -> np.ndarray:
    """sum_j w_j e^{i k angle_j} for k = 1..n."""
    return np.exp(1j * np.outer(np.arange(1, n + 1), angles)) @ weights


def ring_grid(radii, n_angles: int) -> np.ndarray:
    """Points r*exp(2*pi*i*j/n_angles) for every radius, as a flat array."""
    th = TWO_PI * np.arange(n_angles) / n_angles
    ring = np.exp(1j * th)
    return np.concatenate([r * ring for r in radii])


def toeplitz_from_moments(moments, size: int) -> np.ndarray:
    """Hermitian Toeplitz matrix T[j, k] = m_{j-k} with m_0 = 1, m_{-k} = conj(m_k).

    ``moments`` holds m_1, m_2, ... and must cover index size - 1.
    """
    m = np.concatenate(([1.0 + 0.0j], np.asarray(moments, dtype=np.complex128)))
    idx = np.arange(size)
    diff = idx[:, None] - idx[None, :]
    t = m[np.abs(diff)]
    return np.where(diff >= 0, t, np.conj(t))
