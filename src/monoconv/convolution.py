"""Multiplicative monotone convolution of circle measures.

The convolution mu |> nu is the measure whose K-transform is the
composition K_mu(K_nu(z)).  It is associative and affine in the first
argument, but not commutative.  Since psi = K/(1 - K), the same identity
reads psi_{mu |> nu} = psi_mu(K_nu(z)): the moments of mu |> nu are the
coefficients of one composition, after one series reciprocal for K_nu.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .measure import CircleMeasure, KTransform, k_transform, moments_from_k
from .series import DEFAULT_ORDER

__all__ = ["monotone_convolve", "affine_mixture_convolve"]


def monotone_convolve(mu: CircleMeasure, nu: CircleMeasure, n: int = DEFAULT_ORDER) -> CircleMeasure:
    """Moments of mu |> nu through order n, as psi_mu composed with K_nu.

    psi_{mu |> nu} = psi_mu o K_nu costs one reciprocal (for K_nu) and one
    composition.  The result is always moment-represented; composition
    preserves only the analytic data, so no re-atomization is attempted.
    """
    k_nu = k_transform(nu, n).series  # checks n >= 1 before any other work
    return CircleMeasure.from_moments(mu.psi_series(n).compose(k_nu).coeffs[1:])


def affine_mixture_convolve(mu: CircleMeasure, nu: CircleMeasure, n: int = DEFAULT_ORDER) -> CircleMeasure:
    """mu |> nu computed as the mixture sum_j w_j (delta_{x_j} |> nu).

    Uses the affinity of the convolution in its first argument; ``mu`` must
    be atomic.  Serves as an independent cross-check of
    :func:`monotone_convolve`, with no composition and one reciprocal per
    atom: psi is the sum of w_j e_j K_nu / (1 - e_j K_nu), e_j = e^{i x_j}.
    """
    if not mu.is_atomic:
        raise DomainError("affine mixture requires an atomic first argument")
    angles, weights = mu.atoms
    k_nu = k_transform(nu, n).series
    total = np.zeros(n, dtype=np.complex128)
    for theta, w in zip(angles, weights):  # delta_x |> nu has K = e^{i theta} K_nu
        total += w * moments_from_k(KTransform(np.exp(1j * theta) * k_nu), n)
    return CircleMeasure.from_moments(total)
