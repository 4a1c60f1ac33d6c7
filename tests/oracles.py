"""Slow reference routes kept as test oracles.

``horner_compose`` is nested (Horner) composition on series and
``recursion_flow_coefficients`` solves v(f) = v f' one coefficient at a
time with one full composition per coefficient.  Neither shares code with
the power table of :mod:`monoconv.series`.  ``merge_and_drop`` is the
canonical form of a cfree word, computed apart from ``Word``.
"""

from itertools import groupby

import numpy as np

from monoconv.series import TruncatedSeries


def horner_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)) through order min(N_outer, N_inner): acc <- acc*g + c_k."""
    assert inner[0] == 0
    n = min(outer.order, inner.order)
    g = inner.truncate(n)
    acc = TruncatedSeries.zero(n)
    for ck in outer.coeffs[n::-1]:
        acc = acc * g + ck
    return acc


def recursion_flow_coefficients(gen, t: float, n: int) -> TruncatedSeries:
    """f_1..f_n of K_t, each f_m from one Horner composition v(f) at step m."""
    v = gen.vector_field(n)
    f = np.zeros(n + 1, dtype=np.complex128)
    f[1] = np.exp(-t * complex(gen.beta))
    for m in range(2, n + 1):
        lhs_lower = horner_compose(v, TruncatedSeries(f))[m]  # f_m is still 0 here
        rhs = sum(k * f[k] * v[m + 1 - k] for k in range(1, m))
        f[m] = (rhs - lhs_lower) / ((1 - m) * v[1])
    return TruncatedSeries(f)


def merge_and_drop(letters):
    """Drop power-0 letters, then sum the powers of each run of one algebra."""
    kept = [(alg, power) for alg, power in letters if power != 0]
    return tuple((alg, sum(p for _, p in run)) for alg, run in groupby(kept, key=lambda letter: letter[0]))
