"""Truncated complex power series arithmetic.

Every analytic transform in this package (moment generating functions,
K-transforms, vector fields, semigroup flows) is carried numerically as a
Taylor polynomial around 0, together with its truncation order N.  The
order is explicit in every operation: binary operations between series of
different orders truncate to the smaller order, because a composition or
product only determines that many coefficients reliably.  Accessing a
coefficient beyond the truncation order raises instead of silently
returning zero.

Composition evaluates f(g) = sum_k f_k g^k by baby steps and giant steps
(Paterson & Stockmeyer 1973; Brent & Kung 1978 for power series).  With
s = ceil(sqrt(n + 1)), it stacks the baby steps g^0..g^(s-1), gets every
block B_j(g) = sum_{i<s} f_(js+i) g^i from one matrix product, and runs
Horner in the giant step G = g^s: about 2 sqrt(n) truncated series
products and O(n sqrt(n)) memory at order n.  Since g(0) = 0, g^k =
O(z^k), and block j is multiplied by G^j = O(z^(js)); each product keeps
only the degrees that can still reach z^n.

The whole truncated power table P[k, m] = [g^k]_m is built only where all
of it is needed: by the Koenigs solve of :mod:`~monoconv.embedding` and
by :func:`~monoconv.semigroup.flow_coefficients`.  Both fill it a column
at a time with :func:`_fill_power_columns` as their solve reaches the
column, the flow while it is still solving for g.  The table is
triangular, and column m of g^k = g^(k-1) g needs only g_1..g_(m-1) and
the columns before m: one matrix-vector product per column, about n^3/3
multiply-adds.

Division by Newton doubling (Brent & Kung 1978): the reciprocal b of a
series a starts from b_0 = 1/a_0, and each step b <- b (2 - a b) doubles
the number of correct coefficients, from k to m = min(2k, N + 1).  Since
a b = 1 + O(z^k), a step needs only r = [a b]_k..[a b]_(m-1) and then
b_k..b_(m-1) = -[b r]_0..[b r]_(m-k-1): two convolutions.  That is
ceil(log2(N + 1)) steps and O(N) memory, and the coefficient loop runs
inside numpy: no Python loop per coefficient, where forward substitution
makes one dot product call for each.

:func:`horner` is the one polynomial evaluator of the package, for
series, K-transforms and offspring generating functions alike.

Coefficients are double-precision complex numbers.  Series are immutable;
every operation returns a new instance.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import integral_at_least
from .errors import DomainError

#: Default truncation order used throughout the package.
DEFAULT_ORDER = 32


def horner(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule, for a scalar or an array ``z``.

    ``coeffs`` is any sequence c_0..c_N.  ``z`` is used as given, so a
    scalar stays on scalar arithmetic.  An array value may differ from the
    scalar value at the same point in the last bits: numpy's vectorised
    complex multiply may fuse multiply-adds where the scalar one does not.
    """
    acc = 0j
    for ck in coeffs[::-1]:
        acc = acc * z + ck
    return acc


def _fill_power_columns(table: np.ndarray, start: int, stop: int) -> None:
    """Fill columns start..stop-1 of a power table in place, rows 2 and up.

    ``table[k, m]`` is [g^k]_m for a series g with g(0) = 0; row 1 holds g
    and is read, never written, so a caller may still be solving for its
    later entries.  Column m needs only g_1..g_(m-1) and columns 1..m-1:
    [g^k]_m = sum_j [g^(k-1)]_j g_(m-j), one matrix-vector product.
    Entries below the diagonal (k > m) are left as they are, zero in a
    zero-initialised table.
    """
    for m in range(start, stop):
        # a contiguous copy of g_(m-1)..g_1 keeps the product in BLAS
        table[2 : m + 1, m] = table[1:m, 1:m] @ table[1, m - 1 : 0 : -1].copy()


class TruncatedSeries:
    """A polynomial c_0 + c_1 z + ... + c_N z^N standing in for a power series.

    Parameters
    ----------
    coeffs : sequence of complex
        Coefficients c_0..c_N in increasing order.  N = len(coeffs) - 1.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        arr.setflags(write=False)
        self._c = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """The series z."""
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, degree: int, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """z^degree truncated at ``order``: integers with 0 <= degree <= order."""
        degree = integral_at_least(degree, "monomial degree", 0)
        order = integral_at_least(order, "truncation order", degree)
        c = np.zeros(order + 1, dtype=np.complex128)
        c[degree] = 1.0
        return cls(c)

    # -- basic access ------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array c_0..c_N."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __getitem__(self, k: int) -> complex:
        if not 0 <= k <= self.order:
            raise IndexError(
                f"coefficient {k} requested but series is truncated at order {self.order}"
            )
        return complex(self._c[k])

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order``, an integer >= 0 (never extends)."""
        order = integral_at_least(order, "truncation order", 0)
        if order >= self.order:
            return self
        return TruncatedSeries(self._c[: order + 1])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(self._c[: n + 1] + other._c[: n + 1])
        c = self._c.copy()
        c[0] += other
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self._c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            prod = np.convolve(self._c[: n + 1], other._c[: n + 1])[: n + 1]
            return TruncatedSeries(prod)
        return TruncatedSeries(self._c * complex(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse through order N, the one series division; needs c_0 != 0.

        Newton doubling (see the module docstring): ceil(log2(N + 1)) steps
        of two convolutions each, O(N) memory.
        """
        a = self._c
        if a[0] == 0:
            raise DomainError("reciprocal of a series with zero constant term")
        n = self.order
        b = np.empty(n + 1, dtype=np.complex128)
        b[0] = 1.0 / a[0]
        for k in (1 << j for j in range(n.bit_length())):  # k = 1, 2, 4, ... <= n
            m = min(2 * k, n + 1)
            # a b = 1 + z^k r + O(z^m), so b (1 - z^k r) is right through z^(m-1)
            r = np.convolve(a[:m], b[:k])[k:m]
            b[k:m] = -np.convolve(b[:k], r)[: m - k]
        return TruncatedSeries(b)

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            return TruncatedSeries([0.0])
        k = np.arange(1, self.order + 1)
        return TruncatedSeries(self._c[1:] * k)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficients of self(inner(z)) through order min(N_self, N_inner).

        ``inner`` must have zero constant term, otherwise the truncated
        composition would depend on coefficients beyond the stored order.
        Baby steps and giant steps (see the module docstring): about
        2 sqrt(n) truncated products and one (n/s) x s x n matrix product
        at order n, with s = ceil(sqrt(n + 1)).
        """
        if inner._c[0] != 0:
            raise DomainError("inner series of a composition must have zero constant term")
        n = min(self.order, inner.order)
        g = inner._c[: n + 1]
        s = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
        blocks = -(-(n + 1) // s)
        baby = np.zeros((s, n + 1), dtype=np.complex128)
        baby[0, 0] = 1.0
        for k in range(1, s):  # g^k, whose first k coefficients are zero
            baby[k, k:] = np.convolve(baby[k - 1, k - 1 : n], g[1 : n + 2 - k])[: n + 1 - k]
        f = np.zeros(blocks * s, dtype=np.complex128)
        f[: n + 1] = self._c[: n + 1]
        b = f.reshape(blocks, s) @ baby  # b[j] = B_j(g)
        acc = b[-1, : n + 1 - (blocks - 1) * s]
        if blocks > 1:
            # G = g^s = z^s h; the Horner accumulator for blocks j.. is later
            # multiplied by G^j, so it is needed only through degree n - js
            h = np.convolve(baby[s - 1, s - 1 : n], g[1 : n + 2 - s])[: n + 1 - s]
            for j in range(blocks - 2, -1, -1):
                nxt = b[j, : n + 1 - j * s].copy()
                nxt[s:] += np.convolve(acc, h[: acc.size])[: acc.size]
                acc = nxt
        return TruncatedSeries(acc)

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """The truncated polynomial at a scalar or an array ``z``, by :func:`horner`.

        The caller picks |z| small enough for the truncation to be
        acceptable: when all |c_k| <= 1 the dropped tail is bounded by
        |z|^(N+1) / (1 - |z|).
        """
        return horner(self._c, z)

    # -- comparison / repr -------------------------------------------------

    def isclose(self, other: "TruncatedSeries", tol: float = 1e-12) -> bool:
        n = min(self.order, other.order)
        return bool(np.max(np.abs(self._c[: n + 1] - other._c[: n + 1])) <= tol)

    def __repr__(self):
        head = ", ".join(f"{c:.3g}" for c in self._c[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"
