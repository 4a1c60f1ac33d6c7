"""Continuous convolution semigroups as composition flows of K-transforms.

Two independent routes to K_t are provided and cross-checked in the test
suite: numerical integration of the disk ODE

    dK_t/dt = -K_t u(K_t) = v(K_t),      K_0(z) = z,

and an exact coefficient recursion obtained by matching Taylor
coefficients in the functional equation v(f(z)) = v(z) f'(z) with
f'(0) = e^{-t beta}, beta = u(0).  :func:`flow_coefficients` fills the
power table [f^k]_m of :mod:`monoconv.series` one column at a time as each
f_m becomes known, so it makes no composition at all.

:func:`evolve` is the one integrator entry point: a DOP853 loop (the
8th-order Dormand-Prince pair with 5th- and 3rd-order error estimates,
12 right-hand-side calls per step) which steps once through the sorted
distinct times of the call and records the values at each of them.  The
step control is written once; only the trial step differs with the point
count.  One point runs in Python ``complex`` arithmetic, where NumPy call
overhead would dominate, and two or more run as one array.  All points of
an array share the step, and a step is accepted only when every point
meets the local error test, so a value depends on the other points of the
same call at the level of the tolerance (identical calls give identical
values).  A trial step is rejected when any of its 12 stage inputs has
|y| >= 1 (one check after the stages) or when the field raises
DomainError, so every accepted value lies in the disk.
:func:`first_moment_law`, :func:`semigroup_defect` and
:func:`evolve_pointwise` (one time, one point) are thin callers of it.

Any generator object with ``beta``, ``series`` (the Taylor coefficients
of u) and ``vector_field_at`` works here (both
:class:`~monoconv.generator.HerglotzGenerator` and
:class:`~monoconv.branching.BranchingGenerator` qualify).  The integrator
calls ``vector_field_at`` with a Python ``complex`` when it integrates one
point and with a 1-d complex array otherwise, and expects v = -z u of the
same kind: a duck-typed field must accept both.  It may call it at stage
inputs off the disk, whose steps it then discards: the field need not
check the disk, and may return inf or NaN there or raise DomainError.
"""

from __future__ import annotations

from math import hypot, inf, sqrt

import numpy as np

from .errors import DomainError, StepSizeUnderflowError
from .series import DEFAULT_ORDER, TruncatedSeries, _fill_power_columns

__all__ = [
    "evolve",
    "evolve_pointwise",
    "flow_coefficients",
    "semigroup_defect",
    "first_moment_law",
]


# The Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.10) as a 13x13 stage matrix: rows 1-11 are the stages and
# row 12 is the 8th-order solution, so the last stage is evaluated at the new
# value and reused as the first stage of the next step (first same as last).
# _DP_E5 and _DP_E3 give the differences to the embedded 5th- and 3rd-order
# solutions, the two local error estimates; the slope at the new value has
# weight 0 in both.
_DP_A = np.zeros((13, 13))
_DP_A[1, 0] = 5.26001519587677318785587544488e-2
_DP_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_DP_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_DP_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_DP_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_DP_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
_DP_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_DP_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
]
_DP_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_DP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
]
_DP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_DP_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
]
_DP_E = np.zeros((2, 13), dtype=complex)  # both error rows, applied in one product
_DP_E5, _DP_E3 = _DP_E
_DP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
]
# the 3rd-order weights are those of row 12 less 0.2440..., 0.7338... and
# 0.0220... at stages 0, 8 and 11
_DP_E3[:12] = _DP_A[12, :12]
_DP_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]

_MAX_STEPS = 10**6  # steps of one integration, accepted or rejected
_QUARTER_EPS = 0.25 * np.finfo(float).eps

# The nonzero tableau entries, for the one-point kernel: (column, a) pairs of
# stage rows 1-12, and (column, e5, e3) triples of the error rows.
_DP_ROWS = tuple(tuple((j, float(a)) for j, a in enumerate(row) if a) for row in _DP_A[1:])
_DP_E_TERMS = tuple((j, float(e5.real), float(e3.real)) for j, (e5, e3) in enumerate(_DP_E.T) if e5 or e3)


class _PointKernel:
    """The DOP853 trial step for one point, in Python ``complex`` arithmetic.

    The same stages, error estimate and disk test as :class:`_BatchKernel`,
    with the zero tableau entries skipped: on 1-element arrays a step would
    be almost all NumPy call overhead.  Moduli are taken with ``hypot``,
    which returns inf where ``abs`` of a complex raises OverflowError.
    """

    __slots__ = ("f", "y", "abs_y", "k", "y_new", "abs_new")

    def __init__(self, f, y0: complex):
        self.f = f
        self.y = y0
        self.abs_y = hypot(y0.real, y0.imag)
        self.k = [f(y0)] + [0j] * 12  # k[j] is the slope of stage j, k[12] the one at y_new

    def trial(self, h: float) -> float:
        """Evaluate a step of size h; its error ratio, or inf when it is rejected."""
        f, k, y = self.f, self.k, self.y
        inside = True
        try:
            for i, row in enumerate(_DP_ROWS, start=1):
                s = y
                for j, a in row:
                    s += h * a * k[j]
                k[i] = f(s)
                abs_s = hypot(s.real, s.imag)
                inside = inside and abs_s < 1.0  # False on NaN
        except DomainError:  # the field refused a stage input
            return inf
        if not inside:
            return inf
        e5 = e3 = 0j
        for j, a5, a3 in _DP_E_TERMS:
            e5 += a5 * k[j]
            e3 += a3 * k[j]
        n5, n3 = hypot(e5.real, e5.imag), hypot(e3.real, e3.imag)
        sq5 = n5 * n5
        den = sqrt(sq5 + 0.01 * (n3 * n3))
        err = sq5 / den if den > 0.0 else 0.0
        self.y_new, self.abs_new = s, abs_s  # the last stage input is the new value
        return h * (err / (1.0 + max(self.abs_y, abs_s)))

    def accept(self) -> None:
        self.y, self.abs_y = self.y_new, self.abs_new
        self.k[0] = self.k[12]

    def time_scale(self) -> float:
        """|y| / |v| at the current value, from the stored slope."""
        abs_v = hypot(self.k[0].real, self.k[0].imag)
        return self.abs_y / abs_v if abs_v > 0.0 else inf


class _BatchKernel:
    """The DOP853 trial step for any number of points at once, on arrays.

    All points share the step, and it is accepted only when every point
    meets the error test.
    """

    def __init__(self, f, y0: np.ndarray):
        self.f = f
        # w[0] is the state y and w[1 + j] the stage slope k_j.  Row i of
        # c = [1 | h A] makes the input of stage i a single product c[i] . w,
        # written to row i - 1 of ys; the views are taken once, since the step
        # loop is overhead-bound for few points.
        self.w = w = np.empty((14, y0.size), dtype=complex)
        w[0] = y0
        w[1] = f(y0)
        self.y = w[0]
        self.ys = np.empty((12, y0.size), dtype=complex)
        self.c = np.ones((13, 14), dtype=complex)
        self.stages = [(self.c[i, : i + 1], w[: i + 1], self.ys[i - 1]) for i in range(1, 13)]
        self.abs_y = np.abs(y0)

    def trial(self, h: float) -> float:
        """Evaluate a step of size h; its error ratio, or inf when it is rejected."""
        f, w = self.f, self.w
        np.multiply(h, _DP_A, out=self.c[:, 1:])
        try:
            for i, (ci, wi, yi) in enumerate(self.stages, start=2):
                w[i] = f(np.dot(ci, wi, out=yi))
        except DomainError:  # the field refused a stage input
            return inf
        abs_ys = np.abs(self.ys)
        if not abs_ys.max(initial=0.0) < 1.0:  # one check for all 12 stage inputs; NaN fails it
            return inf
        self.abs_new = abs_ys[11]  # the input of the last stage is the new value
        sq5, sq3 = np.abs(_DP_E @ w[1:]) ** 2  # |e5|^2, |e3|^2
        den = np.sqrt(sq5 + 0.01 * sq3)
        err = np.divide(sq5, den, out=np.zeros_like(den), where=den > 0.0)
        return h * float((err / (1.0 + np.maximum(self.abs_y, self.abs_new))).max(initial=0.0))

    def accept(self) -> None:
        w = self.w
        w[0] = self.ys[11]
        w[1] = w[13]
        self.abs_y = self.abs_new

    def time_scale(self) -> float:
        """The least |y| / |v| over the points, from the stored slopes."""
        return float(np.fmin.reduce(self.abs_y / np.abs(self.w[1]), initial=inf))


def _integrate(f, y0: np.ndarray, t_out: list, tol: float) -> np.ndarray:
    """DOP853 integration of y' = f(y) for every entry of ``y0`` at once.

    ``t_out`` is a sorted list of distinct nonnegative output times; the result
    has one row per output time, and a row for t = 0 is ``y0`` exactly.  A
    step takes 12 new evaluations of ``f``: 11 stages and the slope at the
    new value, which is reused as the first stage of the next step.  One
    point is integrated in Python ``complex`` arithmetic, so ``f`` gets a
    ``complex``; two or more share each step on arrays, and ``f`` gets a
    1-d array.  The step control below is the same for both: the step is
    clamped to each output time in turn.  Per point the 5th- and 3rd-order
    error estimates e5 and e3 combine into err = |e5|^2 / sqrt(|e5|^2 +
    0.01 |e3|^2), and a step is accepted when every point meets err <= tol
    (1 + max(|y|, |y_new|)).  A trial step is rejected like one that fails
    the error test when any of its 12 stage inputs (the last is y_new) has
    |y| >= 1 or is NaN, or when ``f`` raises DomainError: ``f`` is called
    at stage inputs that may lie off the disk, and the values of a rejected
    step are discarded.  So every output row lies in the open disk, given
    that ``y0`` does, which the callers check.  Floating-point warnings are
    silenced for the call.
    A step at or below 0.25 eps t_end that is also at or below 0.25 eps
    times the local time scale min |y| / |v| raises
    StepSizeUnderflowError; so do more than ``_MAX_STEPS`` steps, accepted
    or not.
    """
    kernel = _PointKernel(f, complex(y0[0])) if y0.size == 1 else _BatchKernel(f, y0)
    out = np.empty((len(t_out), y0.size), dtype=complex)
    t = 0.0
    dt = 0.1
    n_steps = 0
    with np.errstate(all="ignore"):  # off-disk stages may overflow or hit an atom
        for row, t_end in enumerate(t_out):
            dt_floor = _QUARTER_EPS * t_end
            while t_end - t > 16.0 * dt_floor:  # else within machine resolution
                if n_steps >= _MAX_STEPS:
                    raise StepSizeUnderflowError(
                        f"ODE integration exceeded {_MAX_STEPS} steps before t={t_end}"
                    )
                h = min(dt, t_end - t)
                # next to an atom the flow is fast and its steps are far below
                # eps t_end; the time scale is only computed for such a step
                if (h <= dt_floor and h <= _QUARTER_EPS * kernel.time_scale()) or t + h == t:
                    raise StepSizeUnderflowError(
                        f"step size underflow at t={t} (local tolerance {tol} unreachable)"
                    )
                ratio = kernel.trial(h)
                # the DOP853 step update: safety factor 0.9, exponent 1/8, clamps 0.2 and 10
                if ratio == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, max(0.2, 0.9 * (tol / ratio) ** 0.125))
                accepted = ratio <= tol
                if accepted:
                    t += h
                    kernel.accept()
                # an accepted step clamped to an output time keeps the proposal
                dt = max(dt, h * factor) if accepted and h < dt else h * factor
                n_steps += 1
            out[row] = kernel.y
    return out


def evolve(gen, times, points, tol: float = 1e-10) -> np.ndarray:
    """K_t(z) for every requested time and point, as a (len(times), len(points)) array.

    One adaptive integration of dK/dt = v(K) from K_0(z) = z runs through
    the sorted distinct times (a list of Python floats, -0.0 counting as
    0.0), with one step shared by all points; rows come back in the
    caller's order, and rows for t = 0 are the inputs exactly.  Because the
    step is shared, a value depends on the other points of the call at the
    level of the tolerance.  Requires |z| < 1 and finite t >= 0 for every
    point and time (a ``DomainError`` otherwise), and a finite tol > 0 (a
    ``ValueError`` otherwise).  At most 10**6 steps are taken.  The modulus
    |K_t| is non-increasing along the exact flow, so the values stay inside
    the disk.
    """
    # the times are few, so they are checked, sorted and mapped in Python
    ts = np.asarray(times, dtype=float).ravel().tolist()
    zs = np.asarray(points, dtype=complex).ravel()
    if not np.all(np.abs(zs) < 1.0):
        raise DomainError("evolution is defined for |z| < 1")
    if not all(0.0 <= t < inf for t in ts):  # False on NaN
        raise DomainError("evolution time must be finite and >= 0")
    if not 0 < tol < inf:
        raise ValueError("tolerance must be positive and finite")
    grid = sorted(set(ts))
    row = {t: i for i, t in enumerate(grid)}
    return _integrate(gen.vector_field_at, zs, grid, tol)[[row[t] for t in ts]]


def evolve_pointwise(gen, t: float, z: complex, tol: float = 1e-10) -> complex:
    """K_t(z) at one time and one point; see :func:`evolve`."""
    return complex(evolve(gen, [t], [z], tol)[0, 0])


def flow_coefficients(gen, t: float, n: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Taylor coefficients f_1..f_n of K_t, from the functional equation.

    Matching the z^m coefficient of v(f(z)) = v(z) f'(z) determines f_m
    from f_1..f_{m-1} after dividing by v_1 (m - 1), so beta = u(0) must be
    nonzero; use :func:`evolve_pointwise` for beta = 0 generators.  The
    powers of f fill a power table a column at a time as each f_m becomes
    known (column m for k >= 2 needs only f_1..f_{m-1}), so step m is one
    matrix-vector product and two dot products, with no composition.
    Requires finite t >= 0.
    """
    if not 0 <= t < np.inf:
        raise DomainError("evolution time must be finite and >= 0")
    if n < 1:
        raise ValueError("need at least one coefficient")
    beta = complex(gen.beta)
    if beta == 0:
        raise DomainError(
            "coefficient recursion needs u(0) != 0; use evolve_pointwise instead"
        )
    v = np.zeros(n + 1, dtype=np.complex128)  # v(z) = -z u(z)
    v[1:] = -gen.series(n - 1).coeffs
    table = np.zeros((n + 1, n + 1), dtype=np.complex128)  # table[k, m] = [f^k]_m
    f = table[1]  # row 1 of the table is f itself, solved for in place
    df = np.zeros(n + 1, dtype=np.complex128)  # coefficients k f_k of z f'(z)
    f[1] = df[1] = np.exp(-t * beta)
    v1 = v[1]  # equals -beta
    for m in range(2, n + 1):
        _fill_power_columns(table, m, m + 1)
        lhs_lower = np.dot(v[2 : m + 1], table[2 : m + 1, m])  # v(f) without the v1*f_m term
        rhs = np.dot(df[1:m], v[m:1:-1])  # sum_k k f_k v_(m+1-k), k = 1..m-1
        f[m] = (rhs - lhs_lower) / ((1 - m) * v1)
        df[m] = m * f[m]
    return TruncatedSeries(f)


def semigroup_defect(gen, s: float, t: float, grid) -> float:
    """max over the grid of |K_{s+t}(z) - K_s(K_t(z))|, both sides by ODE.

    Every integration runs at the local tolerance 1e-10; for an exact
    semigroup the defect is pure integration error, roughly within 100x
    that tolerance.
    """
    if s < 0 or t < 0:
        raise DomainError("semigroup times must be >= 0")
    zs = np.asarray(grid, dtype=complex).ravel()
    lhs = evolve(gen, [s + t], zs)[0]
    rhs = evolve(gen, [s], evolve(gen, [t], zs)[0])[0]
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def first_moment_law(gen, t: float):
    """(computed m_1 of mu_t, predicted e^{-t u(0)}).

    The computed value is the contour average
    m_1 = (1/M) sum_j K_t(r e^{i theta_j}) e^{-i theta_j} / r
    over the ODE flow at M = 64 nodes on the circle r = 0.5, integrated at
    the local tolerance 1e-12: an oracle independent of the coefficient
    recursion, whose aliasing error is below r^M.  Works for u(0) = 0 as
    well.
    """
    if t < 0:
        raise DomainError("evolution time must be >= 0")
    radius, nodes = 0.5, 64
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * theta)
    vals = evolve(gen, [t], ring, 1e-12)[0]
    computed = complex(np.mean(vals * np.exp(-1j * theta)) / radius)
    predicted = complex(np.exp(-t * complex(gen.beta)))
    return computed, predicted
