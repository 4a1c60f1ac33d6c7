"""Finite-dimensional operator models of monotone independence.

Everything here is dense linear algebra on small matrices: a model is a
Hilbert space C^dim with a distinguished unit state vector and named
operators.  The tensor-product construction X -> X (x) P, Y -> 1 (x) Y
realizes monotone independence exactly, which turns the composition rule
for K-transforms and the half-line counterexample into checkable matrix
identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from ._util import atoms, integral_at_least

__all__ = [
    "MatrixModel",
    "monotone_product",
    "check_monotone_independence",
    "k_operator",
    "operator_moments",
    "k_composition_defect",
    "random_composition_suite",
    "sandwich_counterexample",
    "SandwichReport",
    "matrix_sqrt_hermitian",
    "spectral_norm",
    "random_unitary",
    "diagonal_unitary_model",
]

_FORM_TOL = 1e-10


@dataclass(frozen=True)
class MatrixModel:
    """State vector plus named operators on C^dim.

    ``factors`` records the two constituent models when the instance was
    built by :func:`monotone_product` (needed for structural checks).
    """

    dim: int
    state: np.ndarray
    operators: dict
    factors: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex).reshape(self.dim)
        if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("state vector must have unit norm")
        object.__setattr__(self, "state", state)
        ops = {}
        for name, mat in self.operators.items():
            m = np.asarray(mat, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"operator {name!r} is not {self.dim}x{self.dim}")
            if not np.isfinite(m).all():
                raise ValueError(f"operator {name!r} has non-finite entries")
            ops[name] = m
        object.__setattr__(self, "operators", ops)

    def expectation(self, x) -> complex:
        """<state, x state> for a matrix or an operator name."""
        if isinstance(x, str):
            x = self.operators[x]
        return complex(np.vdot(self.state, x @ self.state))

    def with_operator(self, name: str, matrix) -> "MatrixModel":
        ops = dict(self.operators)
        ops[name] = matrix
        return replace(self, operators=ops)


def monotone_product(m1: MatrixModel, m2: MatrixModel) -> MatrixModel:
    """Tensor model with m1 operators as X (x) P2 and m2 operators as 1 (x) Y.

    P2 projects onto the second state vector; the product state is the
    tensor of the factor states, and both embeddings preserve expectations.
    Operator names must not collide.
    """
    clash = set(m1.operators) & set(m2.operators)
    if clash:
        raise ValueError(f"operator name collision: {sorted(clash)}")
    p2 = np.outer(m2.state, m2.state.conj())
    eye1 = np.eye(m1.dim)
    ops = {name: np.kron(x, p2) for name, x in m1.operators.items()}
    ops.update({name: np.kron(eye1, y) for name, y in m2.operators.items()})
    return MatrixModel(
        dim=m1.dim * m2.dim,
        state=np.kron(m1.state, m2.state),
        operators=ops,
        factors=(m1, m2),
    )


def _random_word(rng, model, names, max_len):
    length = int(rng.integers(1, max_len + 1))
    w = np.eye(model.dim, dtype=complex)
    for _ in range(length):
        w = w @ model.operators[names[int(rng.integers(len(names)))]]
    return w


def check_monotone_independence(
    model: MatrixModel,
    left_names,
    right_names,
    word_len: int = 4,
    trials: int = 64,
    seed: int = 0,
) -> float:
    """Max defect of the two independence conditions over random words.

    Condition (a): X Y Z = Phi(Y) X Z in operator norm, X, Z products of
    left operators, Y a product of right operators.  Condition (b):
    Phi(X Y Z) = Phi(X) Phi(Y) Phi(Z) with the roles swapped.  Empty
    operator lists make the conditions vacuous (defect 0).  ``word_len``
    and ``trials`` must be integers >= 1.
    """
    word_len = integral_at_least(word_len, "word_len", 1)
    trials = integral_at_least(trials, "trials", 1)
    left = list(left_names)
    right = list(right_names)
    if not left or not right:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = _random_word(rng, model, left, word_len)
        z = _random_word(rng, model, left, word_len)
        y = _random_word(rng, model, right, word_len)
        lhs = x @ y @ z
        rhs = model.expectation(y) * (x @ z)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))

        x2 = _random_word(rng, model, right, word_len)
        z2 = _random_word(rng, model, right, word_len)
        y2 = _random_word(rng, model, left, word_len)
        scalar = model.expectation(x2 @ y2 @ z2) - model.expectation(
            x2
        ) * model.expectation(y2) * model.expectation(z2)
        worst = max(worst, abs(scalar))
    return worst


def spectral_norm(x) -> float:
    """Largest singular value of ``x`` (by SVD, exact to rounding).

    :func:`k_operator` takes its domain bound |z| < 1/||x|| from it, so it
    must not fall short the way an iterative estimate can.
    """
    return float(np.linalg.norm(np.asarray(x, dtype=complex), 2))


def k_operator(x, omega, z):
    """K-transform of the operator ``x`` in the vector state ``omega``.

    psi(z) = <omega, z x (1 - z x)^{-1} omega>, then K = psi / (1 + psi).
    ``z`` is a scalar (the result is a ``complex``) or an array of points
    (the result has its shape); all points are solved in one batched
    linear solve against one norm, :func:`spectral_norm`.  Every point must
    satisfy |z| < 1/||x||; for a unitary x that bound is 1 up to rounding.
    """
    x = np.asarray(x, dtype=complex)
    omega = np.asarray(omega, dtype=complex).ravel()
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    bound = 1.0 / max(spectral_norm(x), 1e-300)
    if not np.all(np.abs(flat) < bound):
        raise DomainError(f"|z| must be below {bound:.6g} for this operator")
    resolvents = np.eye(x.shape[0]) - flat[:, None, None] * x
    try:
        w = np.linalg.solve(resolvents, omega[:, None])
    except np.linalg.LinAlgError as exc:
        raise DomainError("resolvent is singular at one of the points") from exc
    psi = flat * ((x @ w)[..., 0] @ omega.conj())
    vanish = np.abs(1.0 + psi) < 1e-14
    if vanish.any():
        raise DomainError(
            f"1 + psi vanishes at z={complex(flat[vanish][0])!r}; K-transform undefined there"
        )
    k = (psi / (1.0 + psi)).reshape(zs.shape)
    return k if k.ndim else complex(k)


def operator_moments(x, omega, n: int) -> np.ndarray:
    """Moments <omega, x^k omega>, k = 1..n, for an integer n >= 0."""
    n = integral_at_least(n, "n", 0)
    x = np.asarray(x, dtype=complex)
    v = np.asarray(omega, dtype=complex).ravel()
    out = np.zeros(n, dtype=complex)
    w = v
    for k in range(n):
        w = x @ w
        out[k] = np.vdot(v, w)
    return out


def _in_left_image(model: MatrixModel, mat) -> bool:
    """True when ``mat`` has the form A (x) P2 of the left embedding."""
    m1, m2 = model.factors
    p2 = np.outer(m2.state, m2.state.conj())
    proj = np.kron(np.eye(m1.dim), p2)
    return bool(np.linalg.norm(mat - proj @ mat @ proj, 2) <= _FORM_TOL)


def _in_right_image(model: MatrixModel, mat) -> bool:
    """True when ``mat`` has the form 1 (x) B of the right embedding."""
    m1, m2 = model.factors
    d1, d2 = m1.dim, m2.dim
    blocks = mat.reshape(d1, d2, d1, d2)
    b = np.trace(blocks, axis1=0, axis2=2) / d1  # partial trace over the left factor
    return bool(np.linalg.norm(mat - np.kron(np.eye(d1), b), 2) <= _FORM_TOL)


def k_composition_defect(model: MatrixModel, v1: str, v2: str, w: str, z_grid) -> float:
    """max over the grid of |K_{V1 W V2}(z) - K_{V1 V2}(K_W(z))|.

    ``model`` must be a monotone product; V1, V2 must be scalar + left
    image with V2 V1 - 1 in the left image, and W must lie in the right
    image, otherwise the composition rule does not apply and a domain
    error is raised.
    """
    if model.factors is None:
        raise DomainError("model does not carry a tensor factorization")
    mv1 = model.operators[v1]
    mv2 = model.operators[v2]
    mw = model.operators[w]
    eye = np.eye(model.dim)
    if not _in_left_image(model, mv2 @ mv1 - eye):
        raise DomainError("V2 V1 - 1 has a component outside the left image")
    if not _in_right_image(model, mw):
        raise DomainError("W has a component outside the right image")
    omega = model.state
    zs = np.asarray(z_grid, dtype=complex).ravel()
    lhs = k_operator(mv1 @ mw @ mv2, omega, zs)
    rhs = k_operator(mv1 @ mv2, omega, k_operator(mw, omega, zs))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_contraction(rng, dim: int, radius: float = 0.6) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (radius * rng.uniform(0.3, 1.0) / max(spectral_norm(a), 1e-300))


def random_composition_suite(seed: int = 0, cases: int = 100) -> dict:
    """Composition-rule defects over random seeded monotone-product models.

    Each case draws factor dimensions from {(2,2), (2,3), (3,2)}, random
    states, contractions of norm <= 0.8 for the left generators and the
    right operator, unit-modulus scalar parts with a2 = 1/a1 (which puts
    V2 V1 - 1 in the left image), and 20 points with |z| <= 0.2.  Returns
    the worst defect (over >= 1 cases) and per-case summaries.
    """
    if cases < 1:
        raise ValueError("need at least one case")
    points_per_case, z_radius = 20, 0.2
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (2, 3), (3, 2)]
    worst = 0.0
    case_defects = []
    for _ in range(cases):
        d1, d2 = dims[int(rng.integers(len(dims)))]
        m1 = MatrixModel(
            d1,
            _random_state(rng, d1),
            {"A1": _random_contraction(rng, d1), "A2": _random_contraction(rng, d1)},
        )
        m2 = MatrixModel(d2, _random_state(rng, d2), {"W": _random_contraction(rng, d2)})
        prod = monotone_product(m1, m2)
        phase = np.exp(2j * np.pi * rng.uniform())
        eye = np.eye(prod.dim)
        model = prod.with_operator(
            "V1", phase * eye + prod.operators["A1"]
        ).with_operator("V2", np.conj(phase) * eye + prod.operators["A2"])
        r = z_radius * np.sqrt(rng.uniform(size=points_per_case))
        th = 2.0 * np.pi * rng.uniform(size=points_per_case)
        defect = k_composition_defect(model, "V1", "V2", "W", r * np.exp(1j * th))
        case_defects.append(defect)
        worst = max(worst, defect)
    return {
        "seed": seed,
        "cases": cases,
        "points_per_case": points_per_case,
        "z_radius": z_radius,
        "max_defect": worst,
        "case_defects": case_defects,
    }


def matrix_sqrt_hermitian(a) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix by eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    if np.min(w) < -1e-12 * max(1.0, float(np.max(np.abs(w)))):
        raise DomainError("matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _m2(x: float) -> np.ndarray:
    return np.array([[1.0, x], [x, 1.0]])


@dataclass(frozen=True)
class SandwichReport:
    """Spectra and second moments of the two sandwich products.

    For positive X, Y with X - 1 and Y - 1 monotonically independent, the
    operators sqrt(X) Y sqrt(X) and sqrt(Y) X sqrt(Y) share their nonzero
    spectrum but have different distributions in the product state, so the
    two candidate definitions of a half-line convolution disagree.
    """

    a: float
    b: float
    eigenvalues_xyx: tuple
    eigenvalues_yxy: tuple
    eigenvalues_formula: tuple
    second_moment_xyx: float
    second_moment_yxy: float
    second_moment_xyx_formula: float
    second_moment_yxy_formula: float
    sqrt_formula_defect: float


def sandwich_counterexample(a: float, b: float) -> SandwichReport:
    """Compare the two sandwich convolutions on the explicit 4x4 pair.

    X = 1 + (M(a) - 1) restricted to the state component, Y = 1 (x) M(b),
    with M(x) the 2x2 matrix with unit diagonal and off-diagonal x; the
    state is the fourth basis vector.  Eigenvalues follow the closed forms
    1 +- a/2 +- sqrt(a^2 + 4(1 +- a) b^2)/2 and the second moments are
    1 + b^2 + a^2 and 1 + b^2 + (a^2/2)(1 + sqrt(1 - b^2)).
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise DomainError("parameters must lie in the open interval (0, 1)")
    eye2 = np.eye(2)
    p_omega = np.diag([0.0, 1.0])
    x = np.eye(4) + np.kron(p_omega, _m2(a) - eye2)
    y = np.kron(_m2(b), eye2)
    sx = matrix_sqrt_hermitian(x)
    sy = matrix_sqrt_hermitian(y)

    # explicit root of M(a); the spectral route must reproduce it
    sp, sm = np.sqrt(1.0 + a), np.sqrt(1.0 - a)
    sqrt_m_a = 0.5 * np.array([[sp + sm, sp - sm], [sp - sm, sp + sm]])
    sqrt_defect = float(
        np.max(np.abs(matrix_sqrt_hermitian(_m2(a)) - sqrt_m_a))
    )

    xyx = sx @ y @ sx
    yxy = sy @ x @ sy
    ev_xyx = np.sort(np.linalg.eigvalsh(xyx))
    ev_yxy = np.sort(np.linalg.eigvalsh(yxy))
    formula = np.sort(
        [
            1 + a / 2 + 0.5 * np.sqrt(a * a + 4 * (1 + a) * b * b),
            1 + a / 2 - 0.5 * np.sqrt(a * a + 4 * (1 + a) * b * b),
            1 - a / 2 + 0.5 * np.sqrt(a * a + 4 * (1 - a) * b * b),
            1 - a / 2 - 0.5 * np.sqrt(a * a + 4 * (1 - a) * b * b),
        ]
    )
    omega = np.zeros(4)
    omega[3] = 1.0
    m_xyx = float(np.real(omega @ (xyx @ xyx) @ omega))
    m_yxy = float(np.real(omega @ (yxy @ yxy) @ omega))
    return SandwichReport(
        a=a,
        b=b,
        eigenvalues_xyx=tuple(float(v) for v in ev_xyx),
        eigenvalues_yxy=tuple(float(v) for v in ev_yxy),
        eigenvalues_formula=tuple(float(v) for v in formula),
        second_moment_xyx=m_xyx,
        second_moment_yxy=m_yxy,
        second_moment_xyx_formula=1.0 + b * b + a * a,
        second_moment_yxy_formula=1.0 + b * b + (a * a / 2.0) * (1.0 + np.sqrt(1.0 - b * b)),
        sqrt_formula_defect=sqrt_defect,
    )


def diagonal_unitary_model(angles, weights, name: str) -> MatrixModel:
    """Atomic circle measure realized as a diagonal unitary.

    The state carries the square roots of the weights, so operator moments
    of the named unitary equal the measure moments.  The atoms are checked
    as a CircleMeasure's (a ``ValueError`` otherwise).
    """
    a, w = atoms(angles, weights)
    u = np.diag(np.exp(1j * a))
    return MatrixModel(a.size, np.sqrt(w).astype(complex), {name: u})
