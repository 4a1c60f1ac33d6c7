"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from monoconv._util import ring_grid
from monoconv.branching import BranchingGenerator, OffspringLaw, simulate_gw, yule_flow
from monoconv.cfree import CFreeEvaluator, MomentFunctional, monotone_specialization_defect
from monoconv.convolution import monotone_convolve
from monoconv.embedding import embedding_test
from monoconv.generator import HerglotzGenerator
from monoconv.measure import CircleMeasure, KTransform
from monoconv.opmodel import (
    MatrixModel,
    diagonal_unitary_model,
    monotone_product,
    operator_moments,
    random_composition_suite,
    sandwich_counterexample,
)
from monoconv.semigroup import evolve_pointwise, first_moment_law, flow_coefficients


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def seeded_herglotz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rho = [(a, w) for a, w in zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.15, 0.5, n))]
    return HerglotzGenerator(b=rng.uniform(-0.3, 0.3), rho=rho)


def test_criterion_01_appendix_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for a in (0.3, 0.5, 0.9):
        for b in (0.3, 0.5, 0.9):
            rep = sandwich_counterexample(a, b)
            worst = max(
                worst,
                float(np.max(np.abs(np.array(rep.eigenvalues_xyx) - rep.eigenvalues_formula))),
                float(np.max(np.abs(np.array(rep.eigenvalues_yxy) - rep.eigenvalues_formula))),
                abs(rep.second_moment_xyx - rep.second_moment_xyx_formula),
                abs(rep.second_moment_yxy - rep.second_moment_yxy_formula),
            )
    elapsed = time.perf_counter() - start
    report(
        "01 appendix-reproduction",
        worst <= 1e-10 and elapsed < 1.0,
        f"max defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_composition_rule_suite():
    start = time.perf_counter()
    rep = random_composition_suite(seed=20260810, cases=100)
    elapsed = time.perf_counter() - start
    report(
        "02 composition-rule-suite",
        rep["max_defect"] <= 1e-10 and elapsed < 30.0,
        f"max defect {rep['max_defect']:.2e} over 100 models, {elapsed:.2f}s",
    )


def test_criterion_03_yule_oracle_triangle():
    start = time.perf_counter()
    worst = 0.0
    zs = ring_grid((0.1, 0.2, 0.3), 6)
    for k in (2, 3):
        gen = BranchingGenerator.yule(1.0, k)
        for t in (0.25, 0.5, 1.0, 2.0):
            series = flow_coefficients(gen, t, 20)
            for z in zs:
                closed = yule_flow(1.0, k, t, z)
                ode = evolve_pointwise(gen, t, z, 1e-10)
                poly = series(z)
                worst = max(worst, abs(ode - closed), abs(poly - closed), abs(ode - poly))
    elapsed = time.perf_counter() - start
    report(
        "03 yule-oracle-triangle",
        worst <= 1e-8 and elapsed < 10.0,
        f"max pairwise gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_semigroup_flow():
    worst = 0.0
    grid = ring_grid((0.3, 0.6), 4)
    tol = 1e-10
    for gen in (BranchingGenerator.yule(1.0, 2), HerglotzGenerator.uniform()):
        for s in (0.3, 0.7):
            for t in (0.3, 0.7):
                for z in grid:
                    lhs = evolve_pointwise(gen, s + t, z, tol)
                    rhs = evolve_pointwise(gen, s, evolve_pointwise(gen, t, z, tol), tol)
                    worst = max(worst, abs(lhs - rhs))
    report("04 semigroup-flow", worst <= 1e-7, f"max defect {worst:.2e}")


def test_criterion_05_exact_convolution():
    two_point = CircleMeasure.from_atoms([0.0, np.pi], [0.5, 0.5])
    m = monotone_convolve(two_point, two_point, 16).moments(16)
    expect = np.array([1.0 if k % 4 == 0 else 0.0 for k in range(1, 17)])
    square_defect = float(np.max(np.abs(m - expect)))

    rng = np.random.default_rng(55)
    assoc_defect = 0.0
    for _ in range(10):
        lam = CircleMeasure.from_atoms(rng.uniform(0, 2 * np.pi, 3), rng.dirichlet(np.ones(3)))
        mu = CircleMeasure.from_atoms(rng.uniform(0, 2 * np.pi, 2), rng.dirichlet(np.ones(2)))
        nu = CircleMeasure.from_atoms(rng.uniform(0, 2 * np.pi, 4), rng.dirichlet(np.ones(4)))
        left = monotone_convolve(monotone_convolve(lam, mu, 16), nu, 16).moments(16)
        right = monotone_convolve(lam, monotone_convolve(mu, nu, 16), 16).moments(16)
        assoc_defect = max(assoc_defect, float(np.max(np.abs(left - right))))
    report(
        "05 exact-convolution",
        square_defect <= 1e-12 and assoc_defect <= 1e-12,
        f"square {square_defect:.2e}, associativity {assoc_defect:.2e}",
    )


def test_criterion_06_embedding_verdicts():
    v = embedding_test(KTransform.from_coefficients([0, 0.5] + [0.0] * 15))
    scaling_ok = (
        v.embeddable
        and abs(v.t0 - np.log(2)) <= 1e-6
        and max(abs(u - 1) for u in v.u_estimate) <= 1e-6
    )

    v2 = embedding_test(KTransform.monomial(2, 16))
    square_ok = (not v2.embeddable) and v2.reason == "derivative_vanishes"

    gen = seeded_herglotz(2026)
    t0 = 0.7
    v3 = embedding_test(KTransform(flow_coefficients(gen, t0, 32)))
    true_product = t0 * gen.beta
    rel = abs(v3.product - true_product) / abs(true_product) if v3.embeddable else np.inf
    round_trip_ok = v3.embeddable and rel <= 1e-3

    report(
        "06 embedding-verdicts",
        scaling_ok and square_ok and round_trip_ok,
        f"t0 err {abs(v.t0 - np.log(2)):.1e}, round-trip rel err {rel:.1e}",
    )


def test_criterion_07_first_moment_law():
    worst = 0.0
    for seed in (101, 102, 103):
        gen = seeded_herglotz(seed)
        for t in (0.5, 1.5):
            computed, predicted = first_moment_law(gen, t)
            worst = max(worst, abs(computed - predicted))
    report("07 first-moment-law", worst <= 1e-8, f"max gap {worst:.2e}")


def test_criterion_08_gw_monte_carlo():
    start = time.perf_counter()
    sim = simulate_gw(OffspringLaw([0, 0.5, 0.5]), 5, 100_000, [0.3, 0.5, 0.8], seed=8)
    elapsed = time.perf_counter() - start
    ok = all(
        abs(mean - theory) <= 4 * err
        for mean, err, theory in zip(sim.means, sim.stderrs, sim.theory)
    )
    gaps = ", ".join(
        f"{abs(m - th) / e if e else 0:.1f}sigma" for m, e, th in zip(sim.means, sim.stderrs, sim.theory)
    )
    report("08 gw-monte-carlo", ok and elapsed < 20.0, f"{gaps}, {elapsed:.2f}s")


def test_criterion_09_cfree_specialization(monkeypatch):
    evaluators = []
    init = CFreeEvaluator.__init__

    def recording(self, *functionals):
        init(self, *functionals)
        evaluators.append(self)

    monkeypatch.setattr(CFreeEvaluator, "__init__", recording)
    rng = np.random.default_rng(9)
    phi1 = MomentFunctional([int(rng.integers(-5, 6)) for _ in range(32)])
    phi2 = MomentFunctional([int(rng.integers(-5, 6)) for _ in range(32)])
    defect, count = monotone_specialization_defect(phi1, phi2, max_len=8, max_power=4)
    report(
        "09 cfree-specialization",
        defect == 0,
        f"defect {defect!r} over {count} words (exact integer arithmetic)",
    )
    # the words and the drop states their walks reach, nothing more
    assert [len(evaluator._memo) for evaluator in evaluators] == [247_040]


def test_criterion_10_moment_bridge():
    worst = 0.0
    for seed in (31, 32):
        rng = np.random.default_rng(seed)
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        angles1, w1 = rng.uniform(0, 2 * np.pi, n1), rng.dirichlet(np.ones(n1))
        angles2, w2 = rng.uniform(0, 2 * np.pi, n2), rng.dirichlet(np.ones(n2))
        m1 = diagonal_unitary_model(angles1, w1, "U")
        m1 = MatrixModel(m1.dim, m1.state, {**m1.operators, "One": np.eye(m1.dim)})
        m2 = diagonal_unitary_model(angles2, w2, "V")
        prod = monotone_product(m1, m2)
        u_bar = np.eye(prod.dim) + prod.operators["U"] - prod.operators["One"]
        got = operator_moments(u_bar @ prod.operators["V"], prod.state, 12)
        mu = CircleMeasure.from_atoms(angles1, w1)
        nu = CircleMeasure.from_atoms(angles2, w2)
        expect = monotone_convolve(mu, nu, 12).moments(12)
        worst = max(worst, float(np.max(np.abs(got - expect))))
    report("10 moment-bridge", worst <= 1e-10, f"max gap {worst:.2e}")
