"""Seeded job lists for the three benchmark workloads, their runners and checks.

A workload is a list of jobs plus the JSON input files they read.  A job is
one user-level request: a ``cli.main(argv)`` call, or one library call that
computes the same quantity by two routes.  Every job has a check that runs
after the timer stops and compares the output with an independent route, so a
faster but wrong path counts as a failure.

A run is a sequence of passes; each pass runs every job slot of the workload
once.  A slot keeps its kind, sizes, orders and times in every pass, so its
cost barely moves, while the inputs that do not change the cost (angles,
weights, points, words, moments, CLI seeds) are drawn afresh for each pass.
No call of one pass repeats a call of another, so a process-wide cache added
to the program cannot make a later pass cheaper than a fresh process would
be.  Everything here is a pure function of the workload name, the seed and
the pass index; the job list (inputs included) serializes byte-identically
for equal arguments.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

import monoconv as mc
from monoconv import cli
from monoconv._util import ring_grid

WORKLOADS = ("coeff", "flow", "crosscheck")

# One accuracy column per check, named <workload>.max_defect.<check>.  Each
# holds the largest defect seen on that workload (0 when it has no such job).
ACCURACY = {
    "convolve": "coeff.max_defect.convolve",
    "assoc": "coeff.max_defect.assoc",
    "affine": "coeff.max_defect.affine",
    "validate": "coeff.max_defect.validate",
    "flow_embed": "coeff.max_defect.roundtrip",
    "embed": "coeff.max_defect.embed",
    "evolve_point": "flow.max_defect.yule",
    "evolve_ring": "flow.max_defect.yule",
    "first_moment": "flow.max_defect.first_moment",
    "semigroup_defect": "flow.max_defect.semigroup",
    "cfree_check": "crosscheck.max_defect.cfree_sweep",
    "cfree_eval": "crosscheck.max_defect.cfree_eval",
    "verify_ops": "crosscheck.max_defect.verify_ops",
    "counterexample": "crosscheck.max_defect.counterexample",
    "gw": "crosscheck.max_defect.gw_sigma",
}

# Tolerances: none is looser than the repository's own tests.
TOL_CONVOLUTION = 1e-12  # associativity, affine mixture vs composition
TOL_ROUNDTRIP = 1e-3  # embedding recovers t0 * u(0)
TOL_YULE = 1e-8  # ODE vs closed-form Yule flow
TOL_FIRST_MOMENT = 1e-8
TOL_SEMIGROUP = 1e-7
TOL_OPS = 1e-10  # verify-ops and counterexample formulas
GW_SIGMAS = 4.0
GW_TRIALS = 100_000
# key of the random stream that depends on the seed alone, not on the pass
RUN_STREAM = 2**32


# -- input generators ----------------------------------------------------------


def _atoms(rng, k):
    return {
        "angles": [float(a) for a in rng.uniform(0.0, 2.0 * np.pi, k)],
        "weights": [float(w) for w in rng.dirichlet(np.ones(k))],
    }


def _atoms_obj(atoms):
    return {"atoms": [{"angle": a, "weight": w} for a, w in zip(atoms["angles"], atoms["weights"])]}


def _herglotz(rng, n_atoms):
    """Generator with total mass 1: seeds move the atoms, not the flow's speed."""
    weights = rng.uniform(0.15, 0.5, n_atoms)
    return {
        "b": float(rng.uniform(-0.3, 0.3)),
        "rho": [
            {"angle": float(a), "weight": float(w)}
            for a, w in zip(rng.uniform(0.0, 2.0 * np.pi, n_atoms), weights / weights.sum())
        ],
    }


def _yule(rng, j):
    return {"rates": {str(j): float(rng.uniform(0.8, 1.2))}}


def _point(rng, r):
    a = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _fractions(rng, n):
    return [[int(rng.integers(-9, 10)), int(rng.integers(1, 10))] for _ in range(n)]


class _Builder:
    def __init__(self, seed):
        self.seed = seed
        self.files = {}
        self.jobs = []

    def file(self, prefix, obj):
        name = f"{prefix}{len(self.files)}.json"
        self.files[name] = json.dumps(obj, sort_keys=True)
        return "@" + name

    def job(self, kind, size, argv=None, params=None, expect=None):
        job = {"id": len(self.jobs), "kind": kind, "size": size}
        if argv is not None:
            job["argv"] = argv
        if params is not None:
            job["params"] = params
        job["expect"] = expect or {}
        self.jobs.append(job)


def _build_coeff(rng, b):
    # atom counts (2 to 4) and flow times are fixed per slot
    slots = itertools.product((32, 64, 128, 256), ("atoms", "moments"), ("json", "csv"))
    for slot, (order, rep, fmt) in enumerate(slots):
        mu, nu = _atoms(rng, 2 + slot % 3), _atoms(rng, 2 + (slot + 1) % 3)
        if rep == "atoms":
            mu_obj = _atoms_obj(mu)
        else:
            m = mc.CircleMeasure.from_atoms(mu["angles"], mu["weights"]).moments(order)
            mu_obj = {"moments": [[float(z.real), float(z.imag)] for z in m]}
        argv = ["convolve", b.file("mu", mu_obj), b.file("nu", _atoms_obj(nu)),
                "--order", str(order), "--format", fmt]
        b.job("convolve", order, argv=argv, expect={"mu": mu, "nu": nu, "order": order, "format": fmt})
    for order in (64, 80, 112, 128):
        b.job("assoc", order, params={"lam": _atoms(rng, 3), "mu": _atoms(rng, 2), "nu": _atoms(rng, 4), "order": order})
    for slot, order in enumerate((64, 80, 112, 128)):
        b.job("affine", order, params={"mu": _atoms(rng, 2 + slot % 3), "nu": _atoms(rng, 3), "order": order})
    for order in (32, 64, 96, 128):
        b.job("validate", order, params={"mu": _atoms(rng, 3), "nu": _atoms(rng, 3), "order": order})
    for slot, n in enumerate((16, 16, 32, 32, 64, 64, 64, 64)):
        gen = _herglotz(rng, 2 + slot % 3)
        b.job("flow_embed", n, params={"gen": gen, "t": 0.5 + 0.1 * (slot % 4), "n": n})
    for slot, order in enumerate((16, 32, 32, 48)):
        gen = _herglotz(rng, 2 + slot % 3)
        t = 0.5 + 0.1 * slot
        k = mc.KTransform(mc.flow_coefficients(_herglotz_obj(gen), t, order))
        m = mc.moments_from_k(k, order)
        path = b.file("mut", {"moments": [[float(z.real), float(z.imag)] for z in m]})
        b.job("embed", order, argv=["embed", path, "--order", str(order)], expect={"gen": gen, "t": t})


def _build_flow(rng, b):
    # times and radii are fixed per slot and the draws move angles and
    # weights, so the ODE step counts, and with them the job costs, barely
    # vary from pass to pass or seed to seed
    for i in range(16):
        t, r = 0.4 + 0.1 * i, 0.25 + 0.025 * i
        for gen in (_herglotz(rng, 3), _herglotz(rng, 64), _yule(rng, 2 + i % 2)):
            z = _point(rng, r)
            argv = ["evolve", b.file("gen", gen), "--t", repr(t), "--z", repr(z)]
            b.job("evolve_point", 1, argv=argv, expect={"gen": gen, "times": [t], "points": [[z.real, z.imag]]})
    for points, gen in ((32, _yule(rng, 2)), (40, _herglotz(rng, 64)), (64, _herglotz(rng, 3)), (64, _herglotz(rng, 64))):
        times = [0.5, 1.5]
        pts = ring_grid((0.5,), points) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        grid = [[float(z.real), float(z.imag)] for z in pts]
        argv = ["evolve", b.file("gen", gen), "--t", ",".join(repr(t) for t in times), "--grid", b.file("grid", grid)]
        b.job("evolve_ring", points * len(times), argv=argv, expect={"gen": gen, "times": times, "points": grid})
    b.job("first_moment", 64, params={"gen": _herglotz(rng, 3), "t": 1.0})
    for gen in (_herglotz(rng, 3), _yule(rng, 2)):
        b.job("semigroup_defect", 8, params={"gen": gen, "s": 0.4, "t": 0.6})


def _build_crosscheck(rng, b):
    # several length-6 sweeps: their cost varies with the drawn moments, and
    # the many passes of a run even that out
    for max_len in (5, 6, 6, 6, 6, 6):
        b.job("cfree_check", max_len, argv=["cfree-check", "--max-len", str(max_len), "--max-power", "3",
                                             "--seed", str(int(rng.integers(0, 2**31)))],
              expect={"max_len": max_len, "max_power": 3})
    for length in (8, 9, 10, 8, 9, 10):
        start = int(rng.integers(1, 3))
        word = [[start if i % 2 == 0 else 3 - start, int(rng.integers(1, 4))] for i in range(length)]
        b.job("cfree_eval", length, params={"word": word, "phi1": _fractions(rng, 32), "phi2": _fractions(rng, 32)})
    for cases in (4, 4, 5):
        b.job("verify_ops", cases, argv=["verify-ops", "--seed", str(int(rng.integers(0, 2**31))), "--cases", str(cases)],
              expect={"cases": cases})
    for _ in range(2):
        a, c = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        b.job("counterexample", 1, argv=["counterexample", "--a", repr(a), "--b", repr(c)], expect={"a": a, "b": c})
    # The Monte Carlo check is statistical, so each slot's law and simulation
    # seed are drawn once per run: a fresh sample every pass would multiply
    # the chance of a false alarm by the pass count.  The sample points move
    # every pass, so no two gw calls of a run are equal.
    fixed = np.random.default_rng([b.seed, RUN_STREAM])
    for _ in range(6):
        # critical laws (mean offspring 1) keep population sizes, and cost, alike
        q = float(fixed.uniform(0.2, 0.3))
        p = [q, float(1.0 - 2.0 * q), q]
        sim_seed = int(fixed.integers(0, 2**31))
        zs = [float(z) for z in rng.uniform(0.2, 0.9, 2)]
        argv = ["gw", b.file("law", {"p": p}), "--n", "5", "--trials", str(GW_TRIALS),
                "--seed", str(sim_seed)]
        for z in zs:
            argv += ["--z", repr(z)]
        b.job("gw", GW_TRIALS, argv=argv, expect={"p": p, "n": 5, "z": zs})


_BUILDERS = {"coeff": _build_coeff, "flow": _build_flow, "crosscheck": _build_crosscheck}


def build(workload: str, seed: int, pass_index: int) -> dict:
    """Job list and input files of pass ``pass_index`` of ``workload`` for ``seed``.

    Pass 0 is the warm-up during set-up; timed passes count from 1.
    """
    b = _Builder(seed)
    _BUILDERS[workload](np.random.default_rng([seed, pass_index]), b)
    return {"workload": workload, "seed": seed, "pass": pass_index, "files": b.files, "jobs": b.jobs}


def serialize(spec: dict) -> bytes:
    return json.dumps(spec, sort_keys=True).encode()


def materialize(spec: dict, workdir) -> list:
    """Write the input files under ``workdir`` and resolve ``@name`` arguments."""
    for name, text in spec["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    jobs = []
    for job in spec["jobs"]:
        job = dict(job)
        if "argv" in job:
            job["argv"] = [str(workdir / a[1:]) if a.startswith("@") else a for a in job["argv"]]
        jobs.append(job)
    return jobs


def pass_order(seed: int, pass_index: int, n_jobs: int) -> list:
    """Shuffled job order of one pass; every pass runs each job exactly once."""
    return [int(i) for i in np.random.default_rng([seed, pass_index]).permutation(n_jobs)]


# -- object builders (shared by runners and checks) ------------------------------


def _measure(atoms):
    return mc.CircleMeasure.from_atoms(atoms["angles"], atoms["weights"])


def _herglotz_obj(gen):
    return mc.HerglotzGenerator(gen["b"], [(r["angle"], r["weight"]) for r in gen["rho"]])


def _generator_obj(gen):
    if "rates" in gen:
        return mc.BranchingGenerator({int(j): lam for j, lam in gen["rates"].items()})
    return _herglotz_obj(gen)


def _beta(gen):
    if "rates" in gen:
        return complex(sum(gen["rates"].values()))
    return complex(sum(r["weight"] for r in gen["rho"]), gen["b"])


def _functional(pairs):
    return mc.MomentFunctional([Fraction(n, d) for n, d in pairs])


# -- library runners -----------------------------------------------------------


def _run_assoc(p):
    lam, mu, nu, n = _measure(p["lam"]), _measure(p["mu"]), _measure(p["nu"]), p["order"]
    left = mc.monotone_convolve(mc.monotone_convolve(lam, mu, n), nu, n).moments(n)
    right = mc.monotone_convolve(lam, mc.monotone_convolve(mu, nu, n), n).moments(n)
    return left, right


def _run_affine(p):
    mu, nu, n = _measure(p["mu"]), _measure(p["nu"]), p["order"]
    return mc.monotone_convolve(mu, nu, n).moments(n), mc.affine_mixture_convolve(mu, nu, n).moments(n)


def _run_validate(p):
    n = p["order"]
    return mc.validate_k(mc.k_transform(mc.monotone_convolve(_measure(p["mu"]), _measure(p["nu"]), n), n))


def _run_flow_embed(p):
    return mc.embedding_test(mc.KTransform(mc.flow_coefficients(_herglotz_obj(p["gen"]), p["t"], p["n"])))


def _run_first_moment(p):
    return mc.first_moment_law(_herglotz_obj(p["gen"]), p["t"])


def _run_semigroup_defect(p):
    return mc.semigroup_defect(_generator_obj(p["gen"]), p["s"], p["t"], ring_grid((0.3, 0.6), 4))


def _run_cfree_eval(p):
    word = mc.Word(tuple(tuple(letter) for letter in p["word"]))
    phi1, phi2 = _functional(p["phi1"]), _functional(p["phi2"])
    return mc.cfree_eval(word, phi1, mc.MomentFunctional.delta(), phi2, phi2)


RUNNERS = {
    "assoc": _run_assoc,
    "affine": _run_affine,
    "validate": _run_validate,
    "flow_embed": _run_flow_embed,
    "first_moment": _run_first_moment,
    "semigroup_defect": _run_semigroup_defect,
    "cfree_eval": _run_cfree_eval,
}


def run_job(job):
    """Run one job; returns (seconds, output, error text or None).

    A CLI job's output is (exit code, stdout); stdout is captured in memory.
    The timer covers the call including output serialization, nothing else.
    """
    if "argv" in job:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a traceback is a failed job, the run goes on
                return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        return seconds, (code, out.getvalue()), err.getvalue() or None
    runner = RUNNERS[job["kind"]]
    t0 = time.perf_counter()
    try:
        result = runner(job["params"])
    except Exception as exc:  # a failed job is counted, the run goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


# -- checks --------------------------------------------------------------------
#
# check(job, output) -> (ok, defect, stats).  ``defect`` feeds the kind's
# accuracy column; ``stats`` holds counts summed into per-layer metrics.


def _cli_ok(output):
    return output is not None and output[0] == 0


def _max_gap(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _parse_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def _check_convolve(job, output):
    if not _cli_ok(output):
        return False, math.inf, {}
    e = job["expect"]
    n = e["order"]
    if e["format"] == "json":
        data = json.loads(output[1])
        got = [complex(re, im) for re, im in data["moments"]]
        order_ok = data["order"] == n
    else:
        header, rows = _parse_csv(output[1])
        got = [complex(r[1], r[2]) for r in rows]
        order_ok = header == ["k", "re(m)", "im(m)"] and [int(r[0]) for r in rows] == list(range(1, n + 1))
    mu, nu = _measure(e["mu"]), _measure(e["nu"])
    gap = _max_gap(got, mc.affine_mixture_convolve(mu, nu, n).moments(n))
    report = mc.validate_k(mc.k_transform(mc.CircleMeasure.from_moments(got), n)) if len(got) == n else None
    ok = order_ok and gap <= TOL_CONVOLUTION and report is not None and report.all_ok
    return ok, gap, {}


def _check_pair(job, output):
    gap = _max_gap(*output)
    n = job["params"]["order"]
    return len(output[0]) == n and gap <= TOL_CONVOLUTION, gap, {}


def _check_validate(job, report):
    defect = max(0.0, report.max_grid_modulus - 1.0, -report.min_toeplitz_eigenvalue)
    return bool(report.all_ok), defect, {}


def _roundtrip(embeddable, reason, product, gen, t, iterations):
    stats = {"embedding.iterations": iterations}
    if not (embeddable and reason == "ok" and product is not None):
        return False, math.inf, stats
    truth = t * _beta(gen)
    rel = abs(complex(product) - truth) / abs(truth)
    return rel <= TOL_ROUNDTRIP, rel, stats


def _check_flow_embed(job, v):
    p = job["params"]
    return _roundtrip(v.embeddable, v.reason, v.product, p["gen"], p["t"], v.iterations)


def _check_embed(job, output):
    if not _cli_ok(output):
        return False, math.inf, {}
    d = json.loads(output[1])
    product = complex(*d["product"]) if d.get("product") is not None else None
    e = job["expect"]
    return _roundtrip(d["embeddable"], d["reason"], product, e["gen"], e["t"], d["iterations"])


def _check_evolve(job, output):
    """|K_t(z)| < 1 everywhere; Yule generators also match the closed form."""
    if not _cli_ok(output):
        return False, math.inf, {}
    e = job["expect"]
    header, rows = _parse_csv(output[1])
    yule = "rates" in e["gen"]
    want = ["t", "re(z)", "im(z)", "re(K)", "im(K)"] + (["re(K_closed)", "im(K_closed)"] if yule else [])
    cells = [(t, complex(*z)) for t in e["times"] for z in e["points"]]
    if header != want or len(rows) != len(cells):
        return False, math.inf, {}
    ok, worst = True, 0.0
    for row, (t, z) in zip(rows, cells):
        k = complex(row[3], row[4])
        ok &= row[0] == t and complex(row[1], row[2]) == z and abs(k) < 1.0
        if yule:
            (j, lam), = e["gen"]["rates"].items()
            closed = _yule_closed(lam, int(j), t, z)
            gap = max(abs(k - closed), abs(complex(row[5], row[6]) - closed))
            worst = max(worst, gap)
    return bool(ok) and worst <= TOL_YULE, worst, {}


def _yule_closed(lam, j, t, z):
    """K_t(z) = z e^{-lam t} (1 - (1 - e^{-lam (j-1) t}) z^{j-1})^{-1/(j-1)}."""
    base = 1.0 - (1.0 - math.exp(-lam * (j - 1) * t)) * z ** (j - 1)
    return z * math.exp(-lam * t) * complex(base) ** (-1.0 / (j - 1))


def _check_first_moment(job, output):
    computed, _ = output
    p = job["params"]
    predicted = complex(np.exp(-p["t"] * _beta(p["gen"])))
    gap = abs(complex(computed) - predicted)
    return gap <= TOL_FIRST_MOMENT, gap, {}


def _check_semigroup(job, defect):
    return float(defect) <= TOL_SEMIGROUP, float(defect), {}


def _check_cfree_check(job, output):
    if not _cli_ok(output):
        return False, math.inf, {}
    d = json.loads(output[1])
    e = job["expect"]
    words = sum(2 * e["max_power"] ** k for k in range(1, e["max_len"] + 1))
    ok = d["exact_zero"] is True and d["max_defect"] == 0 and d["words_checked"] == words
    return ok, float(d["max_defect"]), {"cfree.words_checked": d["words_checked"]}


def _check_cfree_eval(job, value):
    p = job["params"]
    word = mc.Word(tuple(tuple(letter) for letter in p["word"]))
    expect = _monotone_closed(word, _functional(p["phi1"]), _functional(p["phi2"]))
    gap = abs(value - expect)
    return gap == 0, float(gap), {"cfree.words_checked": 1}


def _monotone_closed(word, phi1, phi2):
    """phi1 at the total first-algebra power times phi2 of each second-algebra letter."""
    letters = word.canonical().letters
    val = phi1(sum(p for alg, p in letters if alg == 1))
    for alg, p in letters:
        if alg == 2:
            val *= phi2(p)
    return val


def _check_verify_ops(job, output):
    if not _cli_ok(output):
        return False, math.inf, {}
    d = json.loads(output[1])
    cases = job["expect"]["cases"]
    ok = d["pass"] is True and d["max_defect"] <= TOL_OPS and len(d["case_defects"]) == cases
    return ok, float(d["max_defect"]), {}


def _check_counterexample(job, output):
    """Compare with the closed forms of the sandwich spectra and second moments."""
    if not _cli_ok(output):
        return False, math.inf, {}
    d = json.loads(output[1])
    a, b = job["expect"]["a"], job["expect"]["b"]
    ev = sorted(
        1 + sa * a / 2 + sr * 0.5 * math.sqrt(a * a + 4 * (1 + sa * a) * b * b)
        for sa in (1, -1)
        for sr in (1, -1)
    )
    m_xyx = 1 + b * b + a * a
    m_yxy = 1 + b * b + (a * a / 2) * (1 + math.sqrt(1 - b * b))
    defect = max(
        _max_gap(d["eigenvalues_xyx"], ev),
        _max_gap(d["eigenvalues_yxy"], ev),
        abs(d["second_moment_xyx"] - m_xyx),
        abs(d["second_moment_yxy"] - m_yxy),
        abs(d["sqrt_formula_defect"]),
    )
    return defect <= TOL_OPS, defect, {}


def _check_gw(job, output):
    """Empirical means within 4 standard errors of the iterated generating function."""
    if not _cli_ok(output):
        return False, math.inf, {}
    e = job["expect"]
    lines = output[1].strip().splitlines()[1:]
    rows = [[complex(cells[0])] + [float(x) for x in cells[1:]] for cells in (line.split(",") for line in lines)]
    if len(rows) != len(e["z"]) or any(row[0] != z for row, z in zip(rows, e["z"])):
        return False, math.inf, {}
    worst, ok = 0.0, True
    for row, z in zip(rows, e["z"]):
        theory = z
        for _ in range(e["n"]):
            theory = sum(pm * theory**m for m, pm in enumerate(e["p"]))
        mean, err = complex(row[1], row[2]), row[3]
        ok &= abs(complex(row[4], row[5]) - theory) <= 1e-12
        sigmas = abs(mean - theory) / err if err > 0 else (0.0 if mean == theory else math.inf)
        worst = max(worst, sigmas)
    return bool(ok) and worst <= GW_SIGMAS, worst, {}


CHECKS = {
    "convolve": _check_convolve,
    "assoc": _check_pair,
    "affine": _check_pair,
    "validate": _check_validate,
    "flow_embed": _check_flow_embed,
    "embed": _check_embed,
    "evolve_point": _check_evolve,
    "evolve_ring": _check_evolve,
    "first_moment": _check_first_moment,
    "semigroup_defect": _check_semigroup,
    "cfree_check": _check_cfree_check,
    "cfree_eval": _check_cfree_eval,
    "verify_ops": _check_verify_ops,
    "counterexample": _check_counterexample,
    "gw": _check_gw,
}


def check(job, output):
    """(ok, defect, stats) of a finished job; a check that raises fails the job."""
    try:
        ok, defect, stats = CHECKS[job["kind"]](job, output)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return False, math.inf, {"error": f"{type(exc).__name__}: {exc}"}
    return bool(ok), float(defect), stats
