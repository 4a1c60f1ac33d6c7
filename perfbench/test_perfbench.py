"""Self-tests of the benchmark: determinism, tracer coverage, bypasses, checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import monoconv  # noqa: E402
from monoconv import cli, measure, series  # noqa: E402

SEED = 3

# workloads on which each boundary must be called; the table in README.md
HOME = {
    "cli.": ("coeff", "flow", "crosscheck"),
    "series.": ("coeff",),
    "measure.": ("coeff",),
    "convolution.": ("coeff",),
    "embedding.": ("coeff",),
    "semigroup.flow_coefficients": ("coeff",),
    "semigroup.": ("flow",),
    "generator.": ("flow",),
    "branching.BranchingGenerator": ("flow",),
    "branching.yule_flow": ("flow",),
    "branching.": ("crosscheck",),
    "opmodel.": ("crosscheck",),
    "cfree.": ("crosscheck",),
}


def home(boundary):
    return next(ws for prefix, ws in HOME.items() if boundary.startswith(prefix))


@pytest.fixture(scope="module")
def one_pass(tmp_path_factory):
    """One traced pass of each workload: (per-layer metrics, phase)."""
    out = {}
    for w in workloads.WORKLOADS:
        with tracing.Tracer() as tracer:
            phase = bench.run_phase(workloads, w, SEED, tmp_path_factory.mktemp(w), 0.0, 1, tracer)
        out[w] = (bench.per_layer(workloads, tracer, phase, phase), phase)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_function_of_seed_and_pass(workload):
    first = workloads.serialize(workloads.build(workload, 11, 1))
    assert first == workloads.serialize(workloads.build(workload, 11, 1))
    assert first != workloads.serialize(workloads.build(workload, 12, 1))
    assert workloads.pass_order(11, 0, 40) == workloads.pass_order(11, 0, 40)
    assert workloads.pass_order(11, 0, 40) != workloads.pass_order(11, 1, 40)


def _inputs(spec, job):
    """A job with the contents of the files it reads."""
    files = [spec["files"][a[1:]] for a in job.get("argv", ()) if a.startswith("@")]
    return json.dumps([job, files], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_share_sizes_but_no_inputs(workload):
    one, two = workloads.build(workload, 11, 1), workloads.build(workload, 11, 2)
    assert [(j["kind"], j["size"]) for j in one["jobs"]] == [(j["kind"], j["size"]) for j in two["jobs"]]
    for a, b in zip(one["jobs"], two["jobs"]):
        assert _inputs(one, a) != _inputs(two, b), a["kind"]


def test_one_pass_has_no_failures(one_pass):
    for w, (metrics, phase) in one_pass.items():
        assert phase.failures == [], w
        assert metrics["fail_ratio"] == 0.0


@pytest.mark.parametrize("boundary", tracing.BOUNDARIES)
def test_every_boundary_is_called_on_its_workload(one_pass, boundary):
    for w in home(boundary):
        assert one_pass[w][0][f"{boundary}.calls"] > 0, w


def test_bypassed_layers_are_not_called(one_pass):
    calls = {w: m for w, (m, _) in one_pass.items()}
    for w in ("flow", "crosscheck"):
        assert calls[w]["series.TruncatedSeries.compose.calls"] == 0
    for w in ("coeff", "crosscheck"):
        assert calls[w]["semigroup.evolve_pointwise.calls"] == 0
    for w in ("coeff", "flow"):
        for name, value in calls[w].items():
            if name.startswith(("cfree.", "opmodel.")) and name.endswith(".calls"):
                assert value == 0, (w, name)


def test_derived_counts(one_pass):
    assert one_pass["flow"][0]["semigroup.rhs_per_point"] > 6  # one RK step has 7 stages
    assert one_pass["coeff"][0]["embedding.iterations"] > 0
    assert one_pass["crosscheck"][0]["cfree.words_checked"] > 0


def test_tracer_restores_every_binding():
    before = {name: obj for mod in tracing._monoconv_modules() for name, obj in vars(mod).items() if callable(obj)}
    original, compose = measure.k_transform, series.TruncatedSeries.__dict__["compose"]
    with tracing.Tracer():
        assert cli.k_transform is measure.k_transform is not original
        assert measure.k_transform.__wrapped__ is original
        assert series.TruncatedSeries.__dict__["compose"] is not compose
    after = {name: obj for mod in tracing._monoconv_modules() for name, obj in vars(mod).items() if callable(obj)}
    assert all(after[name] is obj for name, obj in before.items())
    assert series.TruncatedSeries.__dict__["compose"] is compose


def test_tracer_patches_names_bound_in_other_modules():
    with tracing.Tracer() as tracer:
        tracer.job = 0
        mu = monoconv.CircleMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
        monoconv.monotone_convolve(mu, mu, 8)
        tracer.job = -1
    m = tracer.metrics()
    # convolution.py binds k_transform and moments_from_k by name
    assert m["measure.k_transform.calls"] == 2
    assert m["measure.moments_from_k.calls"] == 1
    assert m["convolution.monotone_convolve.self_s"] < m["convolution.monotone_convolve.total_s"]


def test_metric_names_match_benchmark_json(one_pass):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS.values())
    layer = one_pass["coeff"][0]
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- wrong outputs must fail their checks ------------------------------------------


def _csv_edit(text, row, col, fn):
    lines = text.strip().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _json_edit(text, fn):
    data = json.loads(text)
    fn(data)
    return json.dumps(data)


def _bump(path, delta):
    def edit(data):
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] += delta

    return edit


CLI_CORRUPTIONS = {
    "convolve": lambda job, text: (
        _json_edit(text, _bump(["moments", 0, 0], 1e-9))
        if job["expect"]["format"] == "json"
        else _csv_edit(text, 1, 1, lambda x: x + 1e-9)
    ),
    "embed": lambda job, text: _json_edit(text, _bump(["product", 0], 0.01)),
    "evolve_point": lambda job, text: _csv_edit(text, 1, 3, lambda x: 1.5),
    "evolve_ring": lambda job, text: _csv_edit(text, 2, 3, lambda x: x + 1e-6),
    "cfree_check": lambda job, text: _json_edit(text, _bump(["words_checked"], -1)),
    "verify_ops": lambda job, text: _json_edit(text, _bump(["max_defect"], 1e-9)),
    "counterexample": lambda job, text: _json_edit(text, _bump(["eigenvalues_xyx", 0], 1e-8)),
    "gw": lambda job, text: _csv_edit(text, 1, 1, lambda x: x + 0.05),
}

LIBRARY_CORRUPTIONS = {
    "assoc": lambda out: (out[0], out[1] + 1e-11),
    "affine": lambda out: (out[0] + 1e-11, out[1]),
    "validate": lambda out: dataclasses.replace(out, toeplitz_psd_ok=False),
    "flow_embed": lambda out: dataclasses.replace(out, product=out.product * 1.01),
    "first_moment": lambda out: (out[0] + 1e-7, out[1]),
    "semigroup_defect": lambda out: out + 1e-6,
    "cfree_eval": lambda out: out + Fraction(1, 10**9),
}


def _jobs_by_kind(tmp_path):
    jobs = {}
    for w in workloads.WORKLOADS:
        (tmp_path / w).mkdir()
        for job in workloads.materialize(workloads.build(w, SEED, 1), tmp_path / w):
            jobs.setdefault(job["kind"], job)
    return jobs


def test_corruptions_cover_every_kind():
    assert set(CLI_CORRUPTIONS) | set(LIBRARY_CORRUPTIONS) == set(workloads.CHECKS)


def test_wrong_output_fails_its_check(tmp_path):
    for kind, job in _jobs_by_kind(tmp_path).items():
        _, output, _ = workloads.run_job(job)
        assert workloads.check(job, output)[0], kind
        if "argv" in job:
            code, text = output
            bad = (code, CLI_CORRUPTIONS[kind](job, text))
            assert not workloads.check(job, (2, text))[0], kind
        else:
            bad = LIBRARY_CORRUPTIONS[kind](output)
        assert not workloads.check(job, bad)[0], kind


def test_wrong_output_counts_as_failed_job(tmp_path, monkeypatch):
    jobs = workloads.build("crosscheck", SEED, 1)["jobs"]
    honest = workloads.run_job

    def lying(job):
        seconds, output, error = honest(job)
        if job["kind"] == "cfree_eval":
            output = output + 1
        return seconds, output, error

    monkeypatch.setattr(workloads, "run_job", lying)
    phase = bench.run_phase(workloads, "crosscheck", SEED, tmp_path, 0.0, 1)
    n_bad = sum(job["kind"] == "cfree_eval" for job in jobs)
    assert len(phase.failures) == n_bad > 0
    metrics = bench.end_to_end(phase, [1.0], 1.0)
    assert metrics["pass_ratio"]["fail_ratio"] == n_bad / len(jobs)


def test_tail_leaves_ten_latencies_beyond():
    # the fewest passes a run makes leave at least 10 latencies beyond the tail
    for w in workloads.WORKLOADS:
        n = len(workloads.build(w, SEED, 1)["jobs"])
        phase = bench.Phase()
        phase.latencies = [(1 + i) * (1 + 0.01 * p) / 1e3 for p in range(bench.MIN_PASSES) for i in range(n)]
        tail = bench.end_to_end(phase, [1.0], 1.0)["job_tail_ms"]
        assert tail["samples_beyond"] == sum(1e3 * s > tail["value"] for s in phase.latencies) >= 10, w
        assert tail["percentile"] == bench.TAIL_PERCENTILE
