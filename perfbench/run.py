"""Benchmark for monoconv: three seeded workloads driven through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload coeff --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client in this one process: jobs run
back to back in passes, each pass running every job slot of the workload once,
on inputs drawn for that pass, in a freshly shuffled order, until
``--seconds`` have passed and at least MIN_PASSES passes are done.  Every
job's output is checked after its timer stops.  ``--trace 0`` prints the
end-to-end metrics, taken over every job latency of the run;
``--trace 1`` runs half the time untraced, then
TRACED_PASSES passes traced, and prints the per-layer metrics.  The last
line of stdout is one JSON object; a fuller result file with provenance is
written under ``perfbench/out/``.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# at least this many passes, so that every job slot has several samples and
# at least 10 latencies lie beyond the tail percentile on every workload
MIN_PASSES = 10
# the traced phase runs a fixed number of passes with fixed pass indices, so
# its per-pass counts repeat exactly for a given seed
TRACED_PASSES = 2
# set-up is timed this many times, spread over the run
SETUP_SAMPLES = 7
# job_tail_ms is this percentile of every job latency of the run
TAIL_PERCENTILE = 95

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    The one client of the closed loop is the only thread that works, so a
    second BLAS thread would only contend with other load on the cores.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)), 1


# -- running -------------------------------------------------------------------


class Phase:
    """Latencies, failures, accuracy columns and counts of one run phase."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.pass_ends = []  # index into latencies where each pass ends
        self.failures = []
        self.defects = {}
        self.stats = {}
        self.passes = 0
        self.cpu_s = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    def by_pass(self):
        starts = [0] + self.pass_ends[:-1]
        return [self.latencies[a:b] for a, b in zip(starts, self.pass_ends)]

    @property
    def jobs_per_s(self):
        """Jobs over the time spent in them; checks and input building are left out."""
        return self.attempted / math.fsum(self.latencies)


def run_phase(workloads, workload, seed, workdir, seconds, min_passes, tracer=None, first_pass=1, between=None):
    """Run passes first_pass, first_pass + 1, ... of ``workload``.

    Passes repeat until ``seconds`` have passed and at least ``min_passes``
    are done.  Each pass builds and writes its own inputs before its first
    job; process CPU time is taken over the jobs and their checks only.
    ``between(elapsed)`` runs after each pass; its own time does not count
    towards ``seconds``.
    """
    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    serial = 0
    while phase.passes < min_passes or time.perf_counter() - start - paused < seconds:
        pass_index = first_pass + phase.passes
        jobs = workloads.materialize(workloads.build(workload, seed, pass_index), workdir)
        cpu0 = time.process_time()
        for i in workloads.pass_order(seed, pass_index, len(jobs)):
            job = jobs[i]
            if tracer is not None:
                tracer.job = serial
            seconds_taken, output, error = workloads.run_job(job)
            if tracer is not None:
                tracer.job = -1
            serial += 1
            if output is None:
                ok, defect, stats = False, math.inf, {"error": error}
            else:
                ok, defect, stats = workloads.check(job, output)
            phase.latencies.append(seconds_taken)
            phase.kinds.append(job["kind"])
            column = workloads.ACCURACY[job["kind"]]
            if math.isfinite(defect):  # a failed job shows in the failure count instead
                phase.defects[column] = max(phase.defects.get(column, 0.0), defect)
            for key, value in stats.items():
                if key != "error":
                    phase.stats[key] = phase.stats.get(key, 0) + value
            if not ok:
                phase.failures.append({"pass": pass_index, "job": job["id"], "kind": job["kind"],
                                       "error": stats.get("error", error)})
        phase.cpu_s += time.process_time() - cpu0
        phase.passes += 1
        phase.pass_ends.append(len(phase.latencies))
        if between is not None:
            t = time.perf_counter()
            between(t - start - paused)
            paused += time.perf_counter() - t
    return phase


def warm_up(workloads, jobs):
    """One call of the smallest instance of each job kind."""
    smallest = {}
    for job in jobs:
        if job["kind"] not in smallest or job["size"] < smallest[job["kind"]]["size"]:
            smallest[job["kind"]] = job
    for job in smallest.values():
        workloads.run_job(job)


def setup_probe(args):
    """Set-up time of a fresh interpreter, measured by a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# -- reporting -----------------------------------------------------------------


def end_to_end(phase, setup_samples, rss_mb):
    """Timings over every job latency of the run."""
    import numpy as np

    ms = np.array([1e3 * s for s in phase.latencies])
    tail = float(np.percentile(ms, TAIL_PERCENTILE))
    failed = len(phase.failures)
    return {
        "jobs_per_s": {"value": phase.jobs_per_s, "samples": phase.attempted},
        "job_p50_ms": {"value": float(np.median(ms)), "samples": phase.attempted},
        "job_tail_ms": {"value": tail, "samples": phase.attempted, "percentile": TAIL_PERCENTILE,
                        "samples_beyond": int((ms > tail).sum())},
        "setup_s": {"value": statistics.median(setup_samples), "samples": len(setup_samples)},
        "peak_rss_mb": {"value": rss_mb, "samples": 1},
        "pass_ratio": {"value": 1.0 - failed / phase.attempted, "samples": phase.attempted,
                       "fail_ratio": failed / phase.attempted},
    }


def per_layer(workloads, tracer, untraced, traced):
    per = traced.passes
    m = tracer.metrics(per)
    evolves = m["semigroup.evolve_pointwise.calls"]
    rhs = m["generator.HerglotzGenerator.vector_field_at.calls"] + m["branching.BranchingGenerator.vector_field_at.calls"]
    m["semigroup.rhs_per_point"] = rhs / evolves if evolves else 0.0
    for key in ("embedding.iterations", "cfree.words_checked"):
        m[key] = traced.stats.get(key, 0) / per
    for column in sorted(set(workloads.ACCURACY.values())):
        m[column] = max(untraced.defects.get(column, 0.0), traced.defects.get(column, 0.0))
    m["process.cpu_s"] = untraced.cpu_s / untraced.passes
    m["trace.overhead"] = traced.jobs_per_s / untraced.jobs_per_s
    attempted = untraced.attempted + traced.attempted
    m["fail_ratio"] = (len(untraced.failures) + len(traced.failures)) / attempted
    return m


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, nproc, blas_threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_lib = "unknown"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "monoconv").rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": lines,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("coeff", "flow", "crosscheck"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    nproc, blas_threads = pin_blas_threads()
    if not (SRC / "monoconv" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no monoconv sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import monoconv  # noqa: F401  (set-up time covers the package import)
    import monoconv.cli  # noqa: F401
    import tracer as tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(workloads, workloads.materialize(workloads.build(args.workload, args.seed, 0), workdir))
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            # untraced passes come after the traced ones' indices, so no
            # pass of the run repeats another's inputs
            untraced = run_phase(workloads, args.workload, args.seed, workdir, args.seconds / 2, 2,
                                 first_pass=TRACED_PASSES + 1)
        else:
            setup = [setup_s]

            def probe_when_due(elapsed):
                # the k-th probe falls due k / SETUP_SAMPLES of the way
                # through the run, so the probes meet the machine at
                # different times, as the passes do
                if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                    setup.append(setup_probe(args))

            untraced = run_phase(workloads, args.workload, args.seed, workdir, args.seconds, MIN_PASSES,
                                 between=probe_when_due)
            setup += [setup_probe(args) for _ in range(SETUP_SAMPLES - len(setup))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"provenance": provenance(args, nproc, blas_threads), "jobs_per_pass": untraced.pass_ends[0]}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = run_phase(workloads, args.workload, args.seed, workdir, 0.0, TRACED_PASSES, tracer)
            metrics = per_layer(workloads, tracer, untraced, traced)
            tracer.save_spans(OUT / f"{stem}.spans.npz")
            phases = (untraced, traced)
            result["per_layer"] = metrics
            result["passes"] = {"untraced": untraced.passes, "traced": traced.passes}
            printed = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
        else:
            metrics = end_to_end(untraced, setup, rss_mb)
            phases = (untraced,)
            result["end_to_end"] = {k: {**v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            result["passes"] = {"untraced": untraced.passes}
            result["by_kind"] = by_kind(untraced)
            result["pass_seconds"] = [math.fsum(p) for p in untraced.by_pass()]
            printed = {name: {"value": v["value"], "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
        attempted = sum(p.attempted for p in phases)
        failures = [f for p in phases for f in p.failures]
        result["attempted"], result["failed"], result["failures"] = attempted, len(failures), failures[:20]
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in printed.items():
        if not name.endswith((".total_s", ".self_s", ".calls")):
            print(f"{name} = {value['value']:.6g} {value['unit']}")
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": printed}
    print(json.dumps(summary, allow_nan=False))
    return 0


def by_kind(phase):
    out = {}
    for kind, seconds in zip(phase.kinds, phase.latencies):
        out.setdefault(kind, []).append(1e3 * seconds)
    return {k: {"count": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)} for k, v in sorted(out.items())}


def layer_unit(name):
    if name.endswith(".calls") or name in ("semigroup.rhs_per_point", "embedding.iterations", "cfree.words_checked"):
        return "count"
    if name.endswith((".total_s", ".self_s")) or name == "process.cpu_s":
        return "s"
    if name.endswith("gw_sigma"):
        return "sigma"
    if ".max_defect." in name:
        return "abs"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
