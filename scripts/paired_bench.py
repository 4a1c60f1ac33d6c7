"""Job-by-job paired timing and output drift of one benchmark workload on two checkouts.

    python scripts/paired_bench.py --base ../parent --workload flow --passes 15 --seed 11
    python scripts/paired_bench.py --base ../parent --workload crosscheck --kinds cfree_check

One worker process runs per checkout, this one ("change") and ``--base``.
Each imports its own checkout's ``src/monoconv`` and
``perfbench/workloads.py``, builds each pass's jobs from (workload, seed,
pass) and runs the jobs it is sent with ``workloads.run_job``, which times
the call alone.  The driver sends every job of every pass to both workers,
one after the other, and alternates which of them goes first, so a slow
spell of a shared machine falls on both sides alike; a 15 s ``perfbench``
run cannot tell a few per cent apart there, this can.  Pass 0 warms both
workers up and is not counted.  BLAS runs on one thread, as in
``perfbench/run.py``.  A ``--base`` without ``src/monoconv/__init__.py`` or
``perfbench/workloads.py`` exits with code 2.

It prints one line per side, its checkout's ``monoconv`` and its
end-to-end numbers over every paired job as ``perfbench/run.py`` defines
them (``jobs_per_s``, jobs over the time spent in them; ``p50`` and ``p95``
of the job times), so a tail claim can be sized job by job.  Then, per job
kind and for the whole workload, the job count, both total times and both
medians with their ratios (change / base), the number of jobs whose output
differs (exit code and stdout of a CLI job, the returned value of a library
job) and the largest absolute drift of a number between the two outputs
(NaN against NaN: none; a non-finite difference: inf).  The numbers are the
``NUMBER`` tokens of stdout, or a value's ints, floats, NumPy scalars,
complex (re, im) pairs and array elements.  Each differing job is listed
with its drift, or as a changed shape when its exit code, failure, layout
(its output with every number as ``#``) or count of numbers changed; any
differing job exits with code 1.  Give this checkout as ``--base`` for an
A/A run, which shows the resolution, or a clone of the parent commit
(``--base ../parent``) to check a change's outputs.  ``--kinds`` runs only
the jobs of the given comma-separated kinds, so one kind can be paired over
many passes; a kind the workload does not have exits with code 2 and names
the kinds it has.  It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a number stands alone, not inside a name such as re(z) or m1
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)(?![\w.])")


# -- worker --------------------------------------------------------------------


def _feed(h, value, cells=None):
    """Hash ``value`` whole: arrays by their bytes, containers by their items.

    With a ``cells`` list, hash its layout, each number as ``#``, and append the numbers to ``cells``.
    """
    import numpy as np

    if cells is not None and isinstance(value, (int, float, complex, np.number)) and not isinstance(value, bool):
        z = complex(value)
        cells += [z.real, z.imag] if isinstance(value, (complex, np.complexfloating)) else [z.real]
        h.update(b"#")
    elif cells is not None and isinstance(value, str):
        cells += map(float, NUMBER.findall(value))
        h.update(repr(NUMBER.sub("#", value)).encode())
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        if cells is None:
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            _feed(h, value.ravel().tolist(), cells)
    elif dataclasses.is_dataclass(value):
        _feed(h, (type(value).__name__, dataclasses.asdict(value)), cells)
    elif isinstance(value, dict):
        _feed(h, sorted(value.items(), key=lambda kv: repr(kv[0])), cells)
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}(".encode())
        for item in value:
            _feed(h, item, cells)
        h.update(b")")
    else:
        h.update(repr(value).encode())


def _digest(output, error) -> str:
    h = hashlib.sha256()
    _feed(h, error if output is None else output)
    return h.hexdigest()


def _cells(job, output, error) -> dict:
    """A job's exit (a CLI job's code, "failed" or None), layout digest and numbers; the code is no number."""
    status, value = ("failed", error) if output is None else output if "argv" in job else (None, output)
    h, cells = hashlib.sha256(), []
    _feed(h, value, cells)
    return {"exit": status, "layout": h.hexdigest(), "cells": cells}


def worker(checkout: Path, workload: str, seed: int) -> int:
    """Serve one JSON request per stdin line until stdin closes.

    ``{"pass": p}`` builds pass p and answers its job ids, kinds and run
    order; ``{"job": i}`` runs job i of that pass and answers its time and
    output digest; ``{"cells": i}`` answers :func:`_cells` of that output.
    """
    sys.path[:0] = [str(checkout), str(checkout / "src")]
    from perfbench import workloads

    import monoconv

    channel, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the channel

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    reply({"monoconv": monoconv.__file__})
    jobs, outputs = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for line in sys.stdin:
            request = json.loads(line)
            if "pass" in request:
                workdir = Path(tmp) / f"pass{request['pass']}"
                workdir.mkdir()
                jobs = workloads.materialize(workloads.build(workload, seed, request["pass"]), workdir)
                order = workloads.pass_order(seed, request["pass"], len(jobs))
                reply({"jobs": [[job["id"], job["kind"]] for job in jobs], "order": order})
            elif "cells" in request:
                reply(_cells(jobs[request["cells"]], *outputs[request["cells"]]))
            else:
                seconds, output, error = workloads.run_job(jobs[request["job"]])
                outputs[request["job"]] = output, error
                reply({"seconds": seconds, "digest": _digest(output, error), "failed": output is None})
    return 0


# -- driver --------------------------------------------------------------------


class _Worker:
    def __init__(self, checkout: Path, workload: str, seed: int):
        env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
                "--workload", workload, "--seed", str(seed)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.module = self._read()["monoconv"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _row(name, base, change, drifts):
    n, drift = len(base), max(drifts, default=0.0)
    tb, tc = sum(base), sum(change)
    mb, mc = statistics.median(base), statistics.median(change)
    return (f"{name:18s} {n:6d} {1e3 * tb:10.1f} {1e3 * tc:10.1f} {tc / tb:7.3f} {1e6 * mb:10.1f} {1e6 * mc:10.1f}"
            f" {mc / mb:7.3f} {len(drifts):6d} {drift:9.3g}")


def _end_to_end(name, module, seconds):
    """One side's line: jobs_per_s, p50 and p95 as ``perfbench/run.py``'s ``end_to_end`` takes them."""
    import numpy as np

    ms = np.array([1e3 * s for s in seconds])
    rate = len(seconds) / math.fsum(seconds)
    return f"{name:6s} {module}  jobs_per_s {rate:.1f}  p50 {np.median(ms):.3f} ms  p95 {np.percentile(ms, 95):.3f} ms"


def _drift(old, new) -> float:
    """Largest |old - new| over paired numbers; NaN against NaN counts as 0, a non-finite difference as inf."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        worst = max(worst, abs(a - b) if math.isfinite(a - b) else math.inf)
    return worst


def _compare(sides, job):
    """(drift, "") of a job whose outputs differ, or (0.0, what changed) when its shape changed."""
    old, new = [side.ask({"cells": job}) for side in sides]
    changed = [f"exit {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    changed += ["layout"] if old["layout"] != new["layout"] else []
    if len(old["cells"]) != len(new["cells"]):
        changed.append(f"{len(old['cells'])} -> {len(new['cells'])} numbers")
    if changed:
        return 0.0, "changed shape: " + ", ".join(changed)
    return _drift(old["cells"], new["cells"]), ""


def run(base: Path, workload: str, passes: int, seed: int, kinds=None, out=None) -> int:
    """Pair the jobs of ``kinds`` (every kind when None) pass by pass; the exit code.

    The report goes to ``out``, or to ``sys.stdout`` as it is at the call.
    """
    out = sys.stdout if out is None else out
    times = defaultdict(lambda: ([], []))  # kind -> (base seconds, change seconds)
    drifts = defaultdict(list)  # kind -> drift of each job whose outputs differ
    differ, failed, sides, sent = [], [0, 0], [], 0
    try:
        for checkout in (base, ROOT):
            sides.append(_Worker(checkout, workload, seed))
        for pass_index in range(passes + 1):
            plans = [side.ask({"pass": pass_index}) for side in sides]
            if plans[0] != plans[1]:
                raise RuntimeError(f"pass {pass_index}: the checkouts build different job lists")
            kind_of = dict(plans[0]["jobs"])
            unknown = sorted(set(kinds or ()) - set(kind_of.values()))
            if unknown:
                print(f"unknown job kind {', '.join(unknown)}; workload {workload} has "
                      f"{', '.join(sorted(set(kind_of.values())))}", file=sys.stderr)
                return 2
            for job in plans[0]["order"]:
                if kinds is not None and kind_of[job] not in kinds:
                    continue
                first = sent % 2
                answers = [None, None]
                for side in (first, 1 - first):
                    answers[side] = sides[side].ask({"job": job})
                sent += 1
                if pass_index == 0:  # warm-up
                    continue
                kind = kind_of[job]
                for side, answer in enumerate(answers):
                    times[kind][side].append(answer["seconds"])
                    failed[side] += answer["failed"]
                if answers[0]["digest"] != answers[1]["digest"]:
                    drift, note = _compare(sides, job)  # outside the timed calls
                    drifts[kind].append(drift)
                    differ.append(f"  pass {pass_index} job {job} ({kind}): {note or f'drift {drift:.3g}'}")
    finally:
        for side in sides:
            side.close()
    every = [sum((times[k][side] for k in times), []) for side in (0, 1)]
    for name, side, seconds in zip(("base", "change"), sides, every):
        print(_end_to_end(name, side.module, seconds), file=out)
    print(f"{workload}, seed {seed}, passes 1-{passes}; times in ms (totals) and us (medians)", file=out)
    print(f"{'kind':18s} {'jobs':>6s} {'base':>10s} {'change':>10s} {'ratio':>7s} "
          f"{'base p50':>10s} {'chg p50':>10s} {'ratio':>7s} {'differ':>6s} {'max |d|':>9s}", file=out)
    for kind in sorted(times):
        print(_row(kind, *times[kind], drifts[kind]), file=out)
    print(_row("all", *every, sum(drifts.values(), [])), file=out)
    print(f"failed jobs: base {failed[0]}, change {failed[1]}", file=out)
    print(f"jobs whose outputs differ: {len(differ)}", file=out)
    for line in differ:
        print(line, file=out)
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, help="checkout to compare against (its src/ and perfbench/)")
    p.add_argument("--workload", required=True, choices=("coeff", "flow", "crosscheck"))
    p.add_argument("--passes", type=int, default=10, help="timed passes 1..P, after warm-up pass 0")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kinds", help="comma-separated job kinds to pair (default: every kind)")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        return worker(args.worker.resolve(), args.workload, args.seed)
    if args.base is None:
        p.error("--base is required")
    for needed in ("src/monoconv/__init__.py", "perfbench/workloads.py"):
        if not (args.base / needed).is_file():
            p.error(f"--base {args.base} has no {needed}")
    if args.passes < 1:
        p.error("--passes must be >= 1")
    kinds = None if args.kinds is None else {kind for kind in args.kinds.split(",") if kind}
    if kinds == set():
        p.error("--kinds names no job kind")
    return run(args.base.resolve(), args.workload, args.passes, args.seed, kinds)


if __name__ == "__main__":
    sys.exit(main())
