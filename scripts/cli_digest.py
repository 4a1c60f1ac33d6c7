"""Digest of every CLI job of the benchmark workloads, for byte-identity checks.

For each workload and each pass 1..P, this builds the pass's job list with
``perfbench.workloads.build`` and ``materialize``, runs every CLI job through
``monoconv.cli.main`` in this process with stdout captured, and prints one
line per job::

    workload pass job exit sha256-of-stdout

Library jobs (no ``argv``) are skipped.  A job that ends in a traceback
prints ``traceback`` and the exception type instead of an exit code.  Run it
on two checkouts with the same arguments and ``diff`` the outputs: no
difference means every CLI job exited with the same code and wrote the same
bytes to stdout.

    PYTHONPATH=src python scripts/cli_digest.py --seed 7 --passes 8 > digest.txt

Where the numbers may move at rounding level, ``--cells`` writes one JSON
line per job instead: its kind, exit code, stdout digest, the numbers of
stdout in order (``cells``) and a digest of stdout with each number replaced
by ``#`` (``layout``).  ``--compare OLD NEW`` reads two such dumps and
prints, per workload and job kind, the job count, the number of jobs whose
stdout differs in any byte and the largest absolute change of a number.  It
exits 1 when a job is missing from one dump or changed its exit code, its
layout or its count of numbers; such jobs are listed.

    python scripts/cli_digest.py --cells --seed 7 --passes 5 > new.jsonl
    python scripts/cli_digest.py --compare old.jsonl new.jsonl

``--kinds`` runs only the CLI jobs of the given comma-separated job kinds,
so one kind can be checked over many passes; a kind that is unknown or has
no CLI jobs in the chosen workloads exits 2 and names their CLI kinds.

    python scripts/cli_digest.py --workload crosscheck --kinds gw --passes 200

It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402

# a number stands alone, not inside a name such as re(z) or m1
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)(?![\w.])")


def cli_kinds(workload: str, seed: int) -> set:
    """The kinds of the workload's CLI jobs; every pass builds the same kinds."""
    return {job["kind"] for job in workloads.build(workload, seed, 1)["jobs"] if "argv" in job}


def run_cli_jobs(workload: str, seed: int, passes: int, kinds=None):
    """(pass, job, status, stdout) of every CLI job of ``kinds`` (every kind when None) of passes 1..P."""
    for pass_index in range(1, passes + 1):
        with tempfile.TemporaryDirectory() as tmp:
            spec = workloads.build(workload, seed, pass_index)
            for job in workloads.materialize(spec, Path(tmp)):
                if "argv" not in job or (kinds is not None and job["kind"] not in kinds):
                    continue
                _, output, error = workloads.run_job(job)
                if output is None:
                    status, text = "traceback", error.split(":", 1)[0]
                else:
                    status, text = output
                yield pass_index, job, status, text


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(workload: str, seed: int, passes: int, kinds=None):
    for pass_index, job, status, text in run_cli_jobs(workload, seed, passes, kinds):
        yield f"{workload} {pass_index} {job['id']} {status} {sha256(text)}"


def cell_lines(workload: str, seed: int, passes: int, kinds=None):
    for pass_index, job, status, text in run_cli_jobs(workload, seed, passes, kinds):
        record = {
            "workload": workload,
            "pass": pass_index,
            "job": job["id"],
            "kind": job["kind"],
            "exit": status,
            "sha256": sha256(text),
            "layout": sha256(NUMBER.sub("#", text)),
            "cells": [float(token) for token in NUMBER.findall(text)],
        }
        yield json.dumps(record)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if line.strip())
        return {(r["workload"], r["pass"], r["job"]): r for r in records}


def _drift(old, new) -> float:
    """Largest |old - new| over paired numbers; NaN against NaN counts as 0."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        worst = max(worst, abs(a - b) if math.isfinite(a - b) else math.inf)
    return worst


def compare(old_path, new_path, out=None) -> int:
    """Print the drift table of two ``--cells`` dumps to ``out`` (``sys.stdout`` at the call); the exit code."""
    out = sys.stdout if out is None else out
    old, new = _load(old_path), _load(new_path)
    failures = [f"missing from {new_path}: {key}" for key in sorted(old.keys() - new.keys())]
    failures += [f"missing from {old_path}: {key}" for key in sorted(new.keys() - old.keys())]
    rows = defaultdict(lambda: [0, 0, 0.0])  # (workload, kind) -> jobs, byte-different, drift
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        row = rows[a["workload"], a["kind"]]
        row[0] += 1
        if a["sha256"] == b["sha256"]:
            continue
        row[1] += 1
        if a["exit"] != b["exit"] or a["layout"] != b["layout"] or len(a["cells"]) != len(b["cells"]):
            failures.append(f"changed exit or shape: {key} ({a['kind']}, exit {a['exit']} -> {b['exit']})")
            continue
        row[2] = max(row[2], _drift(a["cells"], b["cells"]))
    print("workload kind jobs byte-different max-abs-drift", file=out)
    for (workload, kind), (jobs, differ, drift) in sorted(rows.items()):
        print(f"{workload} {kind} {jobs} {differ} {drift:.3g}", file=out)
    for line in failures:
        print(f"FAIL {line}", file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--passes", type=int, default=8, help="passes 1..P of each workload")
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS, help="default: all (repeatable)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cells", action="store_true", help="write exit code and numbers of each job as JSON lines")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --cells dumps")
    p.add_argument("--kinds", help="comma-separated job kinds to run (default: every CLI kind)")
    args = p.parse_args(argv)
    kinds = None if args.kinds is None else {kind for kind in args.kinds.split(",") if kind}
    if kinds == set():
        p.error("--kinds names no job kind")
    if args.compare:
        if kinds is not None:
            p.error("--kinds selects jobs to run; --compare runs none")
        return compare(*args.compare)
    chosen = args.workload or workloads.WORKLOADS
    if kinds is not None:
        have = {workload: cli_kinds(workload, args.seed) for workload in chosen}
        unknown = sorted(kinds - set().union(*have.values()))
        if unknown:
            listed = "; ".join(f"workload {w} has CLI kinds {', '.join(sorted(k))}" for w, k in have.items())
            print(f"no CLI job of kind {', '.join(unknown)}; {listed}", file=sys.stderr)
            return 2
    lines = cell_lines if args.cells else digest_lines
    count = 0
    for workload in chosen:
        for line in lines(workload, args.seed, args.passes, kinds):
            print(line)
            count += 1
    print(f"{count} CLI jobs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
