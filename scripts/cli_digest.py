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

It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402


def digest_lines(workload: str, seed: int, passes: int):
    for pass_index in range(1, passes + 1):
        with tempfile.TemporaryDirectory() as tmp:
            spec = workloads.build(workload, seed, pass_index)
            for job in workloads.materialize(spec, Path(tmp)):
                if "argv" not in job:
                    continue
                _, output, error = workloads.run_job(job)
                if output is None:
                    status, text = "traceback", error.split(":", 1)[0]
                else:
                    status, text = output
                sha = hashlib.sha256(text.encode()).hexdigest()
                yield f"{workload} {pass_index} {job['id']} {status} {sha}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--passes", type=int, default=8, help="passes 1..P of each workload")
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS, help="default: all (repeatable)")
    args = p.parse_args(argv)
    count = 0
    for workload in args.workload or workloads.WORKLOADS:
        for line in digest_lines(workload, args.seed, args.passes):
            print(line)
            count += 1
    print(f"{count} CLI jobs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
