"""``scripts/paired_bench.py`` pairs only the job kinds it is asked for, reports each side end to end and
reports how each differing output changed."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
JOBS = [[0, "gw"], [1, "cfree_check"], [2, "cfree_eval"], [3, "cfree_check"]]


def _script():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeWorker:
    """Answers a pass plan of JOBS and times every job it is sent at 1 ms."""

    def __init__(self, checkout, workload, seed):
        self.module = str(checkout)
        self.sent = []

    def ask(self, request):
        if "pass" in request:
            return {"jobs": JOBS, "order": [3, 2, 1, 0]}
        self.sent.append(request["job"])
        return {"seconds": 0.001, "digest": "same", "failed": False}

    def close(self):
        pass


@pytest.fixture
def script(monkeypatch):
    module = _script()
    workers = []

    def worker(*args):
        workers.append(FakeWorker(*args))
        return workers[-1]

    monkeypatch.setattr(module, "_Worker", worker)
    module.workers = workers
    return module


def test_kinds_pairs_only_the_named_kinds(script):
    out = io.StringIO()
    assert script.run(Path("base"), "crosscheck", 2, 1, {"cfree_check"}, out=out) == 0
    assert [worker.sent for worker in script.workers] == [[3, 1] * 3] * 2  # warm-up and 2 passes
    rows = [line.split()[0] for line in out.getvalue().splitlines()[4:-2]]
    assert rows == ["cfree_check", "all"]


def test_every_kind_is_paired_by_default(script):
    assert script.run(Path("base"), "crosscheck", 1, 1, out=io.StringIO()) == 0
    assert [worker.sent for worker in script.workers] == [[3, 2, 1, 0] * 2] * 2


def test_an_unknown_kind_exits_2_and_names_the_workloads_kinds(script, capsys):
    assert script.run(Path("base"), "crosscheck", 1, 1, {"cfree_check", "cfree"}, out=io.StringIO()) == 2
    assert capsys.readouterr().err == "unknown job kind cfree; workload crosscheck has cfree_check, cfree_eval, gw\n"
    assert [worker.sent for worker in script.workers] == [[], []]


def test_an_empty_kind_list_is_a_usage_error(script, capsys):
    with pytest.raises(SystemExit) as exit_:
        script.main(["--base", ".", "--workload", "crosscheck", "--kinds", ","])
    assert exit_.value.code == 2
    assert "--kinds names no job kind" in capsys.readouterr().err


def test_report_goes_to_stdout_as_it_is_at_the_call(script, capsys):
    assert script.run(Path("base"), "crosscheck", 1, 1) == 0
    captured = capsys.readouterr().out
    assert "jobs whose outputs differ: 0" in captured
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert script.run(Path("base"), "crosscheck", 1, 1) == 0
    assert buffer.getvalue() == captured
    assert capsys.readouterr().out == ""


class SlowerBaseWorker(FakeWorker):
    """Times job j at (j + 1) ms on the base side and half that on the change side."""

    def ask(self, request):
        answer = super().ask(request)
        if "job" in request:
            scale = 1e-3 if self.module == "base" else 0.5e-3
            answer["seconds"] = scale * (request["job"] + 1)
        return answer


def test_end_to_end_line_per_side(script, monkeypatch):
    monkeypatch.setattr(script, "_Worker", SlowerBaseWorker)
    out = io.StringIO()
    assert script.run(Path("base"), "crosscheck", 3, 1, out=out) == 0
    lines = out.getvalue().splitlines()
    for line, name, scale in ((lines[0], "base", 1e-3), (lines[1], str(script.ROOT), 0.5e-3)):
        ms = 1e3 * scale * np.array([1, 2, 3, 4] * 3)  # every job of passes 1-3
        rate = ms.size / (1e-3 * ms.sum())
        assert line.split()[1] == name
        assert line.endswith(f"  jobs_per_s {rate:.1f}  p50 {np.median(ms):.3f} ms  p95 {np.percentile(ms, 95):.3f} ms")
    assert lines[0].endswith("jobs_per_s 400.0  p50 2.500 ms  p95 4.000 ms")


CELLS = {"exit": 0, "layout": "L", "cells": [0.5, 1.0]}


def _cells_worker(base, change):
    """FakeWorker whose job 0 (gw) answers CELLS updated by ``base`` or ``change``, with a digest of them."""

    class CellsWorker(FakeWorker):
        made = []

        def __init__(self, *args):
            super().__init__(*args)
            self.cells = dict(CELLS, **(base if self.module == "base" else change))
            self.asked = []
            self.made.append(self)

        def ask(self, request):
            self.asked.append(next(iter(request)))
            if "cells" in request:
                assert request["cells"] == 0
                return self.cells
            answer = super().ask(request)
            if request.get("job") == 0:
                answer["digest"] = repr(self.cells)
            return answer

    return CellsWorker


@pytest.mark.parametrize(
    "base, change, row, listed",
    [
        ({}, {}, "0 0", None),
        ({}, {"cells": [0.5, 1.25]}, "2 0.25", "drift 0.25"),  # a number moved, in both passes
        ({"cells": [np.nan, 1.0]}, {"cells": [np.nan, 1.25]}, "2 0.25", "drift 0.25"),  # NaN against NaN: no drift
        ({}, {"cells": [np.nan, 1.0]}, "2 inf", "drift inf"),
        ({}, {"exit": 4}, "2 0", "changed shape: exit 0 -> 4"),
        ({}, {"exit": "failed", "layout": "M"}, "2 0", "changed shape: exit 0 -> failed, layout"),
        ({}, {"layout": "M"}, "2 0", "changed shape: layout"),
        ({}, {"cells": [0.5]}, "2 0", "changed shape: 2 -> 1 numbers"),
    ],
)
def test_drift_and_shape_changes_are_reported(script, monkeypatch, capsys, base, change, row, listed):
    worker = _cells_worker(base, change)
    monkeypatch.setattr(script, "_Worker", worker)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):  # the report goes to sys.stdout as it is at the call
        assert script.run(Path("base"), "crosscheck", 2, 1) == (listed is not None)
    assert capsys.readouterr().out == ""
    lines = buffer.getvalue().splitlines()
    columns = [[line.split()[i] for i in (0, -2, -1)] for line in lines[4:8]]
    assert columns == [["cfree_check", "0", "0"], ["cfree_eval", "0", "0"], ["gw", *row.split()], ["all", *row.split()]]
    if listed is None:
        assert lines[-1] == "jobs whose outputs differ: 0"
        assert [w.asked.count("cells") for w in worker.made] == [0, 0]
    else:
        assert lines[-3:] == ["jobs whose outputs differ: 2", f"  pass 1 job 0 (gw): {listed}",
                              f"  pass 2 job 0 (gw): {listed}"]
        # cells are asked for after both sides ran the job, one job of each timed pass
        assert [w.asked.count("cells") for w in worker.made] == [2, 2]
        assert all(w.asked[w.asked.index("cells") - 1] == "job" for w in worker.made)


def test_library_numbers_are_collected_in_order_and_the_rest_is_layout(script):
    value = {"b": np.array([[1 + 2j, 3.5]]), "a": (np.float64(0.25), 7, True, "x 1e-3 m1")}
    got = script._cells({"kind": "k"}, value, None)
    assert got["exit"] is None and got["cells"] == [0.25, 7.0, 0.001, 1.0, 2.0, 3.5, 0.0]
    assert json.loads(json.dumps(got)) == got  # the reply crosses the pipe as JSON
    moved = {"b": np.array([[1 + 2j, 3.75]]), "a": (np.float64(0.5), 8, True, "x 2e-3 m1")}
    assert script._cells({"kind": "k"}, moved, None)["layout"] == got["layout"]
    assert script._digest(moved, None) != script._digest(value, None)
    for reshaped in (
        {**value, "a": (np.float64(0.25), 7, False, "x 1e-3 m1")},  # a bool is no number
        {**value, "b": np.array([1 + 2j, 3.5])},
        {**value, "b": np.array([[1 + 2j, 3.5]], dtype=np.complex64)},
        {**value, "a": (0.25, 7, True, "x 1e-3 m2")},
    ):
        assert script._cells({"kind": "k"}, reshaped, None)["layout"] != got["layout"]


def test_a_cli_exit_code_or_failure_is_no_number(script):
    cli = {"kind": "k", "argv": []}
    got = script._cells(cli, (3, "re(z) 1.5, m1 NaN -Infinity 2\n"), None)
    assert got["exit"] == 3 and np.array_equal(got["cells"], [1.5, np.nan, -np.inf, 2.0], equal_nan=True)
    again = script._cells(cli, (0, "re(z) 1.5, m1 NaN -Infinity 2\n"), None)
    assert again["exit"] == 0 and again["layout"] == got["layout"] and repr(again["cells"]) == repr(got["cells"])
    assert script._cells(cli, None, "ValueError: 3")["exit"] == "failed"


def test_the_worker_answers_the_cells_of_a_job_it_ran():
    module = _script()
    side = module._Worker(module.ROOT, "crosscheck", 3)
    try:
        plan = side.ask({"pass": 1})
        job = next(job for job, kind in plan["jobs"] if kind == "gw")
        answer = side.ask({"job": job})
        cells = side.ask({"cells": job})
    finally:
        side.close()
    assert not answer["failed"]
    assert cells["exit"] == 0 and cells["cells"] and all(isinstance(c, float) for c in cells["cells"])


class ClosingWorker(FakeWorker):
    """Starts once, records its close, and raises on every later start as a worker that dies does."""

    made = []

    def __init__(self, *args):
        if self.made:
            raise RuntimeError("worker exited with code 1")
        super().__init__(*args)
        self.closed = False
        self.made.append(self)

    def close(self):
        self.closed = True


def test_a_worker_that_fails_to_start_leaves_none_running(script, monkeypatch):
    monkeypatch.setattr(script, "_Worker", ClosingWorker)
    monkeypatch.setattr(ClosingWorker, "made", [])
    with pytest.raises(RuntimeError, match="worker exited"):
        script.run(Path("base"), "crosscheck", 1, 1, out=io.StringIO())
    assert [worker.closed for worker in ClosingWorker.made] == [True]


def test_a_base_without_the_package_or_the_workloads_exits_2(script, tmp_path, capsys):
    for missing, present in (("src/monoconv/__init__.py", None), ("perfbench/workloads.py", "src/monoconv/__init__.py")):
        if present:
            (tmp_path / present).parent.mkdir(parents=True)
            (tmp_path / present).touch()
        with pytest.raises(SystemExit) as exit_:
            script.main(["--base", str(tmp_path), "--workload", "flow"])
        assert exit_.value.code == 2
        assert f"--base {tmp_path} has no {missing}" in capsys.readouterr().err
    assert script.workers == []
