"""``scripts/paired_bench.py`` pairs only the job kinds it is asked for and reports each side end to end."""

import contextlib
import importlib.util
import io
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
