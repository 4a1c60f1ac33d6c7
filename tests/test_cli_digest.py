"""``scripts/cli_digest.py`` digests the CLI jobs it is asked for and flags changed jobs."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"
CROSSCHECK_CLI_KINDS = {"cfree_check", "counterexample", "gw", "verify_ops"}


@pytest.fixture
def script(monkeypatch):
    """The script, its jobs answered without running the CLI; ``ran`` lists the kinds of the jobs run."""
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.ran = []

    def run_job(job):
        assert "argv" in job
        module.ran.append(job["kind"])
        return 0.001, (0, f"{job['kind']} 1.5\n"), None

    monkeypatch.setattr(module.workloads, "run_job", run_job)
    return module


def test_kinds_runs_only_the_named_kinds(script, capsys):
    assert script.main(["--workload", "crosscheck", "--kinds", "gw,counterexample", "--passes", "2", "--cells"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert sorted(script.ran) == ["counterexample"] * 4 + ["gw"] * 12  # 2 and 6 per pass
    assert [(r["pass"], r["kind"]) for r in records] == [(1, k) for k in script.ran[:8]] + [(2, k) for k in script.ran[8:]]


def test_every_cli_kind_runs_by_default(script, capsys):
    assert script.main(["--workload", "crosscheck", "--passes", "1"]) == 0
    assert set(script.ran) == CROSSCHECK_CLI_KINDS
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.ran) and all(line.startswith("crosscheck 1 ") for line in lines)


@pytest.mark.parametrize("kinds, named", [("gw,cfree", "cfree"), ("cfree_eval", "cfree_eval")])
def test_an_unknown_kind_or_one_without_cli_jobs_exits_2(script, capsys, kinds, named):
    # cfree_eval jobs call the library, not the CLI
    assert script.main(["--workload", "crosscheck", "--kinds", kinds]) == 2
    err = capsys.readouterr().err
    assert err == f"no CLI job of kind {named}; workload crosscheck has CLI kinds " + ", ".join(
        sorted(CROSSCHECK_CLI_KINDS)) + "\n"
    assert script.ran == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workload", "crosscheck", "--kinds", ","], "--kinds names no job kind"),
        (["--compare", "old.jsonl", "new.jsonl", "--kinds", "gw"], "--kinds selects jobs to run; --compare runs none"),
    ],
)
def test_kinds_usage_errors(script, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        script.main(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert script.ran == []


def _dump(path, **changes):
    record = {"workload": "crosscheck", "pass": 1, "job": 3, "kind": "gw", "exit": 0,
              "sha256": "a", "layout": "L", "cells": [0.5, 1.0]}
    record.update(changes)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "changes, code",
    [
        ({}, 0),
        ({"sha256": "b", "cells": [0.5, 1.25]}, 0),  # a number moved: reported as drift
        ({"sha256": "b", "exit": 4}, 1),
        ({"sha256": "b", "layout": "M"}, 1),
        ({"sha256": "b", "cells": [0.5]}, 1),
    ],
)
def test_compare_fails_when_a_job_changes_exit_code_or_layout(script, tmp_path, changes, code):
    old, new = _dump(tmp_path / "old.jsonl"), _dump(tmp_path / "new.jsonl", **changes)
    buffer = io.StringIO()
    assert script.compare(old, new, out=buffer) == code
    assert script.main(["--compare", old, new]) == code
    out = buffer.getvalue()
    assert ("FAIL changed exit or shape: ('crosscheck', 1, 3) (gw, exit 0 -> " in out) == bool(code)
    if "cells" in changes and not code:
        assert "crosscheck gw 1 1 0.25\n" in out


def test_compare_prints_to_stdout_as_it_is_at_the_call(script, tmp_path, capsys):
    old, new = _dump(tmp_path / "old.jsonl"), _dump(tmp_path / "new.jsonl", sha256="b", cells=[0.5, 1.25])
    assert script.compare(old, new) == 0
    captured = capsys.readouterr().out
    assert captured == "workload kind jobs byte-different max-abs-drift\ncrosscheck gw 1 1 0.25\n"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert script.compare(old, new) == 0
    assert buffer.getvalue() == captured
    assert capsys.readouterr().out == ""
