import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_cell, jsonable

from monoconv import cli
from monoconv.cli import main


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def two_point(tmp_path):
    return write(
        tmp_path,
        "mu.json",
        {"atoms": [{"angle": 0.0, "weight": 0.5}, {"angle": float(np.pi), "weight": 0.5}]},
    )


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convolve_unit(tmp_path, capsys, two_point):
    unit = write(tmp_path, "unit.json", {"atoms": [{"angle": 0.0, "weight": 1.0}]})
    code, out, _ = run(capsys, ["convolve", unit, two_point, "--order", "6"])
    assert code == 0
    data = json.loads(out)
    moments = [complex(re, im) for re, im in data["moments"]]
    assert np.allclose(moments, [0, 1, 0, 1, 0, 1], atol=1e-12)


def test_convolve_square_csv(tmp_path, capsys, two_point):
    code, out, _ = run(capsys, ["convolve", two_point, two_point, "--order", "8", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,re(m),im(m)"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(vals, [0, 0, 0, 1, 0, 0, 0, 1], atol=1e-12)


def test_invalid_weights_exit_code(tmp_path, capsys, two_point):
    bad = write(tmp_path, "bad.json", {"atoms": [{"angle": 0.0, "weight": 0.7}]})
    code, _, err = run(capsys, ["convolve", bad, two_point])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid-input"


def test_malformed_json_exit_code(tmp_path, capsys, two_point):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["convolve", str(p), two_point])
    assert code == 2
    assert "line" in json.loads(err)["error"]["message"]


def test_domain_error_exit_code(tmp_path, capsys, two_point):
    short = write(tmp_path, "short.json", {"moments": [[0.5, 0.0], [0.25, 0.0]]})
    code, _, err = run(capsys, ["convolve", short, two_point, "--order", "8"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == "domain-error"


def test_evolve_identity_at_zero(tmp_path, capsys):
    gen = write(tmp_path, "gen.json", {"b": 0.0, "rho": [{"angle": 0.0, "weight": 1.0}]})
    code, out, _ = run(capsys, ["evolve", gen, "--t", "0", "--z", "0.5", "--z", "0.3+0.2j"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re(z),im(z),re(K),im(K)"
    for line in lines[1:]:
        t, re_z, im_z, re_k, im_k = (float(x) for x in line.split(","))
        assert (re_k, im_k) == (re_z, im_z)


def test_evolve_uniform_generator_linear(tmp_path, capsys):
    rho = [{"angle": 2 * np.pi * j / 64, "weight": 1 / 64} for j in range(64)]
    gen = write(tmp_path, "gen.json", {"b": 0.0, "rho": rho})
    code, out, _ = run(capsys, ["evolve", gen, "--t", "1", "--z", "0.5"])
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert abs(float(last[3]) - 0.5 * np.exp(-1)) < 1e-9


def test_evolve_yule_emits_closed_form_column(tmp_path, capsys):
    gen = write(tmp_path, "gen.json", {"rates": {"2": 1.0}})
    code, out, _ = run(capsys, ["evolve", gen, "--t", "0.5,1.0", "--z", "0.4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("re(K_closed),im(K_closed)")
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert abs(cells[3] - cells[5]) < 1e-8 and abs(cells[4] - cells[6]) < 1e-8


def test_evolve_rows_follow_given_time_order(tmp_path, capsys):
    gen = write(tmp_path, "gen.json", {"b": 0.2, "rho": [{"angle": 1.0, "weight": 0.6}]})
    code, out, _ = run(capsys, ["evolve", gen, "--t", "1.0,0.5,1.0", "--z", "0.4", "--z", "0.2-0.3j"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 1.0, 0.5, 0.5, 1.0, 1.0]
    assert rows[:2] == rows[4:]
    assert rows[0][3:] != rows[2][3:]


def test_evolve_grid_is_byte_identical(tmp_path, capsys):
    gen = write(tmp_path, "gen.json", {"b": -0.3, "rho": [{"angle": 0.5, "weight": 0.4}, {"angle": 4.0, "weight": 0.3}]})
    pts = [[0.5 * np.cos(a), 0.5 * np.sin(a)] for a in np.linspace(0, 2 * np.pi, 16, endpoint=False)]
    grid = write(tmp_path, "grid.json", pts)
    args = ["evolve", gen, "--t", "0.25,1.5,0.75", "--grid", grid]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 3 * 16


def test_evolve_point_with_negative_real_part(tmp_path, capsys):
    # argparse reads "-0.3+0.2j" after a space as an option; the "=" form passes it
    gen = write(tmp_path, "gen.json", {"b": 0.2, "rho": [{"angle": 1.0, "weight": 0.6}]})
    grid = write(tmp_path, "grid.json", [[-0.3, 0.2]])
    code, out, _ = run(capsys, ["evolve", gen, "--t", "0.5", "--z=-0.3+0.2j"])
    code_grid, out_grid, _ = run(capsys, ["evolve", gen, "--t", "0.5", "--grid", grid])
    assert code == code_grid == 0
    assert out == out_grid and len(out.strip().splitlines()) == 2
    code, out, err = run(capsys, ["evolve", gen, "--t", "0.5", "--z", "-0.3+0.2j"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"]["code"] == "invalid-input"


def test_evolve_negative_time_exit_code(tmp_path, capsys):
    gen = write(tmp_path, "gen.json", {"rates": {"2": 1.0}})
    code, out, err = run(capsys, ["evolve", gen, "--t", "-0.5", "--z", "0.4"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "domain-error"


@pytest.mark.parametrize("times, item", [("abc", "abc"), ("1,,2", ""), ("", "")])
def test_evolve_bad_time_names_the_option(tmp_path, capsys, times, item):
    gen = write(tmp_path, "gen.json", {"b": 0.5})
    code, out, err = run(capsys, ["evolve", gen, f"--t={times}", "--z", "0.3"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == f"--t: cannot parse time {item!r}"


@pytest.mark.parametrize("order", [0, -3])
def test_embed_rejects_order_below_one_for_every_input(tmp_path, capsys, two_point, order):
    # convolve checks the order before it reads any moment of either measure
    series = write(tmp_path, "k.json", {"series": [[0.0, 0.0], [0.5, 0.0]]})
    moments = write(tmp_path, "m.json", {"moments": [[0.5, 0.0], [0.25, 0.0]]})
    commands = [["embed", path] for path in (series, two_point, moments)]
    commands += [["convolve", mu, nu] for mu in (two_point, moments) for nu in (two_point, moments)]
    for argv in commands:
        code, out, err = run(capsys, argv + ["--order", str(order)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == f"truncation order must be >= 1, got {order}"


def test_embed_scaling(tmp_path, capsys):
    k = write(tmp_path, "k.json", {"series": [[0.0, 0.0], [0.5, 0.0]]})
    code, out, _ = run(capsys, ["embed", k])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["embeddable"] is True
    assert abs(verdict["t0"] - np.log(2)) < 1e-6
    u = [complex(re, im) for re, im in verdict["u_estimate"]]
    assert max(abs(x - 1) for x in u) < 1e-6


def test_embed_measure_input_rejected_square(tmp_path, capsys, two_point):
    code, out, _ = run(capsys, ["embed", two_point])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["embeddable"] is False
    assert verdict["reason"] == "derivative_vanishes"


def test_gw_deterministic_and_reproducible(tmp_path, capsys):
    law = write(tmp_path, "law.json", {"p": [0.0, 0.5, 0.5]})
    args = ["gw", law, "--n", "4", "--trials", "5000", "--seed", "11", "--z", "0.5"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    header, row = out1.strip().splitlines()
    assert header == "z,re(empirical),im(empirical),stderr,re(theory),im(theory)"
    cells = row.split(",")
    assert complex(cells[0]) == 0.5 + 0j


def test_gw_unit_law_exact(tmp_path, capsys):
    law = write(tmp_path, "law.json", {"p": [0.0, 1.0]})
    code, out, _ = run(capsys, ["gw", law, "--n", "5", "--trials", "10", "--seed", "1", "--z", "0.3"])
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert float(cells[1]) == 0.3 and float(cells[3]) == 0.0


def test_gw_overflow_exit_code(tmp_path, capsys):
    law = write(tmp_path, "law.json", {"p": [0.0, 0.0, 1.0]})
    code, _, err = run(capsys, ["gw", law, "--n", "40", "--trials", "2", "--seed", "1"])
    assert code == 4
    assert json.loads(err)["error"]["code"] == "numeric-failure"


def test_out_of_memory_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # raised, not provoked: a huge allocation may succeed under overcommit
    def simulate_gw(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli.branching, "simulate_gw", simulate_gw)
    law = write(tmp_path, "law.json", {"p": [0, 0.5, 0.5]})
    code, out, err = run(capsys, ["gw", law, "--n", "1", "--trials", "1000000000000"])
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "code": "numeric-failure",
        "message": "request too large to allocate: Unable to allocate 7.28 TiB for an array",
    }


def test_gw_point_outside_disk_exit_code(tmp_path, capsys):
    law = write(tmp_path, "law.json", {"p": [0.0, 0.5, 0.5]})
    code, out, err = run(capsys, ["gw", law, "--n", "4", "--trials", "100", "--seed", "1", "--z", "1.5"])
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == "domain-error"


def test_counterexample_values(capsys):
    code, out, _ = run(capsys, ["counterexample", "--a", "0.5", "--b", "0.5"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["second_moment_xyx"] - 1.5) < 1e-10
    assert abs(rep["second_moment_yxy"] - (1.25 + 0.125 * (1 + np.sqrt(0.75)))) < 1e-10


def test_cfree_check_exact(capsys):
    code, out, _ = run(capsys, ["cfree-check", "--max-len", "4", "--max-power", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_zero"] is True and rep["max_defect"] == 0.0


def test_verify_ops(capsys):
    code, out, _ = run(capsys, ["verify-ops", "--seed", "2", "--cases", "10"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["max_defect"] <= 1e-10


def test_output_file(tmp_path, capsys):
    code, out, _ = run(capsys, ["counterexample", "--a", "0.3", "--b", "0.3", "--out", str(tmp_path / "r.json")])
    assert code == 0 and out == ""
    rep = json.loads((tmp_path / "r.json").read_text())
    assert abs(rep["second_moment_xyx"] - (1 + 0.09 + 0.09)) < 1e-10


def _every_subcommand(tmp_path, two_point):
    gen = write(tmp_path, "gen.json", {"b": 0.2, "rho": [{"angle": 1.0, "weight": 0.5}]})
    law = write(tmp_path, "law.json", {"p": [0.0, 0.5, 0.5]})
    return [
        ["convolve", two_point, two_point, "--order", "6"],
        ["convolve", two_point, two_point, "--order", "6", "--format", "csv"],
        ["evolve", gen, "--t", "0.5,1", "--z", "0.1", "--z", "0.2+0.1j"],
        ["embed", two_point, "--order", "8"],
        ["gw", law, "--n", "3", "--trials", "200", "--seed", "1"],
        ["counterexample", "--a", "0.3", "--b", "0.4"],
        ["cfree-check", "--max-len", "3", "--max-power", "2"],
        ["verify-ops", "--cases", "3"],
    ]


def test_out_writes_exactly_what_stdout_would(tmp_path, capsys, two_point):
    calls = _every_subcommand(tmp_path, two_point)
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in calls} == set(subparsers.choices)
    for i, argv in enumerate(calls):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        path = tmp_path / f"out{i}"
        assert run(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")


def test_failed_command_leaves_out_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("kept\n")
    code, out, _ = run(capsys, ["counterexample", "--a", "0", "--b", "0.5", "--out", str(path)])
    assert (code, out) == (3, "")
    assert path.read_text() == "kept\n"


# The renderer must write what the former per-command formatting wrote
# (``oracles.jsonable`` and ``oracles.csv_cell``), byte for byte.
PAYLOAD = {
    "b_float": 0.1,
    "a_np_float": np.float64(1e-7),
    "int": 3,
    "np_int": np.int64(-12),
    "complex": 0.5 - 0.25j,
    "np_complex": np.complex128(-0.0 + 1e300j),
    "nan": math.nan,
    "inf": np.float64(-math.inf),
    "none": None,
    "flags": (True, False),
    "nested": {"list": [np.float64(2.5), (1, np.int64(2)), [np.complex128(1j)]], "empty": []},
    "mixed": [0.1 + 0.2, np.float64(1e16), 1e-5, np.int64(2**62)],
}


def test_render_json_matches_reference():
    expected = json.dumps(jsonable(PAYLOAD), indent=2, sort_keys=True) + "\n"
    assert cli._render(PAYLOAD) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-(2**63), 2**63 - 1)), max_size=6))
def test_render_json_matches_reference_on_random_scalars(triples):
    payload = {
        "py": [(x, complex(x, y), n) for x, y, n in triples],
        "np": [[np.float64(x), np.complex128(complex(x, y)), np.int64(n)] for x, y, n in triples],
    }
    assert cli._render(payload) == json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(), st.floats(), st.booleans(), st.none()), max_size=6))
def test_render_csv_matches_reference(rows):
    header = ("k", "x", "flag", "nothing")
    lines = cli._render((header, rows)).split("\n")
    assert lines.pop() == ""
    assert lines[0] == "k,x,flag,nothing"
    assert [line.split(",") for line in lines[1:]] == [[csv_cell(v) for v in row] for row in rows]


# The bulk JSON renderer against the json module's encoder, on trees that mix
# every branch the renderer takes with the values where the two could differ.
def json_reference(value):
    return json.dumps(value, indent=2, sort_keys=True, default=cli._json_default) + "\n"


FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2]))
COMPLEXES = st.builds(complex, FLOATS, FLOATS)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    COMPLEXES.map(np.complex128),
)
SCALARS = st.one_of(
    FLOATS, NUMPY_SCALARS, COMPLEXES, st.integers(-(10**30), 10**30), st.booleans(), st.none(), st.text(max_size=4)
)
ROWS = st.one_of(
    st.integers(1, 3).flatmap(lambda w: st.lists(st.lists(FLOATS, min_size=w, max_size=w), max_size=4)),
    st.lists(st.one_of(COMPLEXES, COMPLEXES.map(np.complex128)), max_size=4),
    st.lists(st.lists(FLOATS, max_size=3), max_size=4),  # ragged, empty rows among them
    st.lists(st.lists(st.one_of(FLOATS, FLOATS.map(np.float64), st.integers()), min_size=2, max_size=2), max_size=4),
)
KEYS = st.text(st.sampled_from('a"\\\x00\x1f\n\té☃\U0001d11e'), max_size=3)


def json_trees(depth):
    leaves = st.one_of(SCALARS, ROWS, st.lists(FLOATS, max_size=4), st.lists(FLOATS, max_size=4).map(tuple))
    if depth == 1:
        return leaves
    children = json_trees(depth - 1)
    return st.one_of(
        leaves,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(KEYS, json_trees(3), max_size=4))
def test_render_json_matches_the_json_module(payload):
    assert cli._render(payload) == json_reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"ints": {2: [1.0], 0.5: None, -1: {}}, "flags": {True: 1}, "none": {None: "x"}},  # the encoder's own keys
        {"rows": ([1.0, 2.0], [3.0, 4.0]), "tuples": [(1.0, 2.0)], "nested": [[np.complex128(1j)]]},
        {"np": [np.complex64(1 + 2j), np.float32(0.1), np.int8(-3)], "text": "☃\"\\\n"},
    ],
)
def test_render_json_matches_the_json_module_on_rare_shapes(payload):
    assert cli._render(payload) == json_reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"a": object()},
        {"a": [1.0, 2.0, np.zeros(2)]},
        {"a": {"b": [[1.0], object()]}},
        {"a": {1: 2, "b": 3}},
        {"a": {(1,): 2}},
    ],
)
def test_render_json_fails_as_the_json_module_does(payload):
    with pytest.raises(TypeError) as expected:
        json_reference(payload)
    with pytest.raises(TypeError) as got:
        cli._render(payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("z", [0.3, -0.0 - 0.0j, complex(0.1, -2e-17), complex(math.nan, math.inf), -1e-300 + 1e300j])
def test_gw_point_cell_matches_reference(tmp_path, capsys, monkeypatch, z):
    # the z column is the only complex cell; gw formats it itself
    def simulate_gw(law, n, trials, zs, seed):
        return cli.branching.GWSimulation(
            z_samples=(complex(z),), means=(0j,), stderrs=(0.0,), theory=(0j,), n_steps=n, trials=trials, seed=seed
        )

    monkeypatch.setattr(cli.branching, "simulate_gw", simulate_gw)
    law = write(tmp_path, "law.json", {"p": [0.0, 1.0]})
    code, out, _ = run(capsys, ["gw", law, "--n", "1", "--trials", "1"])
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == csv_cell(complex(z))


def test_reused_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch, two_point):
    gen = write(tmp_path, "gen.json", {"b": 0.2, "rho": [{"angle": 1.0, "weight": 0.5}]})
    grid = write(tmp_path, "grid.json", [[0.3, 0.0], [0.0, 0.4]])
    law = write(tmp_path, "law.json", {"p": [0.0, 0.5, 0.5]})
    k = write(tmp_path, "k.json", {"series": [[0.0, 0.0], [0.5, 0.0]]})
    gw = ["gw", law, "--n", "3", "--trials", "200", "--seed", "1"]
    calls = [
        ["evolve", gen, "--t", "0.5", "--z", "0.1", "--z", "0.2"],
        ["evolve", gen, "--t", "0.5", "--grid", grid],
        gw + ["--z", "0.4"],
        gw,
        ["convolve", two_point, two_point, "--bogus"],
        ["convolve", two_point, two_point, "--order", "6"],
        ["--help"],
        ["embed", k],
    ]
    fresh = []
    for argv in calls:
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run(capsys, argv))

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    reused = [run(capsys, argv) for argv in calls]
    assert len(builds) <= 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0, 0]
    # the grid call sees only its own points, not the earlier --z values
    grid_rows = reused[1][1].strip().splitlines()[1:]
    assert [tuple(float(x) for x in row.split(",")[1:3]) for row in grid_rows] == [(0.3, 0.0), (0.0, 0.4)]
    # gw without --z falls back to its default sample points
    gw_rows = reused[3][1].strip().splitlines()[1:]
    assert [complex(row.split(",")[0]) for row in gw_rows] == [0.3, 0.5, 0.8]
    assert reused[6][1].startswith("usage: monoconv") and reused[6][2] == ""
