"""Bad input to every subcommand ends in one JSON error line and exit 2, 3 or 4.

That includes arguments the command line parser rejects (a bad option
value, an unknown or missing option, a missing or unknown subcommand).

Each case names the files it needs as raw JSON text, so malformed JSON,
NaN, Infinity and integers too large for a float reach the parser as a
user would write them.  ``{name}`` in the arguments is replaced by the
path of that file, and ``{dir}`` by the directory that holds them, for an
--out that cannot be written.  A case may end with the exact message it
must print.
"""

import json
import sys
import warnings

import pytest
from oracles import load_json_text

from monoconv import cli, opmodel
from monoconv.cli import main

UNIT = '{"atoms": [{"angle": 0.0, "weight": 1.0}]}'
GEN = '{"b": 0.5}'
LAW = '{"p": [0, 0.5, 0.5]}'
TWO_ATOMS = '{"atoms": [{"angle": 0.5, "weight": 0.5}, {"angle": 2.0, "weight": 0.5}]}'
HUGE = "1" + "0" * 400  # a JSON integer beyond the float range

CASES = [
    # convolve: measures
    ("convolve-malformed", ["convolve", "{mu}", "{unit}"], {"mu": "{not json"}, 2),
    ("convolve-missing-file", ["convolve", "no-such-file.json", "{unit}"], {}, 2),
    ("convolve-top-number", ["convolve", "{mu}", "{unit}"], {"mu": "3"}, 2),
    ("convolve-top-null", ["convolve", "{mu}", "{unit}"], {"mu": "null"}, 2),
    ("convolve-top-list", ["convolve", "{mu}", "{unit}"], {"mu": "[]"}, 2),
    ("convolve-top-string", ["convolve", "{mu}", "{unit}"], {"mu": '"atoms"'}, 2),
    ("convolve-no-keys", ["convolve", "{mu}", "{unit}"], {"mu": "{}"}, 2),
    ("convolve-no-weight", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": 0.0}]}'}, 2),
    ("convolve-nan-angle", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": NaN, "weight": 1.0}]}'}, 2),
    ("convolve-inf-angle", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": Infinity, "weight": 1.0}]}'}, 2),
    ("convolve-nan-weight", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": 0.0, "weight": NaN}]}'}, 2),
    ("convolve-inf-weight", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": 0.0, "weight": Infinity}]}'}, 2),
    ("convolve-huge-weight", ["convolve", "{mu}", "{unit}"], {"mu": '{"atoms": [{"angle": 0.0, "weight": %s}]}' % HUGE}, 2),
    ("convolve-nan-moment", ["convolve", "{mu}", "{unit}"], {"mu": '{"moments": [[NaN, 0.0]]}'}, 2),
    ("convolve-big-moment", ["convolve", "{mu}", "{unit}"], {"mu": '{"moments": [[2.0, 0.0]]}'}, 2),
    ("convolve-no-moments", ["convolve", "{mu}", "{unit}"], {"mu": '{"moments": []}'}, 2),
    ("convolve-short-moments", ["convolve", "{mu}", "{unit}", "--order", "8"], {"mu": '{"moments": [[0.0, 0.0]]}'}, 3),
    ("convolve-order-0", ["convolve", "{unit}", "{unit}", "--order", "0"], {}, 2),
    ("convolve-order-negative", ["convolve", "{mu}", "{mu}", "--order", "-3"], {"mu": TWO_ATOMS}, 2),
    ("convolve-order-above-cap", ["convolve", "{mu}", "{mu}", "--order", "100000"], {"mu": TWO_ATOMS}, 2, "--order: must be <= 4096, got 100000"),
    ("convolve-out-missing-dir", ["convolve", "{unit}", "{unit}", "--out", "{dir}/no-such-dir/m.json"], {}, 2),
    ("convolve-out-is-dir", ["convolve", "{unit}", "{unit}", "--out", "{dir}"], {}, 2),
    # evolve: generators, points, times and tolerance
    ("evolve-nan-rate", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": {"2": NaN}}'}, 2),
    ("evolve-inf-rate", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": {"2": Infinity}}'}, 2),
    ("evolve-negative-rate", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": {"2": -1.0}}'}, 2),
    ("evolve-rate-index-1", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": {"1": 1.0}}'}, 2),
    ("evolve-rate-index-text", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": {"x": 1.0}}'}, 2),
    ("evolve-rates-list", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rates": [1, 2]}'}, 2),
    ("evolve-nan-b", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"b": NaN}'}, 2),
    ("evolve-inf-b", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"b": -Infinity}'}, 2),
    ("evolve-text-b", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"b": "x"}'}, 2),
    ("evolve-nan-rho-weight", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rho": [{"angle": 0.0, "weight": NaN}]}'}, 2),
    ("evolve-nan-rho-angle", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rho": [{"angle": NaN, "weight": 1.0}]}'}, 2),
    ("evolve-negative-rho-weight", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": '{"rho": [{"angle": 0.0, "weight": -1.0}]}'}, 2),
    ("evolve-top-number", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": "3"}, 2),
    ("evolve-top-null", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": "null"}, 2),
    ("evolve-no-keys", ["evolve", "{gen}", "--t", "1", "--z", "0.5"], {"gen": "{}"}, 2),
    ("evolve-no-points", ["evolve", "{gen}", "--t", "1"], {"gen": GEN}, 2),
    ("evolve-text-point", ["evolve", "{gen}", "--t", "1", "--z", "abc"], {"gen": GEN}, 2, "--z: cannot parse point 'abc'"),
    ("evolve-point-outside", ["evolve", "{gen}", "--t", "1", "--z", "1.5"], {"gen": GEN}, 3),
    ("evolve-nan-point", ["evolve", "{gen}", "--t", "1", "--z", "nan"], {"gen": GEN}, 3),
    ("evolve-negative-time", ["evolve", "{gen}", "--t=-1", "--z", "0.5"], {"gen": GEN}, 3),
    ("evolve-nan-time", ["evolve", "{gen}", "--t", "nan", "--z", "0.5"], {"gen": GEN}, 3),
    ("evolve-inf-time", ["evolve", "{gen}", "--t", "inf", "--z", "0.5"], {"gen": GEN}, 3),
    ("evolve-empty-time", ["evolve", "{gen}", "--t=", "--z", "0.5"], {"gen": GEN}, 2),
    ("evolve-text-time", ["evolve", "{gen}", "--t", "abc", "--z", "0.3"], {"gen": GEN}, 2),
    ("evolve-empty-time-item", ["evolve", "{gen}", "--t", "1,,2", "--z", "0.3"], {"gen": GEN}, 2),
    ("evolve-zero-tol", ["evolve", "{gen}", "--t", "1", "--z", "0.5", "--tol", "0"], {"gen": GEN}, 2),
    ("evolve-nan-tol", ["evolve", "{gen}", "--t", "1", "--z", "0.5", "--tol", "nan"], {"gen": GEN}, 2),
    ("evolve-inf-tol", ["evolve", "{gen}", "--t", "5", "--z", "0.5", "--tol", "inf"], {"gen": GEN}, 2),
    ("evolve-grid-malformed", ["evolve", "{gen}", "--t", "1", "--grid", "{grid}"], {"gen": GEN, "grid": "[[0.1,"}, 2),
    ("evolve-grid-number", ["evolve", "{gen}", "--t", "1", "--grid", "{grid}"], {"gen": GEN, "grid": "3"}, 2),
    ("evolve-grid-triples", ["evolve", "{gen}", "--t", "1", "--grid", "{grid}"], {"gen": GEN, "grid": "[[0.1, 0.2, 0.3]]"}, 2),
    ("evolve-grid-text", ["evolve", "{gen}", "--t", "1", "--grid", "{grid}"], {"gen": GEN, "grid": '[["a", "b"]]'}, 2),
    ("evolve-grid-nan", ["evolve", "{gen}", "--t", "1", "--grid", "{grid}"], {"gen": GEN, "grid": '{"points": [[NaN, 0.0]]}'}, 3),
    # embed: K-transforms as series or measures
    ("embed-top-number", ["embed", "{k}"], {"k": "3"}, 2),
    ("embed-top-null", ["embed", "{k}"], {"k": "null"}, 2),
    ("embed-top-list", ["embed", "{k}"], {"k": "[]"}, 2),
    ("embed-top-string", ["embed", "{k}"], {"k": '"series"'}, 2),
    ("embed-no-keys", ["embed", "{k}"], {"k": "{}"}, 2),
    ("embed-malformed", ["embed", "{k}"], {"k": '{"series": [[0, 0], [0.5'}, 2),
    ("embed-order-0-series", ["embed", "{k}"], {"k": '{"series": [[0, 0]]}'}, 3),
    ("embed-nan-series", ["embed", "{k}"], {"k": '{"series": [[0, 0], [NaN, 0]]}'}, 2),
    ("embed-inf-series", ["embed", "{k}"], {"k": '{"series": [[0, 0], [0.5, 0], [Infinity, 0]]}'}, 2),
    ("embed-huge-series", ["embed", "{k}"], {"k": '{"series": [[0, 0], [%s, 0]]}' % HUGE}, 2),
    ("embed-nonzero-origin", ["embed", "{k}"], {"k": '{"series": [[1, 0], [0.5, 0]]}'}, 2),
    ("embed-empty-series", ["embed", "{k}"], {"k": '{"series": []}'}, 2),
    ("embed-short-pairs", ["embed", "{k}"], {"k": '{"series": [[0]]}'}, 2),
    ("embed-series-number", ["embed", "{k}"], {"k": '{"series": 5}'}, 2),
    ("embed-nan-atom", ["embed", "{k}"], {"k": '{"atoms": [{"angle": NaN, "weight": 1.0}]}'}, 2),
    ("embed-short-zero-moments", ["embed", "{k}", "--order", "16"], {"k": '{"moments": %s}' % json.dumps([[0, 0]] * 8)}, 3),
    ("embed-order-0-atoms", ["embed", "{unit}", "--order", "0"], {}, 2),
    ("embed-order-negative", ["embed", "{k}", "--order", "-3"], {"k": TWO_ATOMS}, 2),
    ("embed-order-negative-series", ["embed", "{k}", "--order", "-3"], {"k": '{"series": [[0, 0], [0.5, 0]]}'}, 2),
    ("embed-order-0-series-input", ["embed", "{k}", "--order", "0"], {"k": '{"series": [[0, 0], [0.5, 0]]}'}, 2),
    ("embed-order-above-cap", ["embed", "{k}", "--order", "100000"], {"k": TWO_ATOMS}, 2, "--order: must be <= 4096, got 100000"),
    ("embed-series-above-cap", ["embed", "{k}"], {"k": '{"series": %s}' % json.dumps([[0, 0], [0.5, 0]] + [[0, 0]] * 4096)}, 2, "K-transform series order must be <= 4096, got 4097"),
    # gw: offspring laws and sampling
    ("gw-nan-p", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": [NaN, 1.0]}'}, 2),
    ("gw-inf-p", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": [Infinity, 0.5]}'}, 2),
    ("gw-huge-p", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": [%s]}' % HUGE}, 2),
    ("gw-empty-p", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": []}'}, 2),
    ("gw-p-not-summing", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": [0.5, 0.4]}'}, 2),
    ("gw-negative-p", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": [-0.5, 1.5]}'}, 2),
    ("gw-p-text", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": "ab"}'}, 2),
    ("gw-p-number", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": '{"p": 5}'}, 2),
    ("gw-top-number", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": "3"}, 2),
    ("gw-top-null", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": "null"}, 2),
    ("gw-top-list", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": "[]"}, 2),
    ("gw-no-keys", ["gw", "{law}", "--n", "2", "--trials", "10"], {"law": "{}"}, 2),
    ("gw-zero-trials", ["gw", "{law}", "--n", "2", "--trials", "0"], {"law": LAW}, 2),
    ("gw-trials-above-int64", ["gw", "{law}", "--n", "2", "--trials", "9223372036854775808"], {"law": LAW}, 2, "trial count must be below 2**63, got 9223372036854775808"),
    ("gw-negative-steps", ["gw", "{law}", "--n", "-1", "--trials", "10"], {"law": LAW}, 2),
    ("gw-steps-above-cap", ["gw", "{law}", "--n", "100001", "--trials", "10"], {"law": LAW}, 2, "--n: must be <= 100000, got 100001"),
    ("gw-negative-seed", ["gw", "{law}", "--n", "2", "--trials", "10", "--seed", "-1"], {"law": LAW}, 2, "--seed: must be >= 0, got -1"),
    ("gw-point-outside", ["gw", "{law}", "--n", "2", "--trials", "10", "--z", "2"], {"law": LAW}, 3),
    ("gw-nan-point", ["gw", "{law}", "--n", "2", "--trials", "10", "--z", "nan"], {"law": LAW}, 3),
    ("gw-text-point", ["gw", "{law}", "--n", "2", "--trials", "10", "--z", "abc"], {"law": LAW}, 2),
    ("gw-z-malformed", ["gw", "{law}", "--n", "2", "--trials", "10", "--z", "0.3+"], {"law": LAW}, 2, "--z: cannot parse point '0.3+'"),
    ("gw-overflow", ["gw", "{law}", "--n", "20", "--trials", "10"], {"law": '{"p": [0, 0, 0, 0, 1.0]}'}, 4),
    ("gw-out-missing-dir", ["gw", "{law}", "--n", "2", "--trials", "10", "--out", "{dir}/no-such-dir/g.csv"], {"law": LAW}, 2),
    ("gw-out-is-dir", ["gw", "{law}", "--n", "2", "--trials", "10", "--out", "{dir}"], {"law": LAW}, 2),
    # counterexample, cfree-check and verify-ops: numbers out of range
    ("counterexample-nan", ["counterexample", "--a", "nan", "--b", "0.5"], {}, 3),
    ("counterexample-inf", ["counterexample", "--a", "0.5", "--b", "inf"], {}, 3),
    ("counterexample-zero", ["counterexample", "--a", "0", "--b", "0.5"], {}, 3),
    ("counterexample-one", ["counterexample", "--a", "0.5", "--b", "1"], {}, 3),
    ("cfree-check-len-0", ["cfree-check", "--max-len", "0"], {}, 2),
    ("cfree-check-len-negative", ["cfree-check", "--max-len", "-2"], {}, 2),
    ("cfree-check-power-0", ["cfree-check", "--max-len", "2", "--max-power", "0"], {}, 2),
    ("cfree-check-negative-seed", ["cfree-check", "--max-len", "2", "--seed", "-1"], {}, 2, "--seed: must be >= 0, got -1"),
    ("cfree-check-len-above-cap", ["cfree-check", "--max-len", "17", "--max-power", "2"], {}, 3),
    ("cfree-check-len-huge", ["cfree-check", "--max-len", "1000000"], {}, 3),
    ("cfree-check-words-above-cap", ["cfree-check", "--max-len", "16", "--max-power", "9"], {}, 3, "sweep of 4169295424916640 words exceeds the cap 1000000"),
    ("cfree-check-power-huge", ["cfree-check", "--max-len", "1", "--max-power", "1000000000"], {}, 3, "sweep of 2000000000 words exceeds the cap 1000000"),
    ("cfree-check-power-above-cap", ["cfree-check", "--max-len", "2", "--max-power", "129"], {}, 3, "sweep words of total power up to 258 exceed the cap 256"),
    ("verify-ops-cases-0", ["verify-ops", "--cases", "0"], {}, 2),
    ("verify-ops-cases-negative", ["verify-ops", "--cases", "-1"], {}, 2),
    ("verify-ops-cases-above-cap", ["verify-ops", "--cases", "10001"], {}, 2, "--cases: must be <= 10000, got 10001"),
    ("verify-ops-negative-seed", ["verify-ops", "--cases", "1", "--seed", "-1"], {}, 2, "--seed: must be >= 0, got -1"),
    # arguments argparse rejects: bad option values, unknown and missing options
    ("verify-ops-cases-text", ["verify-ops", "--cases", "abc"], {}, 2),
    ("verify-ops-unknown-option", ["verify-ops", "--bogus"], {}, 2),
    ("embed-max-iter-unknown-option", ["embed", "{k}", "--max-iter", "500"], {"k": TWO_ATOMS}, 2),
    ("evolve-no-time", ["evolve", "{gen}", "--z", "0.5"], {"gen": GEN}, 2),
    ("gw-no-trials", ["gw", "{law}", "--n", "2"], {"law": LAW}, 2),
    ("convolve-format-unknown", ["convolve", "{unit}", "{unit}", "--format", "xml"], {}, 2),
    ("cfree-check-len-text", ["cfree-check", "--max-len", "2.5"], {}, 2),
    ("counterexample-no-b", ["counterexample", "--a", "0.5"], {}, 2),
]

# no subcommand, or one that does not exist
TOP_LEVEL_CASES = [
    ("no-subcommand", [], {}, 2),
    ("unknown-subcommand", ["nosuch"], {}, 2),
]


def test_cases_cover_every_subcommand():
    from monoconv.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for _, argv, *_ in CASES} == set(subparsers.choices)


def _params(name, argv, files, code, message=None):
    return argv, files, code, message


@pytest.mark.parametrize(
    "argv, files, code, message",
    [_params(*c) for c in CASES + TOP_LEVEL_CASES],
    ids=[c[0] for c in CASES + TOP_LEVEL_CASES],
)
def test_bad_input_gives_one_json_error_line(tmp_path, capsys, argv, files, code, message):
    paths = {"unit": tmp_path / "unit.json", "dir": tmp_path}
    paths["unit"].write_text(UNIT)
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    argv = [arg.format(**{k: str(p) for k, p in paths.items()}) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(argv)
    out, err = capsys.readouterr()
    assert got == code
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)["error"]
    assert set(error) == {"code", "message"}
    assert error["code"] == {2: "invalid-input", 3: "domain-error", 4: "numeric-failure"}[code]
    assert message is None or error["message"] == message
    assert caught == []  # a warning would print a second stderr line


def test_verify_ops_accepts_the_case_cap(monkeypatch, capsys):
    asked = []

    def suite(seed, cases):
        asked.append(cases)
        return {"max_defect": 0.0, "cases": cases}

    monkeypatch.setattr(opmodel, "random_composition_suite", suite)
    assert main(["verify-ops", "--cases", "10000"]) == 0
    assert asked == [10000]
    assert json.loads(capsys.readouterr().out)["cases"] == 10000


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: monoconv") and err == ""


# -- the subcommand parser against the top-level one ---------------------------

PARSER_EDGE_ARGVS = [
    ["convolve", "mu.json", "nu.json", "--ord", "8"],  # abbreviations
    ["convolve", "mu.json", "nu.json", "--form", "csv", "--o", "m.csv"],
    ["evolve", "g.json", "--t", "1", "--z", "0.5", "--to", "1e-9"],
    ["cfree-check", "--max", "3"],  # ambiguous: --max-len or --max-power
    ["evolve", "g.json", "--t", "1", "--z", "0.5", "--bogus"],  # unknown option
    ["evolve", "g.json", "--z", "0.5"],  # missing required option
    ["evolve", "g.json", "--t"],  # option without its value
    ["evolve", "g.json", "--t", "1", "--z=-0.5", "--z", "-0.25"],
    ["evolve", "--", "g.json", "--t", "1"],
    ["counterexample", "--a", "0.5", "--b", "0.5", "--"],
    ["convolve", "mu.json"],  # missing positional
    ["convolve", "mu.json", "nu.json", "extra.json"],
    ["evolve"],
    ["nosuch", "--t", "1"],
    [],
    ["--help"],
    ["-h"],
    ["--bogus", "evolve"],
    ["--", "evolve", "g.json", "--t", "1"],
]
PARSE_ARGVS = [
    list(argv)
    for argv in dict.fromkeys(  # each argv once, in order
        tuple(argv)
        for argv in [c[1] for c in CASES + TOP_LEVEL_CASES]
        + [[name, flag] for name in cli._PARSER.commands for flag in ("--help", "-h", "--he")]
        + PARSER_EDGE_ARGVS
    )
]


def _parse_outcome(capsys, parse, argv):
    try:  # values by repr, so that a NaN option value equals itself
        outcome = ("namespace", {name: repr(value) for name, value in vars(parse(argv)).items()})
    except cli.InputError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=[" ".join(argv) or "empty" for argv in PARSE_ARGVS])
def test_subcommand_parser_parses_as_the_top_level_parser(capsys, argv):
    # the same namespace, InputError message, or exit code and printed text
    assert _parse_outcome(capsys, cli._parse_args, argv) == _parse_outcome(capsys, cli._PARSER.parse_args, argv)


def test_subcommand_parser_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["monoconv", "gw", "law.json", "--n", "2", "--trials", "10"])
    assert _parse_outcome(capsys, cli._parse_args, None) == _parse_outcome(capsys, cli._PARSER.parse_args, None)


# -- the input reader against a text-mode reader --------------------------------

MALFORMED_CR = b'{"atoms": [\r{"angle": 0.0,\r"weight": }]}'
READ_CASES = [
    # name, file bytes, exit code, message (None: success) with {path} for the file
    ("bom", b"\xef\xbb\xbf" + UNIT.encode(), 2,
     "{path}: malformed JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("invalid-utf8", b'{"atoms": [{"angle": 0.0, "weight": 1.0}], "x": "\xff\xfe"}', 2,
     "'utf-8' codec can't decode byte 0xff in position 49: invalid start byte"),
    ("truncated-utf8", UNIT.encode() + b" \xe2\x82", 2,
     "'utf-8' codec can't decode bytes in position 43-44: unexpected end of data"),
    ("crlf-malformed", MALFORMED_CR.replace(b"\r", b"\r\n"), 2,
     "{path}: malformed JSON at line 3: Expecting value"),
    ("cr-malformed", MALFORMED_CR, 2, "{path}: malformed JSON at line 3: Expecting value"),
    ("lf-malformed", MALFORMED_CR.replace(b"\r", b"\n"), 2, "{path}: malformed JSON at line 3: Expecting value"),
    ("cr-in-string", b'{"atoms": [{"angle": 0.0, "weight": 1.0}], "x": "a\rb"}', 2,
     "{path}: malformed JSON at line 1: Invalid control character at"),
    ("crlf-valid", UNIT.replace(", ", ",\r\n").encode(), 0, None),
    ("cr-valid", UNIT.replace(", ", ",\r").encode(), 0, None),
    ("empty", b"", 2, "{path}: malformed JSON at line 1: Expecting value"),
]


@pytest.mark.parametrize("data, code, message", [c[1:] for c in READ_CASES], ids=[c[0] for c in READ_CASES])
def test_input_read_fails_as_the_text_mode_reader(tmp_path, capsys, monkeypatch, data, code, message):
    path = tmp_path / "mu.json"
    path.write_bytes(data)
    unit = tmp_path / "unit.json"
    unit.write_text(UNIT)
    argv = ["convolve", str(path), str(unit), "--order", "4"]
    got = (main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_load_json", load_json_text)
    assert got == (main(argv), *capsys.readouterr())
    assert got[0] == code
    if message is not None:
        assert json.loads(got[2])["error"]["message"] == message.format(path=path)

