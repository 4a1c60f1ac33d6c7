"""Batch command line front end.

Subcommands: convolve, evolve, embed, gw, counterexample, cfree-check,
verify-ops.  Inputs are JSON files.  Each subcommand returns its result, a
dict or a CSV (header, rows) pair; one renderer turns it into JSON or CSV
text and one writer puts that on stdout or, after the command has finished,
at --out.  The JSON is the bytes ``json.dumps(indent=2, sort_keys=True)``
writes, with lists of floats and of complex numbers formatted in bulk.
Identical invocations with identical seeds produce byte-identical output.

:func:`main` parses with the parser built when the module is imported, and
reused by every call in the process: an argv that starts with a subcommand
name goes straight to that subcommand's parser, which is what the top-level
parser would hand it to after a pass of its own, and any other argv (empty,
an unknown name, -h) to the top-level parser.  :func:`build_parser` returns
a fresh one.

Exit codes: 0 success, 2 invalid input (malformed JSON, schema or
validation errors, a truncation order above 4096, a gw run of more than
10^5 generations, a verify-ops run of more than 10^4 cases, an --out path
that cannot be written: a missing directory or a directory itself), 3
mathematical domain errors, 4
numerical failures (step-size underflow, population overflow, a request
too large to allocate).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from . import branching, convolution, embedding, opmodel, semigroup
from .cfree import MomentFunctional, _check_sweep_bounds, monotone_specialization_defect
from .errors import DomainError, StepSizeUnderflowError, SupercriticalOverflowError
from .generator import HerglotzGenerator
from .measure import CircleMeasure, KTransform, k_transform
from .series import DEFAULT_ORDER, TruncatedSeries

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

# Largest truncation order accepted (--order, an embed series): embed builds
# the power table of order n, (n + 1)^2 complex numbers, 268 MB at 4096;
# composition keeps about 2 n sqrt(n) of them.
_MAX_ORDER = 4096
# Largest generation count accepted (gw --n): the theory column iterates the
# generating function once per generation and sample point.
_MAX_GENERATIONS = 10**5
# Largest case count accepted (verify-ops --cases): a case takes about 1.5 ms
# and keeps its summary in the report, so 10^4 cases run for about 15 s.
_MAX_CASES = 10**4


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises :class:`InputError` instead of printing usage.

    Bad arguments then end in the same JSON error line as any other invalid
    input; subparsers inherit the class.
    """

    def error(self, message):
        raise InputError(message)


# -- input parsing -----------------------------------------------------------


def _load_json(path):
    """The JSON value in the file at ``path``, read as bytes and decoded once.

    Strict UTF-8 (a BOM or an invalid byte is an error) with line ends
    translated as in text mode, so that a JSON error names the same line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def _measure_from_obj(obj, path):
    try:
        if "atoms" in obj:
            atoms = obj["atoms"]
            return CircleMeasure.from_atoms(
                [a["angle"] for a in atoms], [a["weight"] for a in atoms]
            )
        if "moments" in obj:
            return CircleMeasure.from_moments([complex(re, im) for re, im in obj["moments"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: invalid measure: {exc}") from exc
    raise InputError(f"{path}: expected an object with 'atoms' or 'moments'")


def _generator_from_obj(obj, path):
    try:
        if "rates" in obj:
            rates = {int(j): float(lam) for j, lam in dict(obj["rates"]).items()}
            return branching.BranchingGenerator(rates)
        if "b" in obj or "rho" in obj:
            rho = [(r["angle"], r["weight"]) for r in obj.get("rho", [])]
            return HerglotzGenerator(b=obj.get("b", 0.0), rho=rho)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: invalid generator: {exc}") from exc
    raise InputError(f"{path}: expected 'b'/'rho' (Herglotz) or 'rates' (branching)")


def _k_from_obj(obj, path, order):
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object with 'series', 'atoms' or 'moments'")
    if "series" in obj:
        try:
            coeffs = [complex(re, im) for re, im in obj["series"]]
            k = KTransform(TruncatedSeries(coeffs))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: invalid K-transform series: {exc}") from exc
        if order < 1:  # the check k_transform makes for a measure
            raise InputError(f"truncation order must be >= 1, got {order}")
        if k.order > _MAX_ORDER:
            raise InputError(f"K-transform series order must be <= {_MAX_ORDER}, got {k.order}")
        return k
    if "atoms" in obj or "moments" in obj:
        return k_transform(_measure_from_obj(obj, path), order)
    raise InputError(f"{path}: expected 'series', 'atoms' or 'moments'")


def _law_from_obj(obj, path):
    try:
        return branching.OffspringLaw(obj["p"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: invalid offspring law: {exc}") from exc


def _parse_points(args):
    pts = []
    if args.grid:
        data = _load_json(args.grid)
        if isinstance(data, dict):
            data = data.get("points", [])
        try:
            pts.extend(complex(re, im) for re, im in data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{args.grid}: expected a list of [re, im] pairs") from exc
    pts.extend(_parse_point(text) for text in args.z or [])
    return pts


def _parse_point(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise InputError(f"--z: cannot parse point {text!r}") from exc


def _parse_times(text):
    times = []
    for item in text.split(","):
        try:
            times.append(float(item))
        except ValueError as exc:
            raise InputError(f"--t: cannot parse time {item!r}") from exc
    return times


# -- output ------------------------------------------------------------------
#
# A subcommand returns its result: a dict, written as JSON, or a (header, rows)
# pair of Python scalars, written as CSV.  ``main`` renders it once and writes
# it once.


def _fields(record) -> dict:
    """A dataclass instance's fields by name, the values themselves (``asdict`` deep-copies them)."""
    return {field.name: getattr(record, field.name) for field in dataclasses.fields(record)}


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _render(result) -> str:
    """The text of a result: a dict as JSON, a (header, rows) pair as CSV with one ``str`` per cell.

    The JSON is, byte for byte, ``json.dumps(result, indent=2,
    sort_keys=True, default=_json_default) + "\\n"``, and a value that
    cannot be serialized raises the same ``TypeError``.  With an indent,
    ``json.dumps`` runs its pure-Python encoder, one call per value;
    :func:`_json_text` formats a list of floats or of complex numbers in a
    few C-level passes.
    """
    if isinstance(result, dict):
        return _json_text(result, "\n") + "\n"
    header, rows = result
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


_encode_str = json.encoder.encode_basestring_ascii
_FLOATS = {float, np.float64}
_COMPLEXES = {complex, np.complex128}


def _json_text(value, nl):
    """``value`` as indented JSON, ``nl`` being the newline and indent of its own level.

    The checks run in the order of the ``json`` encoder's, so a subclass
    takes the same branch: a float through ``float.__repr__``, an int
    through ``int.__repr__``, anything else through :func:`_json_default`.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _special_floats(float.__repr__(value))
    if isinstance(value, (list, tuple)):
        return _list_text(value, nl)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            # the encoder's own key conversion, sort and errors; JSON text holds no raw newline
            return json.dumps(value, indent=2, sort_keys=True, default=_json_default).replace("\n", nl)
        inner = nl + "  "
        items = [f"{_encode_str(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return _json_text(_json_default(value), nl)


def _list_text(items, nl):
    """A list or tuple as :func:`_json_text` writes it.

    Floats (``float`` or ``np.float64``), complex numbers (``complex`` or
    ``np.complex128``, each an [re, im] row) and equal-width rows of
    ``float`` are formatted in one C-level pass over their cells; any other
    list one item at a time.
    """
    if not items:
        return "[]"
    inner = nl + "  "
    kinds = set(map(type, items))
    if kinds <= _FLOATS:
        return _special_floats("[" + inner + ("," + inner).join(map(float.__repr__, items)) + nl + "]")
    if kinds <= _COMPLEXES:
        return _float_rows(np.array(items, dtype=complex).view(float).tolist(), 2, nl)
    if kinds == {list}:
        cells = list(itertools.chain.from_iterable(items))
        if cells and len(set(map(len, items))) == 1 and set(map(type, cells)) == {float}:
            return _float_rows(cells, len(items[0]), nl)
    return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in items]) + nl + "]"


def _float_rows(cells, width, nl):
    """Rows of ``width`` floats, ``cells`` holding them row after row, as indented JSON.

    One ``%`` format of every cell: ``%r`` is ``float.__repr__`` for a ``float``.
    """
    inner = nl + "  "
    cell = inner + "  "
    row = "[" + cell + ("%r," + cell) * (width - 1) + "%r" + inner + "]"
    body = ("," + inner).join([row] * (len(cells) // width)) % tuple(cells)
    return _special_floats("[" + inner + body + nl + "]")


def _special_floats(text):
    """``text`` with repr's nan, inf and -inf as JSON's NaN, Infinity and -Infinity.

    No other float repr, and no indent, holds the letter n.
    """
    if "n" in text:
        return text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _write(text, path):
    """Write ``text`` to ``path`` (--out), or to stdout when there is none.

    The file is opened only now, after the command has finished, so a
    failing command leaves an existing file as it was.
    """
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def _cmd_convolve(args):
    mu = _measure_from_obj(_load_json(args.mu), args.mu)
    nu = _measure_from_obj(_load_json(args.nu), args.nu)
    m = convolution.monotone_convolve(mu, nu, args.order).moments(args.order)
    re, im = m.real.tolist(), m.imag.tolist()
    if args.format == "csv":
        return ("k", "re(m)", "im(m)"), zip(range(1, len(re) + 1), re, im)
    return {"order": args.order, "moments": [[a, b] for a, b in zip(re, im)]}


def _cmd_evolve(args):
    gen = _generator_from_obj(_load_json(args.gen), args.gen)
    pts = _parse_points(args)
    if not pts:
        raise InputError("no evaluation points; pass --grid or --z")
    times = _parse_times(args.t)
    yule = None
    if isinstance(gen, branching.BranchingGenerator) and len(gen.rates) == 1:
        j, lam = gen.rates[0]
        yule = (lam, j)
    header = ["t", "re(z)", "im(z)", "re(K)", "im(K)"]
    if yule:
        header += ["re(K_closed)", "im(K_closed)"]
    values = semigroup.evolve(gen, times, pts, args.tol).tolist()
    rows = []
    for t, ks in zip(times, values):
        for z, k in zip(pts, ks):
            row = [t, z.real, z.imag, k.real, k.imag]
            if yule:
                ref = branching.yule_flow(yule[0], yule[1], t, z)
                row += [ref.real, ref.imag]
            rows.append(row)
    return header, rows


def _cmd_embed(args):
    k = _k_from_obj(_load_json(args.k), args.k, args.order)
    return _fields(embedding.embedding_test(k))


def _cmd_gw(args):
    law = _law_from_obj(_load_json(args.law), args.law)
    zs = [_parse_point(text) for text in args.z or ["0.3", "0.5", "0.8"]]
    sim = branching.simulate_gw(law, args.n, args.trials, zs, args.seed)
    header = ("z", "re(empirical)", "im(empirical)", "stderr", "re(theory)", "im(theory)")
    rows = [
        (f"{z.real!r}{z.imag:+}j", m.real, m.imag, e, th.real, th.imag)
        for z, m, e, th in zip(sim.z_samples, sim.means, sim.stderrs, sim.theory)
    ]
    return header, rows


def _cmd_counterexample(args):
    return _fields(opmodel.sandwich_counterexample(args.a, args.b))


def _cmd_cfree_check(args):
    _check_sweep_bounds(args.max_len, args.max_power)
    rng = np.random.default_rng(args.seed)
    n_mom = args.max_len * args.max_power
    phi1 = MomentFunctional([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n_mom)])
    phi2 = MomentFunctional([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n_mom)])
    defect, count = monotone_specialization_defect(phi1, phi2, args.max_len, args.max_power)
    return {
        "max_defect": float(defect),
        "exact_zero": defect == 0,
        "words_checked": count,
        "max_len": args.max_len,
        "max_power": args.max_power,
        "seed": args.seed,
    }


def _cmd_verify_ops(args):
    report = opmodel.random_composition_suite(seed=args.seed, cases=args.cases)
    report["pass"] = report["max_defect"] <= 1e-10
    report["tolerance"] = 1e-10
    return report


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="monoconv",
        description="Multiplicative monotone convolution toolkit for circle measures.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # subcommand name -> its parser

    c = sub.add_parser("convolve", help="monotone convolution of two measures")
    c.add_argument("mu", help="JSON file for the left measure")
    c.add_argument("nu", help="JSON file for the right measure")
    c.add_argument("--order", type=int, default=DEFAULT_ORDER)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_convolve)

    e = sub.add_parser("evolve", help="flow a generator and tabulate K_t(z)")
    e.add_argument("gen", help="JSON generator ({'b','rho'} or {'rates'})")
    e.add_argument("--t", required=True, help="time or comma-separated times")
    e.add_argument("--grid", help="JSON file with [re, im] points")
    e.add_argument("--z", action="append", help="point like 0.5 or 0.3+0.2j (repeatable)")
    e.add_argument("--tol", type=float, default=1e-10)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_evolve)

    m = sub.add_parser("embed", help="embeddability verdict for a K-transform")
    m.add_argument("k", help="JSON with 'series' or a measure object")
    m.add_argument("--order", type=int, default=DEFAULT_ORDER)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_embed)

    g = sub.add_parser("gw", help="Monte-Carlo Galton-Watson generating values")
    g.add_argument("law", help="JSON offspring law {'p': [...]}")
    g.add_argument("--n", type=int, required=True, help="number of generations")
    g.add_argument("--trials", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--z", action="append", help="sample point (repeatable)")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gw)

    x = sub.add_parser("counterexample", help="half-line sandwich comparison report")
    x.add_argument("--a", type=float, required=True)
    x.add_argument("--b", type=float, required=True)
    x.add_argument("--out")
    x.set_defaults(func=_cmd_counterexample)

    f = sub.add_parser("cfree-check", help="two-state vs monotone specialization sweep")
    f.add_argument("--max-len", type=int, default=6)
    f.add_argument("--max-power", type=int, default=3)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out")
    f.set_defaults(func=_cmd_cfree_check)

    v = sub.add_parser("verify-ops", help="random operator-model composition suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cases", type=int, default=100)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify_ops)

    return p


# ``parse_args`` leaves a parser unchanged, so one parser serves every call
# of :func:`main` in a process.
_PARSER = build_parser()


def _fail(code, kind, message):
    sys.stderr.write(json.dumps({"error": {"code": kind, "message": message}}) + "\n")
    return code


def _parse_args(argv):
    """``_PARSER.parse_args(argv)``, with the named subcommand's parser when argv[0] names one.

    The top-level parser hands everything after the subcommand name to that
    parser, so this gives the same namespace, error or help text.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no option
            raise InputError(f"--seed: must be >= 0, got {args.seed}")
        if getattr(args, "order", 0) > _MAX_ORDER:
            raise InputError(f"--order: must be <= {_MAX_ORDER}, got {args.order}")
        if getattr(args, "n", 0) > _MAX_GENERATIONS:
            raise InputError(f"--n: must be <= {_MAX_GENERATIONS}, got {args.n}")
        if getattr(args, "cases", 0) > _MAX_CASES:
            raise InputError(f"--cases: must be <= {_MAX_CASES}, got {args.cases}")
        _write(_render(args.func(args)), args.out)
        return 0
    except DomainError as exc:
        return _fail(EXIT_DOMAIN, "domain-error", str(exc))
    except (StepSizeUnderflowError, SupercriticalOverflowError) as exc:
        return _fail(EXIT_NUMERIC, "numeric-failure", str(exc))
    except MemoryError as exc:  # numpy's names the array; a bare one says nothing
        message = f"request too large to allocate: {str(exc) or 'out of memory'}"
        return _fail(EXIT_NUMERIC, "numeric-failure", message)
    except ValueError as exc:
        return _fail(EXIT_INPUT, "invalid-input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
