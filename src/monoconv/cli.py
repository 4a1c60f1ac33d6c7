"""Batch command line front end.

Subcommands: convolve, evolve, embed, gw, counterexample, cfree-check,
verify-ops.  Inputs are JSON files, outputs are JSON or CSV on stdout or
at --out.  Identical invocations with identical seeds produce
byte-identical output.

:func:`main` parses with one parser, built when the module is imported and
reused by every call in the process; :func:`build_parser` returns a fresh
one.

Exit codes: 0 success, 2 invalid input (malformed JSON, schema or
validation errors, a truncation order above 4096), 3 mathematical domain
errors, 4 numerical failures (step-size underflow, population overflow, a
request too large to allocate).
"""

from __future__ import annotations

import argparse
import dataclasses
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

# Largest truncation order accepted (--order, an embed series): the power
# table of order n is (n + 1)^2 complex numbers, 268 MB at 4096.
_MAX_ORDER = 4096


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
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


# -- serialization -----------------------------------------------------------


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n", out_path)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    return str(v)


# -- subcommands -------------------------------------------------------------


def _cmd_convolve(args):
    mu = _measure_from_obj(_load_json(args.mu), args.mu)
    nu = _measure_from_obj(_load_json(args.nu), args.nu)
    m = convolution.monotone_convolve(mu, nu, args.order).moments(args.order)
    if args.format == "csv":
        rows = [(k + 1, v.real, v.imag) for k, v in enumerate(m)]
        _emit(_csv(("k", "re(m)", "im(m)"), rows), args.out)
    else:
        _emit_json({"order": args.order, "moments": list(m)}, args.out)
    return 0


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
    _emit(_csv(header, rows), args.out)
    return 0


def _cmd_embed(args):
    k = _k_from_obj(_load_json(args.k), args.k, args.order)
    _emit_json(dataclasses.asdict(embedding.embedding_test(k)), args.out)
    return 0


def _cmd_gw(args):
    law = _law_from_obj(_load_json(args.law), args.law)
    zs = [_parse_point(text) for text in args.z or ["0.3", "0.5", "0.8"]]
    sim = branching.simulate_gw(law, args.n, args.trials, zs, args.seed)
    rows = [
        (z, m.real, m.imag, e, th.real, th.imag)
        for z, m, e, th in zip(sim.z_samples, sim.means, sim.stderrs, sim.theory)
    ]
    _emit(
        _csv(("z", "re(empirical)", "im(empirical)", "stderr", "re(theory)", "im(theory)"), rows),
        args.out,
    )
    return 0


def _cmd_counterexample(args):
    _emit_json(dataclasses.asdict(opmodel.sandwich_counterexample(args.a, args.b)), args.out)
    return 0


def _cmd_cfree_check(args):
    _check_sweep_bounds(args.max_len, args.max_power)
    rng = np.random.default_rng(args.seed)
    n_mom = args.max_len * args.max_power
    phi1 = MomentFunctional([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n_mom)])
    phi2 = MomentFunctional([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n_mom)])
    defect, count = monotone_specialization_defect(phi1, phi2, args.max_len, args.max_power)
    _emit_json(
        {
            "max_defect": float(defect),
            "exact_zero": defect == 0,
            "words_checked": count,
            "max_len": args.max_len,
            "max_power": args.max_power,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def _cmd_verify_ops(args):
    report = opmodel.random_composition_suite(seed=args.seed, cases=args.cases)
    report["pass"] = report["max_defect"] <= 1e-10
    report["tolerance"] = 1e-10
    _emit_json(report, args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="monoconv",
        description="Multiplicative monotone convolution toolkit for circle measures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

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


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no option
            raise InputError(f"--seed: must be >= 0, got {args.seed}")
        if getattr(args, "order", 0) > _MAX_ORDER:
            raise InputError(f"--order: must be <= {_MAX_ORDER}, got {args.order}")
        return args.func(args)
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
