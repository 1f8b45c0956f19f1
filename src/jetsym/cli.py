"""Command-line driver.

Exit codes are a total function of the outcome category:
0 success, 1 usage or parse error, 2 nonlocal obstruction,
3 failed verification check, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analysis import (DensityAnsatz, commutativity_table, density_search,
                       substitution_check, verify_hierarchy)
from .errors import (AnsatzTooLarge, DuplicateEquation, DxBudgetExceeded, HierarchyTooLarge,
                     InvalidHierarchy, InvalidSetting, JetOrderOutOfRange, JetsymError,
                     MissingEquation, NonlocalObstruction, NumberTooLong, ParseError,
                     PoleAtParameter)
from .hierarchy import Hierarchy, fs_hierarchy, ts1_hierarchy
from .jetalgebra import jet
from .systems import builtin_names, builtin_system, parse_system, render_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONLOCAL = 2
EXIT_CHECK_FAILED = 3
EXIT_RESOURCE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _diag(args, code: str, message: str, extra=None):
    if getattr(args, "json", False):
        payload = {"error": {"code": code, "message": message}}
        if extra is not None:
            payload["error"].update(extra)
        print(json.dumps(payload, separators=(",", ":")), file=sys.stderr)
    else:
        print(f"jetsym: {message}", file=sys.stderr)


def _parse_rational(text: str) -> Fraction:
    """The rational that text spells as ``p``, ``p/q`` or a decimal.  An
    exponent is refused: ``1e999999999`` would make Fraction build an
    integer of unbounded size past Python's limit on parsed digits."""
    try:
        if "e" in text or "E" in text:
            raise ValueError("an exponent is not accepted")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"invalid rational {text!r}: {exc}") from None


def _load_system(args):
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_system(fh.read())
    name = getattr(args, "system", None)
    if not name:
        raise _UsageError("one of --system or --file is required")
    try:
        return builtin_system(name)
    except KeyError:
        raise _UsageError(
            f"unknown system {name!r}; built-ins are {', '.join(builtin_names())}"
        ) from None


def _emit(args, payload, text):
    print(json.dumps(payload, separators=(",", ":")) if args.json else text)


def cmd_gen(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    alpha0 = _parse_rational(args.alpha) if args.alpha else None
    if args.file:
        raise _UsageError("generation is defined only for the built-in "
                          "systems fs and ts1")
    if args.system == "fs":
        h = fs_hierarchy(args.n, alpha0)
    elif args.system == "ts1":
        h = ts1_hierarchy(args.n, alpha0)
    else:
        raise _UsageError("generation is defined only for systems fs and ts1")
    doc = json.dumps(h.to_json(), separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
        _emit(args, {"written": args.out, "members": len(h.members)},
              f"wrote {len(h.members)} members to {args.out}")
    else:
        print(doc)
    return EXIT_OK


def _load_hierarchy(path: str) -> Hierarchy:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return Hierarchy.from_json(json.load(fh))
        except ValueError as exc:  # not JSON or not UTF-8, bad rational or jet
            raise InvalidHierarchy(f"{path}: {exc}") from None


def cmd_verify(args) -> int:
    h = _load_hierarchy(args.hierarchy)
    report = verify_hierarchy(h)
    _emit(args, report.to_json(), report.to_text())
    if not report.ok:
        failed = next(c.name for c in report.checks if not c.ok)
        _diag(args, "check-failed", f"verification failed at: {failed}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_commute(args) -> int:
    h = _load_hierarchy(args.hierarchy)
    table = commutativity_table(h)
    payload = {
        "size": table.size,
        "all_zero": table.all_zero,
        "nonzero_pairs": [list(p) for p, _ in table.failures],
    }
    lines = [f"members: {table.size}"]
    for (i, j), _ in table.failures:
        lines.append(f"nonzero commutator at ({i}, {j})")
    lines.append("all pairwise commutators vanish" if table.all_zero
                 else "commutativity FAILED")
    _emit(args, payload, "\n".join(lines))
    if not table.all_zero:
        _diag(args, "check-failed", f"commutativity failed at: {table.failures[0][0]}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_densities(args) -> int:
    if args.max_order < 0 or args.max_degree < 0:
        raise _UsageError("--max-order and --max-degree must be nonnegative")
    try:
        jet(0, args.max_order)
    except ValueError as exc:
        raise _UsageError(f"--max-order: {exc}") from None
    system = _load_system(args)
    if args.alpha:
        system = system.specialize(_parse_rational(args.alpha))
    ansatz = DensityAnsatz(args.max_order, args.max_degree)
    report = density_search(system, ansatz)
    names = system.depvars
    param = system.parameter or "alpha"
    lines = [
        f"system {report.system_name}: order <= {args.max_order}, "
        f"degree <= {args.max_degree}, {report.unknowns} unknowns",
        f"conserved solution space dimension: {report.solution_dimension}",
        f"nontrivial quotient dimension: {report.nontrivial_dimension}",
    ]
    for b in report.nontrivial_basis:
        lines.append(f"  nontrivial density: {b.text(names, param)}")
    _emit(args, report.to_json(), "\n".join(lines))
    return EXIT_OK


def cmd_subst_check(args) -> int:
    alpha0 = _parse_rational(args.alpha) if args.alpha else None
    report = substitution_check(alpha0)
    names = builtin_system("fs").depvars
    payload = {
        "ok": report.ok,
        "defects": [d.to_json() for d in report.defects],
    }
    text = ("substitution identity holds" if report.ok else
            "substitution identity FAILED:\n"
            + "\n".join(d.text(names) for d in report.defects))
    _emit(args, payload, text)
    if not report.ok:
        _diag(args, "check-failed", "substitution identity failed")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_render(args) -> int:
    system = _load_system(args)
    sys.stdout.write(render_system(system))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="jetsym",
                     description="exact symbolic hierarchy computations for "
                                 "a Burgers-type system")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system_flags=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output and diagnostics")
        if system_flags:
            p.add_argument("--system", help="built-in system name")
            p.add_argument("--file", help="system definition file")

    p = sub.add_parser("gen", help="generate a hierarchy")
    common(p)
    p.add_argument("--n", type=int, required=True, help="number of members")
    p.add_argument("--out", help="output path for the hierarchy JSON")
    p.add_argument("--alpha", help="specialize the parameter to p/q")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the verification checklist")
    common(p, system_flags=False)
    p.add_argument("hierarchy", help="hierarchy JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("commute", help="all-pairs commutator table")
    common(p, system_flags=False)
    p.add_argument("hierarchy", help="hierarchy JSON file")
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("densities", help="bounded conserved-density search")
    common(p)
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--alpha", help="specialize the parameter to p/q")
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("subst-check", help="verify the linearizing substitution")
    common(p, system_flags=False)
    p.add_argument("--alpha", help="specialize the parameter to p/q")
    p.set_defaults(func=cmd_subst_check)

    p = sub.add_parser("render", help="canonical text of a system definition")
    common(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"jetsym: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, InvalidSetting) as exc:
        _diag(args, "usage", str(exc))
        return EXIT_USAGE
    except PoleAtParameter as exc:
        _diag(args, "pole", str(exc), {"denominator": exc.den_text})
        return EXIT_USAGE
    except (ParseError, DuplicateEquation, MissingEquation, InvalidHierarchy) as exc:
        _diag(args, "parse", str(exc))
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        _diag(args, "io", str(exc))
        return EXIT_USAGE
    except NonlocalObstruction as exc:
        extra = {"remainder": exc.remainder.to_json(),
                 "entry": list(exc.entry) if exc.entry else None}
        _diag(args, "nonlocal", str(exc), extra)
        return EXIT_NONLOCAL
    except (AnsatzTooLarge, HierarchyTooLarge) as exc:
        _diag(args, "resource", str(exc), {"count": exc.count, "cap": exc.cap})
        return EXIT_RESOURCE
    except DxBudgetExceeded as exc:
        _diag(args, "resource", str(exc), {"bits": exc.bits, "budget": exc.budget})
        return EXIT_RESOURCE
    except (NumberTooLong, JetOrderOutOfRange) as exc:
        _diag(args, "resource", str(exc))
        return EXIT_RESOURCE
    except JetsymError as exc:
        _diag(args, "error", str(exc))
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
