"""Command-line surface: generate, validate, analyze, decompose, verify.

`gen` writes a spec, and `validate` reports on a spec without refusing it.
Every other command runs through one driver, `_run`: it checks the arity
floor, and the --lie that `derivations` needs from arity 2 on, before the
spec is read, loads the spec (refusing an invalid context), builds the
report header, and hands the assembled algebra and the report to the
command's body, which fills `checks` and `details`. The loaded context is
validated, so the body has no center-structure failure path: the shape of
Z(G) follows from the context axioms. A report's `options` are the
command's own arguments (for `decompose`, the arity is the map's).

Every command writes one canonical JSON document on stdout, or to -o
(atomically, where -o names a regular file or nothing yet). Exit codes: 0
all checks pass, 1 at least one check failed, 2 input or parse errors (an
-o that cannot be written included), 3 resource budget exceeded.

`console_main`, the entry point of the `gmalg` script and of
`python -m gmalg.cli`, calls `gc.freeze()` before `main`. The modules,
classes and functions loaded by then live until the process exits, and
the freeze moves them to the permanent generation, which no collection
visits, not even the ones the interpreter runs while it shuts down.
Garbage made during a run is still collected. `main` itself never
freezes, so an in-process caller keeps its collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from . import budget
from .algebra_core import Element
from .decompose import decompose, extremal_exists, verify_decomposition
from .errors import BudgetExceededError, GmalgError, LieLeibnizError, SpecFileError
from .exact_linear import FieldSpec
from .fileformat import (REPORT_FORMAT, context_fingerprint, context_to_dict,
                         dumps_canonical, load_context, load_json, load_map,
                         map_to_dict, matrix_to_dict, save_atomic,
                         subspace_to_dict, context_from_dict, encode_vector)
from .gma import (BUILTIN_KINDS, assemble, builtin_dims, generate_builtin,
                  guard_context_tables, validate_context)
from .multilinear import LeibnizWitness, MultilinearMap, n_lie_derivation_space
from .structure_analysis import (CheckStatus, center_data, derivation_space,
                                 lie_derivation_space, check_hypotheses)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

# The lowest --arity of each command that takes one.
_LOWEST_ARITY = {"derivations": 1, "verify": 2}

_EPILOG = f"""\
fields are written 'q' (rationals) or 'gf:P' (odd prime P). All files are
JSON; map and spec coefficients are 'num/den' strings over q and residues
over gf:P. Global basis indices are block ordered: A block, M block,
N block, B block. The environment variable {budget.ENV_VAR} overrides the
basis-tuple budget (default {budget.DEFAULT_TUPLE_BUDGET}); one tenth of it
caps the unknown count of space computations. These budgets are the only
bound on --arity.
"""


def _witness_json(obj):
    if obj is None:
        return None
    if isinstance(obj, Element):
        return {"coords": encode_vector(obj.algebra.field, obj.coords)}
    if isinstance(obj, LeibnizWitness):
        return {"slot": obj.slot, "args": list(obj.args), "partner": obj.partner}
    if isinstance(obj, (list, tuple)):
        return [_witness_json(x) for x in obj]
    if isinstance(obj, (str, int, bool)):
        return obj
    return str(obj)


def _check(name: str, status: str, witness=None, reason: str = "") -> dict:
    rec = {"name": name, "status": status}
    if witness is not None:
        rec["witness"] = _witness_json(witness)
    if reason:
        rec["reason"] = reason
    return rec


def _status_check(name: str, st: CheckStatus) -> dict:
    return _check(name, st.status, st.witness, st.reason)


def _write(text: str, out: str | None) -> None:
    if out:
        save_atomic(out, text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out: str | None, started: float) -> int:
    report["timings"] = {"elapsed_s": round(time.perf_counter() - started, 6)}
    _write(dumps_canonical(report), out)
    failed = any(c["status"] == "fail" for c in report["checks"])
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _header(args, ctx) -> dict:
    """A report on `ctx` whose options are the command's own arguments."""
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "output")}
    return {"format": REPORT_FORMAT, "command": args.command,
            "instance": context_fingerprint(ctx), "options": options}


def _run(args) -> int:
    """Report on a spec through the body `args.func(args, g, rep)`.

    The arity floor and the --lie that `derivations` needs from arity 2 on
    are checked before the spec is read, and an invalid context is refused
    on load. The body fills `rep["checks"]` and `rep["details"]`; a valid
    context leaves it no center-structure failure to report.
    """
    started = time.perf_counter()
    lowest = _LOWEST_ARITY.get(args.command)
    if lowest is not None and args.arity < lowest:
        raise SpecFileError(f"{args.command}: --arity {args.arity} is below {lowest}")
    if args.command == "derivations" and args.arity >= 2 and not args.lie:
        raise SpecFileError(
            "only Lie-type spaces are computed for arity >= 2; pass --lie")
    ctx = load_context(args.spec)
    rep = _header(args, ctx)
    rep["checks"] = []
    args.func(args, assemble(ctx, validate=False), rep)
    return _emit(rep, args.output, started)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    field = FieldSpec.from_name(args.field)
    kind = args.kind.replace("-", "_")
    if kind == "full_matrix":
        if args.r is None:
            raise SpecFileError("--r is required for full-matrix")
        sizes = {"r": args.r}
    else:
        if args.s is None or args.t is None:
            raise SpecFileError(f"--s and --t are required for {args.kind}")
        sizes = {"s": args.s, "t": args.t}
    # the check a spec gets on load, made before any table is built
    guard_context_tables(*builtin_dims(kind, **sizes))
    ctx = generate_builtin(kind, field, **sizes)
    report = validate_context(ctx)
    if not report.ok:
        raise SpecFileError(f"generated context failed validation: "
                            f"{report.summary()}")
    _write(dumps_canonical(context_to_dict(ctx)), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    started = time.perf_counter()
    ctx = context_from_dict(load_json(args.spec))
    report = validate_context(ctx)
    rep = _header(args, ctx)
    rep["checks"] = [_check("context-valid", "pass" if report.ok else "fail",
                            reason=report.summary() if not report.ok else "")]
    rep["checks"] += [_check(f"axiom-{v.law}", "fail", witness=list(v.indices),
                             reason=v.detail) for v in report.violations]
    return _emit(rep, args.output, started)


def _cmd_center(args, g, rep) -> None:
    cd = center_data(g)
    # a validated context fixes the center's shape, so this check always passes
    rep["checks"] = [_check("center-structure", "pass")]
    rep["details"] = {
        "center_g": subspace_to_dict(cd.center_g),
        "center_a": subspace_to_dict(cd.center_a),
        "center_b": subspace_to_dict(cd.center_b),
        "a_part": subspace_to_dict(cd.a_part),
        "b_part": subspace_to_dict(cd.b_part),
        "a_to_b": matrix_to_dict(g.field, cd.a_to_b),
    }


def _cmd_hypotheses(args, g, rep) -> None:
    report = check_hypotheses(g, args.theorem)
    rep["checks"] = [_status_check(f"hypothesis-{args.theorem}-({num})", st)
                     for num, st in report.conditions]
    rep["details"] = {"all_pass": report.all_pass}


def _cmd_derivations(args, g, rep) -> None:
    if args.arity == 1:
        space = (lie_derivation_space if args.lie else derivation_space)(g.algebra)
        maps = [_matrix_map_dict(g.field, g.dim, flat) for flat in space.basis]
    else:
        maps = [map_to_dict(m) for m in n_lie_derivation_space(g, args.arity)]
    rep["details"] = {"dim": len(maps), "basis_maps": maps}


def _matrix_map_dict(field, dim, flat) -> dict:
    entries = {}
    for s in range(dim):
        vec = [flat[t * dim + s] for t in range(dim)]
        if any(vec):
            entries[(s,)] = vec
    return map_to_dict(MultilinearMap.from_entries(field, 1, dim, entries))


def _cmd_extremal(args, g, rep) -> None:
    ex = extremal_exists(g)
    # a validated context makes the projected annihilator the solution of the
    # linear conditions, so this check always passes
    rep["checks"] = [
        _check("offdiagonal-annihilator-matches-linear-conditions", "pass")]
    rep["details"] = {
        "exists": ex.exists,
        "witness": _witness_json(ex.witness),
        "solution": subspace_to_dict(ex.solution),
        "annihilator": subspace_to_dict(ex.annihilator),
        "offdiag_annihilator": subspace_to_dict(ex.offdiag_annihilator),
    }


def _cmd_decompose(args, g, rep) -> None:
    mmap = load_map(args.map, g.field, g.dim)
    if args.arity is not None and args.arity != mmap.arity:
        raise SpecFileError(
            f"--arity {args.arity} does not match map arity {mmap.arity}")
    rep["options"]["arity"] = mmap.arity
    try:
        dec = decompose(g, mmap)
    except LieLeibnizError as exc:
        rep["checks"] = [_check("input-is-n-lie-derivation", "fail",
                                witness=exc.witness)]
        return
    ch = dec.checks
    rep["checks"] = [
        _check("input-is-n-lie-derivation", "pass"),
        _check("exact-sum", "pass" if ch.exact_sum else "fail"),
        _check("seed-annihilates-commutators",
               "pass" if ch.seed_annihilates_commutators else "fail"),
        _check("central-part-centrally-valued",
               "pass" if ch.central_part_is_central.ok else "fail",
               witness=ch.central_part_is_central.witness),
    ]
    rep["details"] = {
        "seed": _witness_json(dec.seed),
        "seed_is_central_degenerate": ch.seed_is_central,
        "extremal_part": map_to_dict(dec.extremal_part),
        "central_part": map_to_dict(dec.central_part),
    }


def _cmd_verify(args, g, rep) -> None:
    vr = verify_decomposition(g, args.arity)
    checks = [_status_check(f"hypothesis-{hrep.variant}-({num})", st)
              for hrep in vr.hypothesis_reports for num, st in hrep.conditions]
    verdicts = []
    for idx, (dec, tri) in enumerate(vr.verdicts):
        ch = dec.checks
        checks.append(_check(f"element-{idx}-exact-sum",
                             "pass" if ch.exact_sum else "fail"))
        if vr.theorem_applicable:
            checks.append(_check(
                f"element-{idx}-seed-annihilates",
                "pass" if ch.seed_annihilates_commutators else "fail"))
            checks.append(_status_check(
                f"element-{idx}-central-part-central", ch.central_part_is_central))
        if tri is not None:
            checks.append(_check(f"element-{idx}-triangular-seed-form",
                                 "pass" if tri else "fail"))
        verdicts.append({
            "index": idx,
            "exact_sum": ch.exact_sum,
            "seed_coords": encode_vector(g.field, dec.seed.coords),
            "seed_annihilates": ch.seed_annihilates_commutators,
            "central_part_central": ch.central_part_is_central.ok,
            "seed_degenerate": ch.seed_is_central,
            "triangular_seed_form": tri,
        })
    rep["checks"] = checks
    rep["details"] = {
        "space_dim": vr.space_dim,
        "theorem_applicable": vr.theorem_applicable,
        "uniqueness_probe": {
            "admissible_dim": vr.uniqueness.admissible_dim,
            "kernel_dim": vr.uniqueness.kernel_dim,
            "unique_on_probe": vr.uniqueness.unique_on_probe,
        },
        "verdicts": verdicts,
        "failures": list(vr.failures),
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmalg",
        description="Exact analysis of generalized matrix algebras built "
                    "from Morita-context data.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a builtin example spec file")
    p.add_argument("--kind", required=True,
                   choices=[kind.replace("_", "-") for kind in BUILTIN_KINDS])
    p.add_argument("--field", required=True, help="'q' or 'gf:P', P an odd prime")
    p.add_argument("--r", type=int, help="matrix size for full-matrix (>= 2)")
    p.add_argument("--s", type=int, help="size of the square block A = M_s")
    p.add_argument("--t", type=int, help="size of the square block B = M_t")
    p.add_argument("-o", "--output", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check every Morita-context axiom")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("center", help="centers, projections and linking map")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("hypotheses", help="evaluate a decomposition ruleset")
    p.add_argument("spec")
    p.add_argument("--theorem", required=True, choices=["4.1", "4.3"],
                   help="4.1: central-action ruleset; 4.3: annihilator ruleset")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_hypotheses)

    p = sub.add_parser("derivations", help="derivation-type spaces")
    p.add_argument("spec")
    p.add_argument("--lie", action="store_true",
                   help="Lie version (required for arity >= 2)")
    p.add_argument("--arity", type=int, default=1,
                   help=f"arity n >= 1 (default 1); bounded only by {budget.ENV_VAR}")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("extremal", help="existence of nonzero extremal maps")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("decompose", help="split a map file into parts")
    p.add_argument("spec")
    p.add_argument("map")
    p.add_argument("--arity", type=int, help="cross-check against the map file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="decompose the whole n-Lie space")
    p.add_argument("spec")
    p.add_argument("--arity", type=int, required=True,
                   help=f"arity n >= 2; bounded only by {budget.ENV_VAR}")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("gen", "validate"):
            return args.func(args)
        return _run(args)
    except BudgetExceededError as exc:
        print(f"gmalg: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SpecFileError as exc:
        print(f"gmalg: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except GmalgError as exc:
        print(f"gmalg: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"gmalg: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console_main()
