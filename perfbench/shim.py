"""Run one `gmalg` CLI invocation with spans around each layer's entry points.

Usage: python3 perfbench/shim.py SPANS_OUT INVOCATION_ID -- GMALG_ARGS...

Every traced function is rebound in each `gmalg` module that holds the same
function object, so callers that imported the name are caught too. Spans stay
in memory and are written to SPANS_OUT as JSON when the command returns. Only
module entry points are wrapped; inner helpers such as field arithmetic are
not, so the wrappers stay off the hot loops.
"""

from __future__ import annotations

import json
import sys
import time

from spans import BOOKKEEPING

TRACED = {
    "fileformat": ("load_context", "load_map", "dumps_canonical"),
    "gma": ("validate_context", "assemble"),
    "algebra_core": ("validate_algebra", "commutator_span"),
    "exact_linear": ("kernel_basis", "rref"),
    "structure_analysis": ("center", "center_data", "pair_spaces", "check_hypotheses",
                           "derivation_space", "lie_derivation_space"),
    "multilinear": ("n_lie_derivation_space", "is_n_lie_derivation",
                    "is_centrally_valued"),
    "decompose": ("decompose", "build_extremal", "extremal_exists",
                  "probe_seed_uniqueness"),
}


class Tracer:
    def __init__(self, inv: str):
        self.inv = inv
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """`before(args)` and `after(args, result)` return counter dicts.

        Their cost is recorded as a bookkeeping span, a child of the caller,
        so it is charged neither to the traced call nor to its caller.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def bookkeeping(start):
            spans.append({"name": BOOKKEEPING, "start": start, "end": clock(),
                          "parent": stack[-1] if stack else None, "inv": self.inv})

        def traced(*args, **kwargs):
            counters = {}
            if before is not None:
                t0 = clock()
                counters.update(before(args))
                bookkeeping(t0)
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = {"name": name, "start": start, "end": end,
                              "parent": parent, "inv": self.inv, "counters": counters}
            if after is not None:
                t0 = clock()
                counters.update(after(args, result))
                bookkeeping(t0)
            return result

        return traced


def _nnz(rows) -> int:
    return sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x) for r in rows)


def _counter_hooks(modules) -> dict:
    """(before, after) hooks per traced name; counts come from the arguments."""
    ml, sa = modules["multilinear"], modules["structure_analysis"]
    lie_space = sa.lie_derivation_space

    def leibniz_tuples(args):
        d, n = args[1].dim, args[1].arity
        return {"tuples": n * d ** (n - 1) * d * (d - 1) // 2}

    def space_size(args, result):
        d, n = ml.core_algebra(args[0]).dim, args[1]
        ell = lie_space(ml.core_algebra(args[0])).dim
        return {"unknowns": ell * d ** (n - 1), "dim": len(result)}

    return {
        "fileformat.dumps_canonical": (
            None, lambda args, res: {"bytes": len(res.encode("utf-8"))}),
        "exact_linear.kernel_basis": (
            lambda args: {"rows": len(args[2]), "cols": args[1], "nnz": _nnz(args[2])},
            lambda args, res: {"kernel_dim": len(res)}),
        "multilinear.n_lie_derivation_space": (None, space_size),
        "multilinear.is_n_lie_derivation": (
            leibniz_tuples, lambda args, res: {"passed": int(bool(res.ok))}),
    }


def install(tracer: Tracer) -> None:
    """Rebind every traced entry point in every loaded `gmalg` module."""
    import gmalg.cli  # noqa: F401  (loads every module of the package)

    modules = {short: sys.modules[f"gmalg.{short}"] for short in TRACED}
    hooks = _counter_hooks(modules)
    loaded = [m for key, m in sys.modules.items()
              if key == "gmalg" or key.startswith("gmalg.")]
    for short, names in TRACED.items():
        for fname in names:
            orig = getattr(modules[short], fname)
            name = f"{short}.{fname}"
            wrapped = tracer.wrap(name, orig, *hooks.get(name, (None, None)))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)


def main(argv: list) -> int:
    out_path, inv, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_OUT INVOCATION_ID -- GMALG_ARGS...")
    tracer = Tracer(inv)
    install(tracer)
    import gmalg.cli

    try:
        return gmalg.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
