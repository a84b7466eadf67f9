#!/usr/bin/env python3
"""Write perfbench/reference.json, the oracle that run.py checks reports against.

Usage (from the root of a checkout): python3 perfbench/record.py

For every workload command it records, from the stock instances, the exit
code and the basis-invariant report fields; and from the default seed, the
SHA-256 of the report with `timings` removed. It refuses to write the file if
the default-seed run disagrees with the stock run on an invariant field or an
exit code. Run it only on a commit whose reports are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run


def one_pass(name: str, seed) -> dict:
    wl = run.WORKLOADS[name]
    cwd = os.path.join(run.WORK, f"record-{name}")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    run.set_up(name, wl, seed, cwd)
    out = {}
    for cmd in wl.commands:
        inv = run.gmalg(cmd.args, cwd)
        if inv.timed_out or "Traceback" in inv.stderr:
            raise SystemExit(f"{name}: `gmalg {cmd.label}` crashed:\n{inv.stderr}")
        text = run.canonical_report(inv.stdout)
        out[cmd.label] = {"exit": inv.code,
                          "invariants": run.invariants(json.loads(text)),
                          "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    shutil.rmtree(cwd)
    return out


def main() -> int:
    workloads = {}
    for name in run.WORKLOADS:
        stock = one_pass(name, None)
        seeded = one_pass(name, run.DEFAULT_SEED)
        for label, ref in stock.items():
            got = seeded[label]
            if (got["exit"], got["invariants"]) != (ref["exit"], ref["invariants"]):
                raise SystemExit(f"{name}: `{label}` is not basis invariant:\n"
                                 f"stock {ref}\nseeded {got}")
            ref["sha256"] = got["sha256"]
        workloads[name] = stock
        print(f"recorded {name}: {len(stock)} commands", file=sys.stderr)
    doc = {"default_seed": run.DEFAULT_SEED, "workloads": workloads}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
