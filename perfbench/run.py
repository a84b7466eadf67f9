#!/usr/bin/env python3
"""Benchmark of the `gmalg` CLI: four seeded workloads, driven from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-q --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client runs one `gmalg` invocation at a time, each in a fresh process, in
a closed loop. A run:

1. makes one warm-up invocation, so bytecode caches exist;
2. sets the workload up several times (`gmalg gen`, a seeded change of basis
   done here, `gmalg validate`, and for verify-gf the `derivations` call whose
   basis maps become the map files) and reports the median set-up time;
3. repeats the workload's commands as passes until `--seconds` is used up,
   running `calibrate.py` before every set-up and every pass;
4. checks every invocation: exit code, no traceback, no timeout, and the
   report against `reference.json`.

With `--trace 0` the last line holds the end-to-end metrics. The times are
scaled to the reference machine speed: the machine this runs on drifts in
speed by tens of percent over minutes, and the median time of the fixed
calibration work in the same run measures that drift. With
`--trace 1` untraced and traced passes alternate, and the last line holds the
per-layer metrics taken from the traced passes (see `shim.py`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(BENCH, "reference.json")
CALIBRATE = os.path.join(BENCH, "calibrate.py")
sys.path.insert(0, BENCH)

from inputs import change_basis  # noqa: E402
from spans import aggregate  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 3
MIN_PASSES = 3
INVOCATION_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0
IMPORT_REPS = 5
# Median wall time of calibrate.py on the machine the benchmark was defined on
# (2 vCPU Xeon at 2.1 GHz); the times reported are scaled to that speed.
CALIBRATION_REFERENCE_S = 0.18
MAP_FILES = ("map-first.json", "map-last.json")


@dataclass(frozen=True)
class Spec:
    name: str
    gen_args: tuple


@dataclass(frozen=True)
class Command:
    args: tuple

    @property
    def label(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    field: str
    specs: tuple
    commands: tuple
    maps_from: str = ""  # spec whose arity-3 basis maps become MAP_FILES
    predicate: bool = False  # the Leibniz predicate should dominate self time


def _spec(name, kind, **sizes):
    args = ["--kind", kind]
    for key, val in sizes.items():
        args += [f"--{key}", str(val)]
    return Spec(name, tuple(args))


def _cmds(*lines):
    return tuple(Command(tuple(line.split())) for line in lines)


_ANALYZE = ("validate {0}", "center {0}", "hypotheses {0} --theorem 4.1",
            "hypotheses {0} --theorem 4.3", "extremal {0}", "derivations {0}",
            "derivations --lie {0}")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "verify-q": Workload(
        "q",
        (_spec("ut21", "upper-triangular", s=2, t=1),
         _spec("ut12", "upper-triangular", s=1, t=2)),
        _cmds("verify ut21.json --arity 3", "verify ut12.json --arity 3"),
        predicate=True),
    "verify-gf": Workload(
        "gf:101",
        (_spec("ut21", "upper-triangular", s=2, t=1),
         _spec("fm3", "full-matrix", r=3),
         _spec("zp21", "zero-pairing", s=2, t=1)),
        _cmds("verify ut21.json --arity 3", "verify fm3.json --arity 3",
              "verify zp21.json --arity 3",
              f"decompose ut21.json {MAP_FILES[0]}",
              f"decompose ut21.json {MAP_FILES[1]}"),
        maps_from="ut21", predicate=True),
    "space": Workload(
        "q",
        (_spec("zp21", "zero-pairing", s=2, t=1),
         _spec("ut21", "upper-triangular", s=2, t=1),
         _spec("zp22", "zero-pairing", s=2, t=2)),
        _cmds("derivations --lie --arity 3 zp21.json",
              "derivations --lie --arity 3 ut21.json",
              "derivations --lie --arity 2 zp22.json")),
    "analyze": Workload(
        "q",
        (_spec("fm3", "full-matrix", r=3),
         _spec("zp22", "zero-pairing", s=2, t=2)),
        _cmds(*(line.format(f"{name}.json") for name in ("fm3", "zp22")
                for line in _ANALYZE))),
}


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    label: str
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GMALG_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def invoke(argv: list, cwd: str, label: str) -> Invocation:
    """Run one child process; CPU time and max RSS come from its own wait4."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(INVOCATION_LIMIT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # Popen itself never waited; record the status so it does not reap again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Invocation(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout, stderr, killed.is_set())


def gmalg(args, cwd: str) -> Invocation:
    return invoke([sys.executable, "-m", "gmalg.cli", *args], cwd, " ".join(args))


def gmalg_traced(args, cwd: str, spans_path: str, inv_id: str) -> Invocation:
    shim = os.path.join(BENCH, "shim.py")
    return invoke([sys.executable, shim, spans_path, inv_id, "--", *args], cwd,
                  " ".join(args))


class SetupError(RuntimeError):
    pass


def _require(inv: Invocation) -> Invocation:
    if inv.code != 0 or inv.timed_out:
        raise SetupError(f"`gmalg {inv.label}` exited {inv.code}:\n{inv.stderr.strip()}")
    return inv


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(name: str, wl: Workload, seed, cwd: str) -> float:
    """Write the workload's inputs into `cwd`; return the program's wall time.

    `seed` None keeps the stock instances (used to record the oracle).
    Only program invocations are timed, not the change of basis done here.
    """
    timed = 0.0
    for spec in wl.specs:
        stock = f"stock-{spec.name}.json"
        inv = _require(gmalg(["gen", *spec.gen_args, "--field", wl.field, "-o", stock], cwd))
        timed += inv.wall
        with open(os.path.join(cwd, stock), encoding="utf-8") as fh:
            data = json.load(fh)
        if seed is not None:
            data = change_basis(data, f"{seed}:{name}:{spec.name}")
        with open(os.path.join(cwd, f"{spec.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
        timed += _require(gmalg(["validate", f"{spec.name}.json"], cwd)).wall
    if wl.maps_from:
        inv = _require(gmalg(["derivations", "--lie", "--arity", "3",
                              f"{wl.maps_from}.json", "-o", "derivations.json"], cwd))
        timed += inv.wall
        with open(os.path.join(cwd, "derivations.json"), encoding="utf-8") as fh:
            maps = json.load(fh)["details"]["basis_maps"]
        for path, mmap in zip(MAP_FILES, (maps[0], maps[-1])):
            with open(os.path.join(cwd, path), "w", encoding="utf-8") as fh:
                json.dump(mmap, fh)
    return timed


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def canonical_report(stdout: bytes) -> str:
    """The report with `timings` removed, serialised as gmalg serialises it."""
    rep = json.loads(stdout)
    rep.pop("timings", None)
    return json.dumps(rep, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _statuses(rep, prefix=""):
    return [[c["name"], c["status"]] for c in rep.get("checks", [])
            if c["name"].startswith(prefix)]


def invariants(rep: dict) -> dict:
    """Report fields that a change of basis leaves unchanged.

    Per-element verdicts of `verify` are left out: which basis map fails a
    check depends on the basis.
    """
    cmd, det = rep["command"], rep.get("details", {})
    if cmd == "verify":
        return {"space_dim": det["space_dim"],
                "theorem_applicable": det["theorem_applicable"],
                "uniqueness_probe": det["uniqueness_probe"],
                "hypotheses": _statuses(rep, "hypothesis-")}
    out = {"checks": _statuses(rep)}
    if cmd == "center" and "center_g" in det:
        out["dims"] = {k: det[k]["dim"] for k in
                       ("center_g", "center_a", "center_b", "a_part", "b_part")}
    elif cmd == "hypotheses":
        out["all_pass"] = det["all_pass"]
    elif cmd == "extremal":
        out["exists"] = det["exists"]
        out["dims"] = {k: det[k]["dim"] for k in
                       ("solution", "annihilator", "offdiag_annihilator")}
    elif cmd == "derivations":
        out["dim"] = det["dim"]
    return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(inv: Invocation, ref: dict, seed) -> str:
    """Empty string when the invocation is correct, else why it is not."""
    if inv.timed_out:
        return f"exceeded {INVOCATION_LIMIT_S:.0f} s"
    if "Traceback (most recent call last)" in inv.stderr:
        return "printed a traceback"
    if inv.code != ref["exit"]:
        return f"exit code {inv.code}, expected {ref['exit']}"
    try:
        text = canonical_report(inv.stdout)
        inv_fields = invariants(json.loads(text))
    except ValueError:
        return "no JSON report"
    except (KeyError, TypeError, AttributeError):
        return "report lacks an expected field"
    if inv_fields != ref["invariants"]:
        return "basis-invariant fields differ from the stock instance"
    if seed == DEFAULT_SEED and \
            hashlib.sha256(text.encode("utf-8")).hexdigest() != ref["sha256"]:
        return "report differs from the reference report"
    return ""


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    invocations: list
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(i.wall for i in self.invocations)

    @property
    def cpu(self) -> float:
        return sum(i.cpu for i in self.invocations)


def run_pass(wl: Workload, cwd: str, traced: bool, tag: str) -> Pass:
    if not traced:
        return Pass([gmalg(c.args, cwd) for c in wl.commands])
    invs, traces = [], []
    for i, cmd in enumerate(wl.commands):
        spans_path = os.path.join(cwd, f".spans-{tag}-{i}.json")
        invs.append(gmalg_traced(cmd.args, cwd, spans_path, f"{tag}-{i}"))
        try:
            with open(spans_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        except (OSError, ValueError):
            traces.append([])
    return Pass(invs, aggregate(traces))


LAYER_STATS = {
    "fileformat.load_context": ("self_s",),
    "fileformat.load_map": ("self_s",),
    "fileformat.dumps_canonical": ("self_s", "bytes"),
    "gma.validate_context": ("calls", "self_s"),
    "gma.assemble": ("self_s",),
    "algebra_core.validate_algebra": ("self_s",),
    "algebra_core.commutator_span": ("calls", "self_s"),
    "exact_linear.kernel_basis": ("calls", "self_s", "rows.sum", "rows.max",
                                  "cols.sum", "cols.max", "nnz.sum", "nnz.max",
                                  "kernel_dim.sum", "kernel_dim.max"),
    "exact_linear.rref": ("calls", "self_s"),
    "structure_analysis.center": ("calls", "self_s"),
    "structure_analysis.center_data": ("calls", "self_s"),
    "structure_analysis.pair_spaces": ("calls", "self_s"),
    "structure_analysis.check_hypotheses": ("calls", "self_s"),
    "structure_analysis.derivation_space": ("self_s",),
    "structure_analysis.lie_derivation_space": ("self_s",),
    "multilinear.n_lie_derivation_space": ("self_s", "unknowns", "dim"),
    "multilinear.is_n_lie_derivation": ("calls", "self_s", "tuples", "pass_ratio"),
    "multilinear.is_centrally_valued": ("self_s",),
    "decompose.decompose": ("calls", "self_s"),
    "decompose.build_extremal": ("calls", "self_s"),
    "decompose.extremal_exists": ("calls", "self_s"),
    "decompose.probe_seed_uniqueness": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "calls": "count", "bytes": "bytes", "pass_ratio": "ratio"}


def layer_values(agg: dict) -> dict:
    """Per-layer metric values of one traced pass."""
    out = {}
    for span, stats in LAYER_STATS.items():
        a = agg.get(span, {"calls": 0, "self_s": 0.0, "sum": {}, "max": {}})
        for stat in stats:
            if stat in ("calls", "self_s"):
                val = a[stat]
            elif stat == "pass_ratio":
                val = a["sum"].get("passed", 0) / a["calls"] if a["calls"] else 0.0
            elif "." in stat:
                key, how = stat.split(".")
                val = a[how].get(key, 0)
            else:
                val = a["sum"].get(stat, 0)
            out[f"{span}.{stat}"] = val
    return out


def layer_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "count")


def measure_import_s(cwd: str) -> float:
    """Median of (python -c 'import gmalg.cli') - (python -c 'pass')."""
    diffs = []
    for _ in range(IMPORT_REPS):
        bare = invoke([sys.executable, "-c", "pass"], cwd, "pass").wall
        full = invoke([sys.executable, "-c", "import gmalg.cli"], cwd, "import").wall
        diffs.append(full - bare)
    return statistics.median(diffs)


def report_elapsed(p: Pass) -> float:
    total = 0.0
    for inv in p.invocations:
        try:
            total += json.loads(inv.stdout)["timings"]["elapsed_s"]
        except (ValueError, KeyError, TypeError):
            pass
    return total


def calibrate(cwd: str) -> float:
    inv = invoke([sys.executable, CALIBRATE], cwd, "calibrate.py")
    if inv.code != 0 or inv.timed_out:
        raise SetupError(f"calibrate.py exited {inv.code}:\n{inv.stderr.strip()}")
    return inv.wall


def run_workload(name: str, seed, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    refs = load_reference()["workloads"][name]
    cwd = os.path.join(WORK, name)
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    run_start = time.perf_counter()

    _require(gmalg(["--help"], cwd))  # warm-up
    calibrations = []
    setups = []
    for _ in range(SETUP_REPS):
        calibrations.append(calibrate(cwd))
        setups.append(set_up(name, wl, seed, cwd))

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        calibrations.append(calibrate(cwd))
        plain.append(run_pass(wl, cwd, False, f"p{len(plain)}"))
        if trace:
            traced.append(run_pass(wl, cwd, True, f"t{len(traced)}"))
        per_round = statistics.median(p.wall for p in plain) + \
            (statistics.median(p.wall for p in traced) if trace else 0.0)
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed + per_round > seconds:
            break
        if time.perf_counter() - run_start + per_round > RUN_LIMIT_S:
            break

    failures = []
    attempted = 0
    for p in plain + traced:
        for cmd, inv in zip(wl.commands, p.invocations):
            attempted += 1
            why = check(inv, refs[cmd.label], seed)
            if why:
                failures.append(f"{cmd.label}: {why}")

    result = {"passes": len(plain), "attempted": attempted, "failures": failures,
              "traced_passes": len(traced)}
    if not trace:
        slowdown = statistics.median(calibrations) / CALIBRATION_REFERENCE_S
        raw = {"wall_s": statistics.median(p.wall for p in plain),
               "cpu_s": statistics.median(p.cpu for p in plain),
               "setup_s": statistics.median(setups)}
        result["raw"], result["slowdown"] = raw, slowdown
        result["metrics"] = {
            "wall_s": (raw["wall_s"] / slowdown, "s"),
            "cpu_s": (raw["cpu_s"] / slowdown, "s"),
            "peak_rss_mb": (max(i.rss_mb for p in plain for i in p.invocations), "MB"),
            "setup_s": (raw["setup_s"] / slowdown, "s"),
        }
        return result
    per_pass = [layer_values(p.layers) for p in traced]
    metrics = {key: (statistics.median(v[key] for v in per_pass), layer_unit(key))
               for key in per_pass[0]}
    metrics["cli.import_s"] = (measure_import_s(cwd), "s")
    metrics["cli.elapsed_s"] = (statistics.median(report_elapsed(p) for p in plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in plain), "s")
    result["metrics"] = metrics
    result["top_self"] = sorted(((v[0], k) for k, v in metrics.items()
                                 if k.endswith(".self_s")), reverse=True)[:3]
    if wl.predicate:
        result["claim"] = ("largest self time is multilinear.is_n_lie_derivation",
                           result["top_self"][0][1] == "multilinear.is_n_lie_derivation.self_s")
    else:
        result["claim"] = ("multilinear.is_n_lie_derivation is never called",
                           metrics["multilinear.is_n_lie_derivation.calls"][0] == 0)
    return result


def summarize(name: str, res: dict) -> None:
    """Human-readable lines; the last line of output stays the JSON result."""
    rate = len(res["failures"]) / res["attempted"]
    print(f"[{name}] {res['passes']} untraced / {res['traced_passes']} traced passes, "
          f"{res['attempted']} invocations, error_rate {rate:.4f}")
    for msg in res["failures"][:10]:
        print(f"[{name}]   FAILED {msg}")
    if not res["traced_passes"]:
        print(f"[{name}]   calibration: machine {res['slowdown']:.3f}x as slow as the "
              f"reference; times below are divided by that")
        for key, (val, unit) in res["metrics"].items():
            raw = res["raw"].get(key)
            print(f"[{name}]   {key} = {val:.6g} {unit}"
                  + (f" (raw {raw:.6g} {unit}" if raw is not None else "")
                  + (f", median of {res['passes']} passes)" if key in ("wall_s", "cpu_s")
                     else f", median of {SETUP_REPS} set-ups)" if key == "setup_s" else ""))
    else:
        top = ", ".join(f"{k} {v:.3f} s" for v, k in res["top_self"])
        print(f"[{name}]   largest self times: {top}")
        claim, held = res["claim"]
        print(f"[{name}]   workload claim ({claim}): {'holds' if held else 'DOES NOT HOLD'}")


def result_line(results: dict) -> str:
    failed = sum(len(r["failures"]) for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    prefix = len(results) > 1
    metrics = {(f"{name}.{key}" if prefix else key): {"value": val, "unit": unit}
               for name, r in results.items() for key, (val, unit) in r["metrics"].items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gmalg", "cli.py")):
        print(f"perfbench: no gmalg sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summarize(name, results[name])
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
