"""Command-line behavior: formats, determinism, exit codes."""

import gc
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gmalg as G
import gmalg.cli as cli
from gmalg.cli import main
from gmalg.fileformat import dumps_canonical, map_to_dict

from test_decompose import t2_worked_example
from test_exact_linear import PSEUDOPRIME_12


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, _, err = run(capsys, "gen", *argv, "-o", str(path))
    assert code == 0, err
    return str(path)


def test_cli_import_loads_none_of_dataclasses_inspect_typing_tempfile_random():
    """Every invocation pays for what `import gmalg.cli` loads.

    `-S` skips the site module, so no site hook preloads any of them.
    `tempfile` is loaded only by a command that writes to -o, and `random`
    only by the torsion probes.
    """
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import gmalg.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'typing', 'tempfile',\n"
              "              'random'} & sys.modules.keys()))\n"
              "sys.exit(gmalg.cli.main(['--help']))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script,
                           str(Path(G.__file__).parents[1])],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded, _, help_text = proc.stdout.partition("\n")
    assert loaded == "[]"
    assert help_text.startswith("usage:")


def test_gen_and_validate_full_matrix(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m3.json",
               "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    code, out, _ = run(capsys, "validate", spec)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0] == {"name": "context-valid", "status": "pass"}
    assert rep["instance"]["dims"]["total"] == 9


def test_round_trip_is_byte_identical(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m3.json",
               "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    raw = Path(spec).read_text()
    from gmalg.fileformat import context_to_dict, load_context
    ctx = load_context(spec)
    assert dumps_canonical(context_to_dict(ctx)) == raw


def test_reports_deterministic_outside_timings(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1",
               "--field", "q")
    _, out1, _ = run(capsys, "hypotheses", spec, "--theorem", "4.1")
    _, out2, _ = run(capsys, "hypotheses", spec, "--theorem", "4.1")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_hypotheses_exit_codes(tmp_path, capsys):
    m3 = gen(tmp_path, capsys, "m3.json",
             "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    code, out, _ = run(capsys, "hypotheses", m3, "--theorem", "4.1")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    t2 = gen(tmp_path, capsys, "t2.json",
             "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, _ = run(capsys, "hypotheses", t2, "--theorem", "4.1")
    assert code == 1
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["hypothesis-4.1-(2)"] == "fail"


def test_center_report(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m3.json",
               "--kind", "full-matrix", "--r", "3", "--field", "q")
    code, out, _ = run(capsys, "center", spec)
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["center_g"]["dim"] == 1
    assert rep["details"]["a_to_b"]["entries"] == [["1"]]


def test_derivations_arities(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    code, out, _ = run(capsys, "derivations", spec)
    assert code == 0
    assert json.loads(out)["details"]["dim"] == 3
    code, out, _ = run(capsys, "derivations", spec, "--lie")
    assert json.loads(out)["details"]["dim"] == 4
    code, out, _ = run(capsys, "derivations", spec, "--lie", "--arity", "2")
    assert code == 0
    assert json.loads(out)["details"]["dim"] == 2
    code, _, err = run(capsys, "derivations", spec, "--arity", "2")
    assert code == 2
    assert "--lie" in err


@pytest.mark.parametrize("arity", ["2", "3", str(10 ** 30)])
def test_derivations_without_lie_is_refused_before_the_spec_is_read(
        tmp_path, capsys, arity):
    message = "gmalg: only Lie-type spaces are computed for arity >= 2; pass --lie\n"
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    for path in (spec, str(tmp_path / "missing.json")):
        code, out, err = run(capsys, "derivations", "--arity", arity, path)
        assert (code, out, err) == (2, "", message), path


def test_extremal_report(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, _ = run(capsys, "extremal", spec)
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["exists"] is True
    assert rep["checks"][0]["status"] == "pass"


def test_decompose_worked_example(tmp_path, capsys):
    g, kappa, psi = t2_worked_example()
    phi = kappa.add(psi)
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    map_path = tmp_path / "phi.json"
    map_path.write_text(dumps_canonical(map_to_dict(phi)))
    code, out, _ = run(capsys, "decompose", spec, str(map_path), "--arity", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["seed"]["coords"] == ["0", "1", "0"]
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_decompose_arity_mismatch(tmp_path, capsys):
    g, kappa, _ = t2_worked_example()
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(map_to_dict(kappa)))
    code, _, err = run(capsys, "decompose", spec, str(map_path), "--arity", "2")
    assert code == 2
    assert "arity" in err


def test_verify_exit_codes(tmp_path, capsys):
    m3 = gen(tmp_path, capsys, "m3.json",
             "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    code, out, _ = run(capsys, "verify", m3, "--arity", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["theorem_applicable"] is True
    assert rep["details"]["space_dim"] == 1

    t2 = gen(tmp_path, capsys, "t2.json",
             "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, _ = run(capsys, "verify", t2, "--arity", "3")
    assert code == 1  # hypothesis records fail even though nothing is asserted
    rep = json.loads(out)
    assert rep["details"]["theorem_applicable"] is False
    assert rep["details"]["space_dim"] > 0


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["gen", "center"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command, target):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "missing" / "x.json" if target == "missing-directory" else out_dir
    argv = (("gen", "--kind", "full-matrix", "--r", "2", "--field", "q")
            if command == "gen" else ("center", spec))
    code, stdout, err = run(capsys, *argv, "-o", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("gmalg: ")
    assert "Traceback" not in err
    assert list(tmp_path.rglob(".gmalg-*.tmp")) == []


@pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
def test_output_through_a_symlink_writes_its_target(tmp_path, capsys, existing):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    target = tmp_path / "reports" / "center.json"
    target.parent.mkdir()
    if existing:
        target.write_text("old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, stdout, err = run(capsys, "center", spec, "-o", str(link))
    assert (code, stdout, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["command"] == "center"
    assert list(tmp_path.rglob(".gmalg-*.tmp")) == []


def test_output_to_a_fifo_is_written_not_replaced(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon, so that a writer that never opens the FIFO cannot hang the run
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code, stdout, err = run(capsys, "center", spec, "-o", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, stdout, err) == (0, "", "")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert len(received) == 1
    assert json.loads(received[0])["command"] == "center"
    assert list(tmp_path.rglob(".gmalg-*.tmp")) == []


def gmalg_process(*argv, cwd, stdout=subprocess.PIPE):
    """`gmalg argv` in a child process under umask 027."""
    script = ("import os, sys\n"
              "os.umask(0o027)\n"
              "from gmalg.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(G.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=30)


def test_output_file_gets_the_umask_mode_and_a_replaced_file_keeps_its_own(tmp_path):
    argv = ("gen", "--kind", "full-matrix", "--r", "2", "--field", "q", "-o", "m2.json")
    assert gmalg_process(*argv, cwd=tmp_path).returncode == 0
    spec = tmp_path / "m2.json"
    assert stat.S_IMODE(os.stat(spec).st_mode) == 0o640
    spec.chmod(0o604)
    assert gmalg_process(*argv, cwd=tmp_path).returncode == 0
    assert stat.S_IMODE(os.stat(spec).st_mode) == 0o604
    assert json.loads(spec.read_text())["format"] == "gma-spec/1"
    assert list(tmp_path.glob(".gmalg-*.tmp")) == []


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_stdout_appended_to_a_file_keeps_what_it_held(tmp_path):
    argv = ("gen", "--kind", "full-matrix", "--r", "2", "--field", "q", "-o", "m2.json")
    assert gmalg_process(*argv, cwd=tmp_path).returncode == 0
    log = tmp_path / "log"
    log.write_text("earlier line\n")
    log.chmod(0o644)
    with open(log, "a") as fh:
        proc = gmalg_process("center", "m2.json", "-o", "/dev/stdout",
                             cwd=tmp_path, stdout=fh)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, _, report = log.read_text().partition("\n")
    assert before == "earlier line"
    assert json.loads(report)["command"] == "center"
    assert stat.S_IMODE(os.stat(log).st_mode) == 0o644


def test_console_main_freezes_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 0
    assert calls == ["freeze", "main"]


def test_main_leaves_the_freeze_count_unchanged(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    code, _, _ = run(capsys, "verify", "--arity", "3", spec)
    assert code == 1
    assert gc.get_freeze_count() == frozen


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_invalid_context_load_refused(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    data = json.loads(Path(spec).read_text())
    data["pair_mn"] = data["pair_mn"] + [[0, 0, 0, "1"]]
    broken = tmp_path / "broken.json"
    broken.write_text(dumps_canonical(data))
    # analysis commands refuse to load an invalid context
    code, _, err = run(capsys, "center", str(broken))
    assert code == 2
    # but validate reports the violations with exit 1
    code, out, _ = run(capsys, "validate", str(broken))
    assert code == 1
    rep = json.loads(out)
    assert rep["checks"][0]["status"] == "fail"
    assert len(rep["checks"]) > 1


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    spec = gen(tmp_path, capsys, "m3.json",
               "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    monkeypatch.setenv("GMALG_BUDGET", "10")
    code, _, err = run(capsys, "verify", spec, "--arity", "3")
    assert code == 3
    assert "budget" in err.lower()
    assert "context tables" in err  # 45 table cells: stops at spec load


def test_budget_exit_code_inside_verify(tmp_path, capsys, monkeypatch):
    spec = gen(tmp_path, capsys, "m3.json",
               "--kind", "full-matrix", "--r", "3", "--field", "gf:7")
    monkeypatch.setenv("GMALG_BUDGET", "100")  # the spec loads, verify does not fit
    code, _, err = run(capsys, "verify", spec, "--arity", "3")
    assert code == 3
    assert "slot-restricted space" in err


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
def test_budget_that_is_not_a_positive_integer_is_an_input_error(tmp_path, capsys, value):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    env = dict(os.environ, PYTHONPATH=str(Path(G.__file__).parents[1]),
               GMALG_BUDGET=value)
    proc = subprocess.run([sys.executable, "-m", "gmalg.cli", "center", spec],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"gmalg: GMALG_BUDGET must be a positive integer, "
                           f"got '{value}'\n")


def test_spec_over_a_modulus_past_the_primality_bound_is_refused(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "gf:7")
    with open(spec) as fh:
        data = json.load(fh)
    data["field"] = f"gf:{PSEUDOPRIME_12}"
    broken = tmp_path / "broken.json"
    broken.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert out == ""
    assert str(PSEUDOPRIME_12) in err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, "validate", str(deep))
    assert (code, out) == (2, "")
    assert "nested too deeply" in err
    code, out, err = run(capsys, "decompose", spec, str(deep))
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


@pytest.mark.parametrize("field", [5, None, True, 1.5, ["q"], {}],
                         ids=["int", "null", "bool", "float", "list", "object"])
@pytest.mark.parametrize("target", ["spec", "map"])
def test_non_string_field_is_an_input_error(tmp_path, capsys, target, field):
    g, kappa, _ = t2_worked_example()
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(map_to_dict(kappa)))
    path = Path(spec) if target == "spec" else map_path
    data = json.loads(path.read_text())
    data["field"] = field
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "decompose", spec, str(map_path), "--arity", "3")
    assert (code, out) == (2, "")
    assert err.startswith("gmalg: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["gf:abc", "gf:", "gf:0x65", "gf:1_0_1",
                                   "gf: 101", "gf:+101", "gf:\u0661\u0660\u0661"])
@pytest.mark.parametrize("where", ["gen", "spec"])
def test_malformed_field_descriptor_is_named(tmp_path, capsys, where, field):
    """Only 'gf:' and decimal digits name a prime field; int() would take
    '1_0_1' as 101 and refuse 'abc' with its own message."""
    out_path = tmp_path / "x.json"
    if where == "gen":
        code, out, err = run(capsys, "gen", "--kind", "full-matrix", "--r", "2",
                             "--field", field, "-o", str(out_path))
        want = f"gmalg: unknown field descriptor {field!r} (use 'q' or 'gf:P')"
    else:
        spec = Path(gen(tmp_path, capsys, "m2.json",
                        "--kind", "full-matrix", "--r", "2", "--field", "gf:101"))
        data = json.loads(spec.read_text())
        data["field"] = field
        spec.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(spec), "-o", str(out_path))
        want = f"field: unknown field descriptor {field!r} (use 'q' or 'gf:P')"
    assert (code, out) == (2, "")
    assert want in err
    assert not out_path.exists()


def test_gen_requires_dimension_flags(capsys):
    code, _, err = run(capsys, "gen", "--kind", "full-matrix", "--field", "q")
    assert code == 2
    code, _, err = run(capsys, "gen", "--kind", "zero-pairing", "--field", "q")
    assert code == 2


def test_gen_field_guards(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--kind", "full-matrix", "--r", "3",
                       "--field", "gf:2", "-o", str(tmp_path / "x.json"))
    assert code == 2
    code, _, err = run(capsys, "gen", "--kind", "full-matrix", "--r", "3",
                       "--field", " GF:9 ", "-o", str(tmp_path / "x.json"))
    assert (code, err) == (2, "gmalg: 9 is not prime\n")
    # a strong pseudoprime to every Miller-Rabin base used, refused by size
    code, _, err = run(capsys, "gen", "--kind", "full-matrix", "--r", "3",
                       "--field", f"gf:{PSEUDOPRIME_12}", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert str(PSEUDOPRIME_12) in err
    code, _, err = run(capsys, "gen", "--kind", "full-matrix", "--r", "1",
                       "--field", "q", "-o", str(tmp_path / "x.json"))
    assert code == 2


NON_INTEGERS = ["null", "float", "integral-float", "bool", "string"]


def non_integer(kind, value):
    """A JSON non-integer that int() would have turned back into value."""
    return {"null": None, "float": value + 0.9, "integral-float": float(value),
            "bool": bool(value), "string": str(value)}[kind]


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize("where", ["quadruple", "blocks"])
def test_spec_indices_must_be_json_integers(tmp_path, capsys, bad, where):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    with open(spec) as fh:
        data = json.load(fh)
    if where == "quadruple":
        quad = data["pair_mn"][0]
        quad[0] = non_integer(bad, quad[0])
        named = "pair_mn"
    else:
        blocks = data["blocks"]
        blocks["m_dim"] = non_integer(bad, blocks["m_dim"])
        named = "blocks"
    broken = tmp_path / "broken.json"
    broken.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("field,bad", [
    ("q", "1e30000000"),  # Fraction() alone would not return within seconds
    ("q", True), ("gf:7", False), ("q", "1.5"), ("q", " 2"), ("gf:7", "1/2"),
])
def test_coefficients_must_be_integers_or_scalar_strings(tmp_path, capsys,
                                                         field, bad):
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", field)
    with open(spec) as fh:
        data = json.load(fh)
    data["a_mul"][0][3] = bad
    broken = tmp_path / "broken.json"
    broken.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert out == ""
    assert "bad coefficient" in err


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize("field", ["entry", "partner", "arity"])
def test_map_indices_must_be_json_integers(tmp_path, capsys, bad, field):
    _, kappa, _ = t2_worked_example()
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    data = map_to_dict(kappa)
    entry = data["entries"][0]
    if field == "entry":
        entry[0] = non_integer(bad, entry[0])
    elif field == "partner":
        entry[3] = non_integer(bad, entry[3])
    else:
        data["arity"] = non_integer(bad, data["arity"])
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "decompose", spec, str(map_path))
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("arity,dim", [(0, 3), (3, 0)])
def test_map_header_must_be_positive(tmp_path, capsys, arity, dim):
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    data = {"format": "gma-map/1", "field": "q", "arity": arity, "dim": dim,
            "entries": []}
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "decompose", spec, str(map_path))
    assert code == 2
    assert out == ""
    assert "positive" in err


def run_in_one_gigabyte(*argv):
    """The CLI in a subprocess whose address space is capped at 1 GB."""
    env = dict(os.environ, PYTHONPATH=str(Path(G.__file__).parents[1]))
    env.pop("GMALG_BUDGET", None)

    def one_gigabyte():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run([sys.executable, "-m", "gmalg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=8,
                          preexec_fn=one_gigabyte)


@pytest.mark.parametrize("arity", [100_000_000, 10_000_000_000])
def test_huge_map_arity_exits_on_budget(tmp_path, capsys, arity):
    """Refused from the header, before any dim ** arity is formed."""
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    data = {"format": "gma-map/1", "field": "q", "arity": arity, "dim": 4,
            "entries": []}
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(data))
    proc = run_in_one_gigabyte("decompose", spec, str(map_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "budget exceeded: map basis tuples" in proc.stderr
    # the same map at arity 3 loads and decomposes
    data["arity"] = 3
    map_path.write_text(dumps_canonical(data))
    code, out, err = run(capsys, "decompose", spec, str(map_path))
    assert code == 0, err


@pytest.mark.parametrize("dim", [10 ** 8, 10 ** 30])
def test_map_dim_other_than_the_instance_is_refused_from_the_header(
        tmp_path, capsys, dim):
    """Refused before any entry is read, so no vector of length dim is built."""
    spec = gen(tmp_path, capsys, "m2.json",
               "--kind", "full-matrix", "--r", "2", "--field", "q")
    data = {"format": "gma-map/1", "field": "q", "arity": 3, "dim": dim,
            "entries": [[0, 0, 0, 1, "1"], [1, 2, 3, 0, "2"]]}
    map_path = tmp_path / "k.json"
    map_path.write_text(dumps_canonical(data))
    proc = run_in_one_gigabyte("decompose", spec, str(map_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"map dimension {dim} does not match instance 4" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--arity", "1"),
    # however large, an arity below the lower end is an input error
    ("verify", "--arity", str(-10 ** 30)),
    ("derivations", "--lie", "--arity", "0"),
    ("derivations", "--lie", "--arity", str(-10 ** 10)),
    ("derivations", "--arity", "-1"),
])
def test_arity_out_of_range_is_input_error(tmp_path, capsys, argv):
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, err = run(capsys, argv[0], spec, *argv[1:])
    assert code == 2
    assert out == ""
    assert "--arity" in err
    # checked before the spec is read
    code, _, err = run(capsys, argv[0], str(tmp_path / "missing.json"), *argv[1:])
    assert code == 2
    assert "--arity" in err


def test_verify_arity_five_runs_within_the_default_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GMALG_BUDGET", raising=False)
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, err = run(capsys, "verify", spec, "--arity", "5")
    assert code == 1, err
    rep = json.loads(out)
    assert rep["options"]["arity"] == 5
    assert rep["details"]["space_dim"] == 64


@pytest.mark.parametrize("arity", [10 ** 10, 10 ** 30])
def test_huge_space_arity_exits_on_budget(tmp_path, capsys, arity):
    """Refused before any power of the dimension is formed."""
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    proc = run_in_one_gigabyte("derivations", spec, "--lie", "--arity", str(arity))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "budget exceeded: space materialization" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--kind", "upper-triangular", "--s", "100000", "--t", "1"),
    ("--kind", "full-matrix", "--r", "100"),
])
def test_gen_of_oversized_tables_exits_on_budget(tmp_path, argv):
    """The cell count a spec is refused by on load, checked before any
    table is built."""
    out = tmp_path / "big.json"
    proc = run_in_one_gigabyte("gen", *argv, "--field", "q", "-o", str(out))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "budget exceeded: context tables" in proc.stderr
    assert not out.exists()


def test_derivations_arity_one_and_four_stay_valid(tmp_path, capsys):
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    code, out, _ = run(capsys, "derivations", spec, "--lie", "--arity", "1")
    assert code == 0
    code, out, _ = run(capsys, "derivations", spec, "--lie", "--arity", "4")
    assert code == 0
    assert json.loads(out)["details"]["dim"] > 0


def test_large_stock_context_loads_at_default_budget(tmp_path, capsys, monkeypatch):
    """The load guard counts table cells, so total dimension 48 still validates."""
    monkeypatch.delenv("GMALG_BUDGET", raising=False)
    spec = gen(tmp_path, capsys, "ut44.json",
               "--kind", "upper-triangular", "--s", "4", "--t", "4", "--field", "q")
    code, out, _ = run(capsys, "validate", spec)
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"]["dims"]["total"] == 48
    assert rep["checks"] == [{"name": "context-valid", "status": "pass"}]


def test_oversized_declared_blocks_exit_on_budget(tmp_path, capsys):
    """A huge declared block size stops at load, before any table is built.

    At 10**3000 the requirement has 6001 digits, more than Python converts
    to a string, so the budget message must not print it in decimal.
    """
    spec = gen(tmp_path, capsys, "t2.json",
               "--kind", "upper-triangular", "--s", "1", "--t", "1", "--field", "q")
    with open(spec) as fh:
        data = json.load(fh)
    env = dict(os.environ, PYTHONPATH=str(Path(G.__file__).parents[1]))
    env.pop("GMALG_BUDGET", None)
    for a_dim in (1000000, 10 ** 3000):
        data["blocks"]["a_dim"] = a_dim
        big = tmp_path / "big.json"
        big.write_text(dumps_canonical(data))
        proc = subprocess.run([sys.executable, "-m", "gmalg.cli", "validate", str(big)],
                              capture_output=True, text=True, env=env, timeout=8)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "budget" in proc.stderr
