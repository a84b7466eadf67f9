"""CLI reports pinned byte for byte, apart from `timings`.

Each case runs `gmalg.cli.main` in process from a directory holding its spec
files, named relatively (the spec path is part of every report). The report
with `timings` removed is serialised as gmalg serialises it, and its SHA-256
and the exit code are compared with `report_digests.json`. The cases cover
what the benchmark's reference digests do not: `validate` on a context whose
M is not faithful and on stock `full_matrix(3)` broken so that several
axioms fail (up to one past the cap of 32 violations), the analysis
commands on small stock instances over q and gf:7, and `center` on a context
whose center has dimension 2, as built and in a seeded basis where its
linking matrix is not the identity. `hypotheses --theorem 4.3` and
`extremal` also run on zero_pairing(2,1) in a seeded basis, which pins the
order of their witnesses off the stock basis. `verify --arity 3` and
`extremal` run on T_3, built by `structural_context`: the one instance here
where a ruleset passes and an extremal part is not zero. `hypotheses --theorem 4.3`
runs on the direct sum of full_matrix(2) and zero_pairing(1,1) in two
seeded bases: there the annihilator of M in N has dimension 1 of 2, so over
q the sign of its witness pins the order of the annihilator rows (over GF(p)
a kernel vector carries a 1 at its free column, whatever the order).
`decompose` runs on stock `ut(1,1)` and `full_matrix(2)` with a map file
written next to the spec: the first basis map of `n_lie_derivation_space(g,
3)`, with and without `--arity 3`, and the same map without its last entry,
which fails the law.

    PYTHONPATH=src python tests/test_report_digests.py

rewrites `report_digests.json` from the current code.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import gmalg as G
from gmalg.cli import main
from gmalg.fileformat import (context_from_dict, context_to_dict, decode_scalar,
                              dumps_canonical, encode_scalar, load_context,
                              map_to_dict)
from gmalg.gma import structural_context

from helpers import change_of_basis, diagonal_context, m2_plus_zp11, matrix_algebra

DIGESTS = Path(__file__).with_name("report_digests.json")
FIELDS = ("q", "gf:7")
STOCK = {
    "ut11": ("upper-triangular", "--s", "1", "--t", "1"),
    "zp11": ("zero-pairing", "--s", "1", "--t", "1"),
    "m2": ("full-matrix", "--r", "2"),
}
COMMANDS = {
    "center": ("center",),
    "hypotheses-4.1": ("hypotheses", "--theorem", "4.1"),
    "hypotheses-4.3": ("hypotheses", "--theorem", "4.3"),
    "extremal": ("extremal",),
    "derivations": ("derivations",),
    "derivations-lie": ("derivations", "--lie"),
    "verify-3": ("verify", "--arity", "3"),
}

# Broken copies of full_matrix(3): tables whose constants are negated, and
# (table, i, j, k) cells bumped by 1. Over q they fail 26 checks of 5 laws,
# 32 of 8 (the cap), 33 of 9 (one past it) and 14 of 7.
BROKEN = {
    "m3-neg-mb": (("act_m_b",), ()),
    "m3-neg-am-mb": (("act_a_m", "act_m_b"), ()),
    "m3-neg-mb-bump-b330": (("act_m_b",), (("b_mul", 3, 3, 0),)),
    "m3-bump-b032": ((), (("b_mul", 0, 3, 2),)),
}

# `helpers.diagonal_context` and its `change_of_basis` seeds (None: as built).
DIAGONAL = {"diag2": None, "diag2-s5": 5}

# Structural matrix algebras: the relation and the split point of
# `structural_context`. T_3, the upper triangular 3 x 3 matrices split after
# its first two points, has an extremal part that is not zero.
STRUCTURAL = {"t3": ([(i, j) for i in range(3) for j in range(i, 3)], 2)}
STRUCTURAL_COMMANDS = ("verify-3", "extremal")

# Stock contexts in a `change_of_basis` seed: (kind, block sizes, seed).
SEEDED = {"zp21-s3": ("zero_pairing", {"s": 2, "t": 1}, 3)}
SEEDED_COMMANDS = ("hypotheses-4.3", "extremal")

# `helpers.m2_plus_zp11` in a `change_of_basis` seed, under
# `hypotheses --theorem 4.3`.
DIRECT_SUM = {"m2+zp11-s0": 0, "m2+zp11-s1": 1}

# Stock instances whose first n = 3 basis map is written as map files "lie3"
# and "lie3-cut" (without its last entry); decompose case -> (map, options).
MAPPED = ("ut11", "m2")
DECOMPOSE = {
    "decompose": ("lie3", ()),
    "decompose-3": ("lie3", ("--arity", "3")),
    "decompose-cut": ("lie3-cut", ()),
}


def spec_name(instance: str, field: str) -> str:
    return f"{instance}-{field.replace(':', '')}.json"


def cases() -> dict:
    """Case id -> CLI argv, with spec paths relative to the spec directory."""
    out = {}
    for field in FIELDS:
        spec = spec_name("nonfaithful", field)
        out[f"nonfaithful-{field}-validate"] = ("validate", spec)
        for instance in BROKEN:
            spec = spec_name(instance, field)
            out[f"{instance}-{field}-validate"] = ("validate", spec)
        for instance in DIAGONAL:
            out[f"{instance}-{field}-center"] = ("center", spec_name(instance, field))
        for instance in SEEDED:
            spec = spec_name(instance, field)
            for name in SEEDED_COMMANDS:
                argv = COMMANDS[name]
                out[f"{instance}-{field}-{name}"] = (argv[0], spec, *argv[1:])
        for instance in STRUCTURAL:
            spec = spec_name(instance, field)
            for name in STRUCTURAL_COMMANDS:
                argv = COMMANDS[name]
                out[f"{instance}-{field}-{name}"] = (argv[0], spec, *argv[1:])
        for instance in DIRECT_SUM:
            argv = COMMANDS["hypotheses-4.3"]
            out[f"{instance}-{field}-hypotheses-4.3"] = (
                argv[0], spec_name(instance, field), *argv[1:])
        for instance in STOCK:
            spec = spec_name(instance, field)
            for name, argv in COMMANDS.items():
                out[f"{instance}-{field}-{name}"] = (argv[0], spec, *argv[1:])
        for instance in MAPPED:
            spec = spec_name(instance, field)
            for name, (mapped, options) in DECOMPOSE.items():
                out[f"{instance}-{field}-{name}"] = (
                    "decompose", spec, spec_name(f"{instance}-{mapped}", field),
                    *options)
    return out


def nonfaithful_context(field):
    """A = k^2 acts on M = k through its first coordinate only."""
    a = G.StructureAlgebra.build(
        field, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
        [1, 0])
    return G.MoritaContext(
        a=a, b=matrix_algebra(field, 1), m_dim=1, n_dim=0,
        act_am=G.BilinearTable.from_quadruples(field, 2, 1, 1, [(0, 0, 0, 1)]),
        act_mb=G.BilinearTable.from_quadruples(field, 1, 1, 1, [(0, 0, 0, 1)]),
        act_bn=G.BilinearTable.zero(1, 0, 0),
        act_na=G.BilinearTable.zero(0, 2, 0),
        pair_mn=G.BilinearTable.zero(1, 0, 2),
        pair_nm=G.BilinearTable.zero(0, 1, 1),
    )


def broken_spec(field, negated, bumped) -> dict:
    """The spec of full_matrix(3) with tables negated and cells bumped."""
    data = context_to_dict(G.generate_builtin("full_matrix", field, r=3))
    for key in negated:
        data[key] = [[i, j, k, encode_scalar(field, field.neg(decode_scalar(field, c)))]
                     for i, j, k, c in data[key]]
    for key, *cell in bumped:
        data[key] = data[key] + [[*cell, 1]]
    return context_to_dict(context_from_dict(data))


def write_specs(directory: Path) -> None:
    for field in FIELDS:
        ctx = nonfaithful_context(G.FieldSpec.from_name(field))
        (directory / spec_name("nonfaithful", field)).write_text(
            dumps_canonical(context_to_dict(ctx)))
        for instance, edits in BROKEN.items():
            data = broken_spec(G.FieldSpec.from_name(field), *edits)
            (directory / spec_name(instance, field)).write_text(dumps_canonical(data))
        for instance, seed in DIAGONAL.items():
            ctx = diagonal_context(G.FieldSpec.from_name(field))
            if seed is not None:
                ctx = change_of_basis(ctx, seed)
            (directory / spec_name(instance, field)).write_text(
                dumps_canonical(context_to_dict(ctx)))
        for instance, (kind, sizes, seed) in SEEDED.items():
            ctx = G.generate_builtin(kind, G.FieldSpec.from_name(field), **sizes)
            (directory / spec_name(instance, field)).write_text(
                dumps_canonical(context_to_dict(change_of_basis(ctx, seed))))
        for instance, (relation, split) in STRUCTURAL.items():
            ctx = structural_context(G.FieldSpec.from_name(field), relation, split)
            (directory / spec_name(instance, field)).write_text(
                dumps_canonical(context_to_dict(ctx)))
        for instance, seed in DIRECT_SUM.items():
            ctx = m2_plus_zp11(G.FieldSpec.from_name(field))
            (directory / spec_name(instance, field)).write_text(
                dumps_canonical(context_to_dict(change_of_basis(ctx, seed))))
        for instance, argv in STOCK.items():
            path = directory / spec_name(instance, field)
            code = main(["gen", "--kind", *argv, "--field", field,
                         "-o", str(path)])
            assert code == 0
        for instance in MAPPED:
            g = G.assemble(load_context(str(directory / spec_name(instance, field))))
            data = map_to_dict(G.n_lie_derivation_space(g, 3)[0])
            (directory / spec_name(f"{instance}-lie3", field)).write_text(
                dumps_canonical(data))
            data["entries"] = data["entries"][:-1]
            (directory / spec_name(f"{instance}-lie3-cut", field)).write_text(
                dumps_canonical(data))


def report_digest(argv) -> dict:
    """Exit code and SHA-256 of the report without `timings` (None if none)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    digest = None
    if buf.getvalue():
        rep = json.loads(buf.getvalue())
        rep.pop("timings")
        text = json.dumps(rep, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("digest-specs")
    write_specs(directory)
    return directory


def test_pinned_cases_are_exactly_the_generated_ones():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_report_digest(case, spec_dir, monkeypatch):
    monkeypatch.chdir(spec_dir)
    want = json.loads(DIGESTS.read_text())[case]
    assert report_digest(cases()[case]) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_specs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            got = {case: report_digest(argv) for case, argv in cases().items()}
        finally:
            os.chdir(here)
    DIGESTS.write_text(json.dumps(got, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(got)} digests to {DIGESTS}", file=sys.stderr)
