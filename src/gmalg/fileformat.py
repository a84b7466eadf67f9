"""Canonical JSON interchange: spec files, map files and reports.

Rational coefficients travel as "num/den" strings, prime-field residues as
plain ints, and every serializer sorts keys and entries so that a
generate / load / re-serialize round trip is byte identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import sys

from .algebra_core import BilinearTable, StructureAlgebra
from .budget import guard_power
from .errors import GmalgError, SpecFileError
from .exact_linear import FieldSpec, Subspace
from .gma import MoritaContext, guard_context_tables, validate_context
from .multilinear import MultilinearMap

SPEC_FORMAT = "gma-spec/1"
MAP_FORMAT = "gma-map/1"
REPORT_FORMAT = "gma-report/1"


def encode_scalar(field: FieldSpec, value):
    if field.p is None:
        return str(value)
    return int(value)


# The scalar strings `encode_scalar` writes: "n" or "n/d" over q, "n" over
# GF(p). Exponents, decimals and spaces are refused: Fraction("1e30000000")
# would build a 30-million-digit int.
_Q_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_GF_SCALAR = re.compile(r"[+-]?[0-9]+")


def decode_scalar(field: FieldSpec, raw):
    """A JSON integer or a scalar string; bool, float and null are refused."""
    form = _Q_SCALAR if field.p is None else _GF_SCALAR
    if type(raw) is not int and not (type(raw) is str and form.fullmatch(raw)):
        raise SpecFileError(f"bad coefficient {raw!r} for field {field.name}")
    try:
        return field.of(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad coefficient {raw!r} for field {field.name}: {exc}")


def decode_index(raw, where: str) -> int:
    """A JSON integer; bool, float, null and strings are refused, not cast."""
    if type(raw) is not int:
        raise SpecFileError(f"{where}: expected an integer, got {raw!r}")
    return raw


def encode_vector(field: FieldSpec, vec) -> list:
    return [encode_scalar(field, x) for x in vec]


def table_to_quads(field: FieldSpec, table: BilinearTable) -> list:
    return [[i, j, k, encode_scalar(field, c)]
            for (i, j, k, c) in sorted(table.quadruples(), key=lambda q: q[:3])]


def quads_to_table(field: FieldSpec, left: int, right: int, out: int,
                   raw, where: str) -> BilinearTable:
    quads = []
    if not isinstance(raw, list):
        raise SpecFileError(f"{where}: expected a list of quadruples")
    for item in raw:
        if not (isinstance(item, list) and len(item) == 4):
            raise SpecFileError(f"{where}: malformed quadruple {item!r}")
        i, j, k = (decode_index(x, where) for x in item[:3])
        quads.append((i, j, k, decode_scalar(field, item[3])))
    try:
        return BilinearTable.from_quadruples(field, left, right, out, quads)
    except GmalgError as exc:
        raise SpecFileError(f"{where}: {exc}")


def context_to_dict(ctx: MoritaContext) -> dict:
    f = ctx.field
    return {
        "format": SPEC_FORMAT,
        "field": f.name,
        "basis_order": "A,M,N,B",
        "blocks": {"a_dim": ctx.a.dim, "m_dim": ctx.m_dim,
                   "n_dim": ctx.n_dim, "b_dim": ctx.b.dim},
        "a_unit": encode_vector(f, ctx.a.unit),
        "b_unit": encode_vector(f, ctx.b.unit),
        "a_mul": table_to_quads(f, ctx.a.mul),
        "b_mul": table_to_quads(f, ctx.b.mul),
        "act_a_m": table_to_quads(f, ctx.act_am),
        "act_m_b": table_to_quads(f, ctx.act_mb),
        "act_b_n": table_to_quads(f, ctx.act_bn),
        "act_n_a": table_to_quads(f, ctx.act_na),
        "pair_mn": table_to_quads(f, ctx.pair_mn),
        "pair_nm": table_to_quads(f, ctx.pair_nm),
    }


def context_from_dict(data: dict) -> MoritaContext:
    if not isinstance(data, dict) or data.get("format") != SPEC_FORMAT:
        raise SpecFileError(f"not a {SPEC_FORMAT} document")
    try:
        field = FieldSpec.from_name(data["field"])
    except (KeyError, ValueError) as exc:
        raise SpecFileError(f"field: {exc}")
    try:
        blocks = data["blocks"]
        da, dm, dn, db = (decode_index(blocks[key], f"blocks.{key}")
                          for key in ("a_dim", "m_dim", "n_dim", "b_dim"))
    except (KeyError, TypeError):
        raise SpecFileError("blocks: need integer a_dim, m_dim, n_dim, b_dim")
    if min(da, db) < 1 or min(dm, dn) < 0:
        raise SpecFileError("blocks: A and B must be nonzero")
    guard_context_tables(da, dm, dn, db)

    def unit(key, dim):
        raw = data.get(key)
        if not isinstance(raw, list) or len(raw) != dim:
            raise SpecFileError(f"{key}: expected {dim} coefficients")
        return tuple(decode_scalar(field, x) for x in raw)

    def table(key, left, right, out):
        return quads_to_table(field, left, right, out, data.get(key, []), key)

    a = StructureAlgebra(field, da, table("a_mul", da, da, da), unit("a_unit", da))
    b = StructureAlgebra(field, db, table("b_mul", db, db, db), unit("b_unit", db))
    try:
        return MoritaContext(
            a=a, b=b, m_dim=dm, n_dim=dn,
            act_am=table("act_a_m", da, dm, dm),
            act_mb=table("act_m_b", dm, db, dm),
            act_bn=table("act_b_n", db, dn, dn),
            act_na=table("act_n_a", dn, da, dn),
            pair_mn=table("pair_mn", dm, dn, da),
            pair_nm=table("pair_nm", dn, dm, db),
        )
    except GmalgError as exc:
        raise SpecFileError(str(exc))


def dumps_canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_atomic(path: str, text: str) -> None:
    """Write `text` to `path`.

    A path that names the file open as stdout (`/dev/stdout` under a shell
    redirection, say) is written through stdout, so an append redirection
    keeps what the file held. A missing target or any other regular file is
    replaced by a temporary file written beside it; the path is resolved
    first, so a symlink keeps pointing at the file it names. A replaced
    file keeps its mode, and a new one gets 0o666 less the umask. Anything
    else that exists (a device, a FIFO) is written to directly, never
    replaced. A path that cannot be written raises `SpecFileError`, and no
    temporary file is left behind.
    """
    tmp = None
    try:
        st = os.stat(path) if os.path.exists(path) else None
        if st is not None and _is_stdout(st):
            sys.stdout.write(text)
            return
        if st is not None and not stat.S_ISREG(st.st_mode):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        # imported here, so that only a command writing to -o loads it
        import tempfile

        if st is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            mode = stat.S_IMODE(st.st_mode)
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".gmalg-",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _is_stdout(st: os.stat_result) -> bool:
    try:
        return os.path.samestat(st, os.fstat(1))
    except OSError:  # stdout is closed
        return False


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise SpecFileError(f"{path}: JSON nested too deeply")


def load_context(path: str) -> MoritaContext:
    """Parse a spec file; refuse a context that fails validation."""
    ctx = context_from_dict(load_json(path))
    report = validate_context(ctx)
    if not report.ok:
        raise SpecFileError(f"{path}: context invalid: {report.summary()}")
    return ctx


def context_fingerprint(ctx: MoritaContext) -> dict:
    text = dumps_canonical(context_to_dict(ctx))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    da, dm, dn, db = ctx.dims
    return {
        "field": ctx.field.name,
        "dims": {"a": da, "m": dm, "n": dn, "b": db, "total": da + dm + dn + db},
        "hash": f"sha256:{digest}",
    }


# ---------------------------------------------------------------------------
# map files
# ---------------------------------------------------------------------------


def map_to_dict(mmap: MultilinearMap) -> dict:
    f = mmap.field
    entries = []
    for key in sorted(mmap.entries):
        for j, c in enumerate(mmap.value_at(key)):
            if c:
                entries.append(list(key) + [j, encode_scalar(f, c)])
    return {
        "format": MAP_FORMAT,
        "field": f.name,
        "arity": mmap.arity,
        "dim": mmap.dim,
        "entries": entries,
    }


def map_from_dict(data: dict, field: FieldSpec, dim: int) -> MultilinearMap:
    """A map for an instance over `field` of dimension `dim`.

    The header is checked against the instance before any entry is read,
    so a map declaring another dimension allocates nothing.
    """
    if not isinstance(data, dict) or data.get("format") != MAP_FORMAT:
        raise SpecFileError(f"not a {MAP_FORMAT} document")
    try:
        file_field = FieldSpec.from_name(data["field"])
        arity = decode_index(data["arity"], "map header: arity")
        map_dim = decode_index(data["dim"], "map header: dim")
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"map header: {exc}")
    if arity < 1 or map_dim < 1:
        raise SpecFileError(f"map header: arity {arity} and dim {map_dim} "
                            "must be positive")
    if map_dim != dim:
        raise SpecFileError(
            f"map dimension {map_dim} does not match instance {dim}")
    # A map is used on its dim ** arity basis tuples; refuse a huge arity
    # here, before any guard forms the power itself.
    guard_power("map basis tuples", dim, arity)
    if field != file_field:
        raise SpecFileError(
            f"map field {file_field.name} does not match instance {field.name}")
    f = file_field
    acc: dict[tuple, list] = {}
    raw_entries = data.get("entries", [])
    if not isinstance(raw_entries, list):
        raise SpecFileError("entries: expected a list")
    for item in raw_entries:
        if not (isinstance(item, list) and len(item) == arity + 2):
            raise SpecFileError(f"entries: malformed entry {item!r}")
        key = tuple(decode_index(x, "entries") for x in item[:arity])
        j = decode_index(item[arity], "entries")
        c = decode_scalar(f, item[arity + 1])
        if any(not 0 <= i < dim for i in key) or not 0 <= j < dim:
            raise SpecFileError(f"entries: index out of range in {item!r}")
        vec = acc.setdefault(key, list(f.vec_zero(dim)))
        vec[j] = f.add(vec[j], c)
    return MultilinearMap.from_entries(f, arity, dim, acc)


def load_map(path: str, field: FieldSpec, dim: int) -> MultilinearMap:
    return map_from_dict(load_json(path), field, dim)


# ---------------------------------------------------------------------------
# report payload helpers
# ---------------------------------------------------------------------------


def subspace_to_dict(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [encode_vector(s.field, row) for row in s.basis],
    }


def matrix_to_dict(field: FieldSpec, rows) -> dict:
    """A matrix given as a sequence of equal-length rows."""
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "entries": [encode_vector(field, row) for row in rows],
    }
