"""Morita contexts and their assembly into generalized matrix algebras.

A context packs two unital algebras A and B, bimodules M and N, and the two
pairings M x N -> A and N x M -> B. Assembly produces the block algebra on
the ordered basis (A-block, M-block, N-block, B-block) together with the
diagonal idempotents e and f.

The context axioms say exactly that this 2 x 2 block algebra is unital and
associative (Sands, Radicals and Morita contexts, J. Algebra 24, 1973): each
is associativity on one of the 16 composable block triples (A A A, A A M,
A M N, ..., B B B) or a unit law on one block. `validate_context` checks
them as data, a law table walked by `algebra_core.block_violations` over the
map from each composable block pair to its product table.

Every stock context is a structural matrix algebra R_rho = span{e_ij :
(i, j) in rho} with a Peirce split, built by `structural_context`.
"""

from __future__ import annotations

from .algebra_core import (BilinearTable, Element, StructureAlgebra,
                           ValidationReport, Violation, block_violations,
                           stack_rows, validate_algebra)
from .budget import guard_tuples
from .errors import DimensionMismatchError, FieldMismatchError, InvalidContextError
from .exact_linear import FieldSpec, kernel_basis
from .records import record

_MAX_VIOLATIONS = 32


@record
class MoritaContext:
    """The sextuple (A, B, M, N, pairings) as explicit basis constants.

    Tables: act_am is A x M -> M, act_mb is M x B -> M, act_bn is B x N -> N,
    act_na is N x A -> N, pair_mn is M x N -> A, pair_nm is N x M -> B.
    Construction checks shapes only; validate_context checks the axioms.
    """

    a: StructureAlgebra
    b: StructureAlgebra
    m_dim: int
    n_dim: int
    act_am: BilinearTable
    act_mb: BilinearTable
    act_bn: BilinearTable
    act_na: BilinearTable
    pair_mn: BilinearTable
    pair_nm: BilinearTable

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise FieldMismatchError("A and B over different fields")
        da, db, dm, dn = self.a.dim, self.b.dim, self.m_dim, self.n_dim
        shapes = {
            "act_am": (self.act_am, (da, dm, dm)),
            "act_mb": (self.act_mb, (dm, db, dm)),
            "act_bn": (self.act_bn, (db, dn, dn)),
            "act_na": (self.act_na, (dn, da, dn)),
            "pair_mn": (self.pair_mn, (dm, dn, da)),
            "pair_nm": (self.pair_nm, (dn, dm, db)),
        }
        for name, (tab, want) in shapes.items():
            got = (tab.left_dim, tab.right_dim, tab.out_dim)
            if got != want:
                raise DimensionMismatchError(f"{name} shape {got} != {want}")

    @property
    def field(self) -> FieldSpec:
        return self.a.field

    @property
    def dims(self) -> tuple:
        return (self.a.dim, self.m_dim, self.n_dim, self.b.dim)

    @property
    def products(self) -> dict:
        """Each composable block pair "XY": (its product table, block of XY)."""
        return {"AA": (self.a.mul, "A"), "AM": (self.act_am, "M"),
                "MN": (self.pair_mn, "A"), "MB": (self.act_mb, "M"),
                "NA": (self.act_na, "N"), "NM": (self.pair_nm, "B"),
                "BN": (self.act_bn, "N"), "BB": (self.b.mul, "B")}


def guard_context_tables(da: int, dm: int, dn: int, db: int) -> None:
    """Refuse block dimensions whose eight tables have more cells than the
    tuple budget allows, before any table is built."""
    guard_tuples("context tables", da * da + db * db + (da + db) * (dm + dn)
                 + 2 * dm * dn)


# The axioms on the 14 composable block triples through M or N and the unit
# laws of the four actions; A A A, B B B and the units of A and B are
# `validate_algebra`'s. Entries are in report order, and laws that share a
# loop are checked at the same step, so the cap falls where it always has.
_CONTEXT_LAWS = (
    ("", (("M", (("unit-acts-m", "ak", "1_A . m != m"),
                 ("m-acts-unit", "kb", "m . 1_B != m"))),)),
    ("", (("N", (("unit-acts-n", "bk", "1_B . n != n"),
                 ("n-acts-unit", "ka", "n . 1_A != n"))),)),
    ("AA", (("M", (("m-left-assoc", "ijk", ""),)),
            ("N", (("n-right-assoc", "kij", ""),)))),
    ("BB", (("M", (("m-right-assoc", "kij", ""),)),
            ("N", (("n-left-assoc", "ijk", ""),)))),
    ("AM", (("B", (("m-bimodule", "ijk", ""),)),)),
    ("BN", (("A", (("n-bimodule", "ijk", ""),)),)),
    ("MN", (("A", (("pair-mn-left-linear", "kij", ""),
                   ("pair-mn-right-linear", "ijk", ""))),
            ("B", (("pair-mn-balance", "ikj", ""),)),
            ("B", (("pair-nm-left-linear", "kji", ""),
                   ("pair-nm-right-linear", "jik", ""))),
            ("A", (("pair-nm-balance", "jki", ""),)))),
    ("MN", (("M", (("diagram-mnm", "ijk", "(m n) m' != m (n m')"),)),)),
    ("NM", (("N", (("diagram-nmn", "ijk", "(n m) n' != n (m n')"),)),)),
)


def validate_context(ctx: MoritaContext) -> ValidationReport:
    """Check every Morita-context axiom on all basis tuples.

    The axioms say that the 2 x 2 block algebra (A M / N B) is unital and
    associative. A and B are checked first as algebras (laws prefixed A-
    and B-), and M must be nonzero. Then the law table `_CONTEXT_LAWS`
    checks, on basis elements, the unit laws of the actions on M and N and
    associativity on each of the 14 composable block triples through M or
    N: one law per triple, named for the module or pairing axiom it is
    (m-left-assoc is A A M, pair-mn-balance is M B N, diagram-mnm is
    M N M). Last, M must be faithful on both sides. Collection stops at 32
    violations, tested after each step of a loop, so a step that breaks two
    laws can leave 33.
    """
    f = ctx.field
    bad: list[Violation] = []

    def record(law, indices, detail=""):
        bad.append(Violation(law, tuple(indices), detail))

    def full() -> bool:
        return len(bad) >= _MAX_VIOLATIONS

    for name, alg in (("A", ctx.a), ("B", ctx.b)):
        rep = validate_algebra(alg)
        for v in rep.violations:
            record(f"{name}-{v.law}", v.indices, v.detail)
            if full():
                return ValidationReport(tuple(bad))

    if ctx.m_dim < 1:
        record("m-nonzero", (), "M = 0 is rejected: M must be a faithful bimodule")
        return ValidationReport(tuple(bad))

    bad += block_violations(f, dict(zip("AMNB", ctx.dims)), ctx.products,
                            {"A": ctx.a.unit, "B": ctx.b.unit},
                            _CONTEXT_LAWS, _MAX_VIOLATIONS - len(bad))
    if full():
        return ValidationReport(tuple(bad))

    # faithfulness of M on both sides
    da, dm, _, db = ctx.dims
    em = [f.unit(dm, i) for i in range(dm)]
    left_rows = stack_rows(ctx.act_am.operator_rows(f, right=m) for m in em)
    for vec in kernel_basis(f, da, left_rows):
        record("m-left-faithful", (), f"a = {tuple(map(f.of, vec))} kills M")
        break
    right_rows = stack_rows(ctx.act_mb.operator_rows(f, left=m) for m in em)
    for vec in kernel_basis(f, db, right_rows):
        record("m-right-faithful", (), f"b = {tuple(map(f.of, vec))} kills M")
        break

    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@record
class GMAlgebra:
    """Assembled block algebra with its context and diagonal idempotents."""

    context: MoritaContext
    algebra: StructureAlgebra
    e: Element
    f: Element

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def offsets(self) -> tuple:
        da, dm, dn, _ = self.context.dims
        return (0, da, da + dm, da + dm + dn)

    def embed_m(self, coords) -> Element:
        return self._embed(coords, self.offsets[1], self.context.m_dim)

    def embed_n(self, coords) -> Element:
        return self._embed(coords, self.offsets[2], self.context.n_dim)

    def _embed(self, coords, offset, block_dim) -> Element:
        f = self.field
        coords = [f.of(x) for x in coords]
        if len(coords) != block_dim:
            raise DimensionMismatchError("block coordinate length mismatch")
        full = f.vec_zero(self.dim)
        full[offset:offset + block_dim] = coords
        return self.algebra.element(full)


def assemble(ctx: MoritaContext, validate: bool = True) -> GMAlgebra:
    """Build the block algebra on the ordered basis A, M, N, B.

    Products follow the matrix-like rule: the A component of a product is
    a a' + pair_mn(m, n'), the M component a m' + m b', the N component
    n a' + b n', the B component pair_nm(n, m') + b b'. With `validate`,
    a context that fails `validate_context` is refused; one that passes
    assembles to a unital associative algebra, which is not checked again.
    """
    if validate:
        report = validate_context(ctx)
        if not report.ok:
            raise InvalidContextError(report)
    f = ctx.field
    da, dm, dn, db = ctx.dims
    dim = da + dm + dn + db
    offset = {"A": 0, "M": da, "N": da + dm, "B": da + dm + dn}
    quads = [(offset[pair[0]] + i, offset[pair[1]] + j, offset[out] + k, c)
             for pair, (table, out) in ctx.products.items()
             for i, j, k, c in table.quadruples()]

    e_coords = list(ctx.a.unit) + f.vec_zero(dim - da)
    f_coords = f.vec_zero(dim - db) + list(ctx.b.unit)
    algebra = StructureAlgebra.build(f, dim, quads, f.vec_add(e_coords, f_coords))
    return GMAlgebra(ctx, algebra,
                     algebra.element(e_coords), algebra.element(f_coords))


# ---------------------------------------------------------------------------
# structural matrix algebras and the stock kinds
# ---------------------------------------------------------------------------


def structural_context(field: FieldSpec, relation, split: int,
                       zero_pairings: bool = False) -> MoritaContext:
    """The structural matrix algebra R_rho = span{e_ij : (i, j) in rho},
    split by the idempotent e = sum of e_ii over the points i < split.

    `relation` is a quasi-order rho on integer points: reflexive, so that
    A and B have units, and transitive, so that (i, l) is in rho whenever
    (i, j) and (j, l) are. Block "AMNB"[2 (i >= split) + (j >= split)]
    holds the pairs (i, j) of rho, in lexicographic order, so A = e R e,
    M = e R (1 - e), N = (1 - e) R e and B = (1 - e) R (1 - e). Every table
    comes from e_ij e_jl = e_il; the right factor's pairs are grouped by
    their first point, so only nonzero cells are visited. The units of A
    and B are their diagonal e_ii. With `zero_pairings` both pairings are
    zero.
    """
    blocks = {x: [] for x in "AMNB"}
    ends = {}  # (block, i): the points l with (i, l) in that block
    for i, j in sorted(set(relation)):
        x = "AMNB"[2 * (i >= split) + (j >= split)]
        blocks[x].append((i, j))
        ends.setdefault((x, i), []).append(j)
    index = {pair: k for pairs in blocks.values() for k, pair in enumerate(pairs)}

    def table(x, y):
        out = "AMNB"[2 * (x in "NB") + (y in "MB")]
        quads = [] if zero_pairings and x + y in ("MN", "NM") else [
            (index[i, j], index[j, l], index[i, l], 1)
            for i, j in blocks[x] for l in ends.get((y, j), ())]
        return BilinearTable.from_quadruples(field, len(blocks[x]), len(blocks[y]),
                                             len(blocks[out]), quads)

    def corner(x):
        unit = tuple(field.one if i == j else field.zero for i, j in blocks[x])
        return StructureAlgebra(field, len(unit), table(x, x), unit)

    return MoritaContext(
        a=corner("A"), b=corner("B"), m_dim=len(blocks["M"]), n_dim=len(blocks["N"]),
        act_am=table("A", "M"), act_mb=table("M", "B"), act_bn=table("B", "N"),
        act_na=table("N", "A"), pair_mn=table("M", "N"), pair_nm=table("N", "M"))


BUILTIN_KINDS = ("full_matrix", "upper_triangular", "lower_triangular", "zero_pairing")


def _builtin_shape(kind: str, r: int, s: int, t: int) -> tuple:
    """(s, t, full, zero_pairings) of a stock kind.

    Its relation is on s + t points, split at s: the full relation, or the
    block upper triangular one of the pairs (i, j) with i < s or j >= s.
    full_matrix(r) is full with s, t = 1, r - 1; lower_triangular(s, t) is
    upper_triangular(t, s); zero_pairing is full with both pairings zero.
    Refuses an unknown kind or a size out of range.
    """
    kind = kind.replace("-", "_")
    if kind == "full_matrix":
        if r < 2:
            raise ValueError("full_matrix needs r >= 2")
        return 1, r - 1, True, False
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin kind {kind!r} (choose from {BUILTIN_KINDS})")
    if s < 1 or t < 1:
        raise ValueError("block sizes s and t must be >= 1")
    if kind == "lower_triangular":
        s, t = t, s
    return s, t, not kind.endswith("triangular"), kind == "zero_pairing"


def builtin_dims(kind: str, *, r: int = 0, s: int = 0, t: int = 0) -> tuple:
    """Block dimensions (A, M, N, B) of `generate_builtin(kind, ...)`.

    Refuses the same kinds and sizes, and builds nothing.
    """
    s, t, full, _ = _builtin_shape(kind, r, s, t)
    return s * s, s * t, t * s if full else 0, t * t


def generate_builtin(kind: str, field: FieldSpec, *, r: int = 0,
                     s: int = 0, t: int = 0) -> MoritaContext:
    """Stock Morita contexts: `structural_context` on the relation of a kind.

    full_matrix(r): the full relation on r points split at 1, so A =
    scalars, M = row vectors, N = column vectors and B = M_{r-1}; the
    assembled algebra is M_r.
    upper_triangular(s, t): the pairs (i, j) of s + t points with i < s or
    j >= s, split at s: A = M_s, M = s x t matrices, N = 0, B = M_t.
    lower_triangular(s, t): the block lower triangular algebra with A = M_s,
    N = t x s, B = M_t, realized in the canonical orientation (the nonzero
    bimodule occupies the M slot), so it equals upper_triangular(t, s).
    zero_pairing(s, t): the full relation on s + t points split at s, so A =
    M_s, B = M_t, M = s x t, N = t x s, with both pairings zero.
    """
    s, t, full, zero = _builtin_shape(kind, r, s, t)
    points = range(s + t)
    return structural_context(field, [(i, j) for i in points for j in points
                                      if full or i < s or j >= s], s, zero)
