"""Morita contexts and their assembly into generalized matrix algebras.

A context packs two unital algebras A and B, bimodules M and N, and the two
pairings M x N -> A and N x M -> B. Assembly produces the block algebra on
the ordered basis (A-block, M-block, N-block, B-block) together with the
diagonal idempotents e and f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra_core import (BilinearTable, Element, StructureAlgebra,
                           ValidationReport, Violation, matrix_algebra,
                           matrix_product_table, stack_rows, validate_algebra)
from .errors import DimensionMismatchError, FieldMismatchError, InvalidContextError
from .exact_linear import FieldSpec, Subspace, kernel_basis

_MAX_VIOLATIONS = 32


@dataclass(frozen=True)
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


def validate_context(ctx: MoritaContext) -> ValidationReport:
    """Check every Morita-context axiom on all basis tuples."""
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

    da, db, dm, dn = ctx.a.dim, ctx.b.dim, ctx.m_dim, ctx.n_dim
    ea, eb, em, en = ([f.unit(k, i) for i in range(k)] for k in (da, db, dm, dn))
    am = lambda x, y: ctx.act_am.apply(f, x, y)
    mb = lambda x, y: ctx.act_mb.apply(f, x, y)
    bn = lambda x, y: ctx.act_bn.apply(f, x, y)
    na = lambda x, y: ctx.act_na.apply(f, x, y)
    mn = lambda x, y: ctx.pair_mn.apply(f, x, y)
    nm = lambda x, y: ctx.pair_nm.apply(f, x, y)

    unit_a = list(ctx.a.unit)
    unit_b = list(ctx.b.unit)

    # unit actions
    for j in range(dm):
        if am(unit_a, em[j]) != em[j]:
            record("unit-acts-m", (j,), "1_A . m != m")
        if mb(em[j], unit_b) != em[j]:
            record("m-acts-unit", (j,), "m . 1_B != m")
        if full():
            return ValidationReport(tuple(bad))
    for j in range(dn):
        if bn(unit_b, en[j]) != en[j]:
            record("unit-acts-n", (j,), "1_B . n != n")
        if na(en[j], unit_a) != en[j]:
            record("n-acts-unit", (j,), "n . 1_A != n")
        if full():
            return ValidationReport(tuple(bad))

    # module associativity
    for i in range(da):
        for j in range(da):
            aa = ctx.a.mul_coords(ea[i], ea[j])
            for k in range(dm):
                if am(aa, em[k]) != am(ea[i], am(ea[j], em[k])):
                    record("m-left-assoc", (i, j, k))
                    if full():
                        return ValidationReport(tuple(bad))
            for k in range(dn):
                if na(na(en[k], ea[i]), ea[j]) != na(en[k], aa):
                    record("n-right-assoc", (k, i, j))
                    if full():
                        return ValidationReport(tuple(bad))
    for i in range(db):
        for j in range(db):
            bb = ctx.b.mul_coords(eb[i], eb[j])
            for k in range(dm):
                if mb(mb(em[k], eb[i]), eb[j]) != mb(em[k], bb):
                    record("m-right-assoc", (k, i, j))
                    if full():
                        return ValidationReport(tuple(bad))
            for k in range(dn):
                if bn(bb, en[k]) != bn(eb[i], bn(eb[j], en[k])):
                    record("n-left-assoc", (i, j, k))
                    if full():
                        return ValidationReport(tuple(bad))

    # two-sided compatibility
    for i in range(da):
        for k in range(dm):
            aim = am(ea[i], em[k])
            for j in range(db):
                if mb(aim, eb[j]) != am(ea[i], mb(em[k], eb[j])):
                    record("m-bimodule", (i, k, j))
                    if full():
                        return ValidationReport(tuple(bad))
    for i in range(db):
        for k in range(dn):
            bin_ = bn(eb[i], en[k])
            for j in range(da):
                if na(bin_, ea[j]) != bn(eb[i], na(en[k], ea[j])):
                    record("n-bimodule", (i, k, j))
                    if full():
                        return ValidationReport(tuple(bad))

    # pairing linearity and balance
    for i in range(dm):
        for j in range(dn):
            base_mn = mn(em[i], en[j])
            for k in range(da):
                if mn(am(ea[k], em[i]), en[j]) != ctx.a.mul_coords(ea[k], base_mn):
                    record("pair-mn-left-linear", (k, i, j))
                if mn(em[i], na(en[j], ea[k])) != ctx.a.mul_coords(base_mn, ea[k]):
                    record("pair-mn-right-linear", (i, j, k))
                if full():
                    return ValidationReport(tuple(bad))
            for k in range(db):
                if mn(mb(em[i], eb[k]), en[j]) != mn(em[i], bn(eb[k], en[j])):
                    record("pair-mn-balance", (i, k, j))
                if full():
                    return ValidationReport(tuple(bad))
            base_nm = nm(en[j], em[i])
            for k in range(db):
                if nm(bn(eb[k], en[j]), em[i]) != ctx.b.mul_coords(eb[k], base_nm):
                    record("pair-nm-left-linear", (k, j, i))
                if nm(en[j], mb(em[i], eb[k])) != ctx.b.mul_coords(base_nm, eb[k]):
                    record("pair-nm-right-linear", (j, i, k))
                if full():
                    return ValidationReport(tuple(bad))
            for k in range(da):
                if nm(na(en[j], ea[k]), em[i]) != nm(en[j], am(ea[k], em[i])):
                    record("pair-nm-balance", (j, k, i))
                if full():
                    return ValidationReport(tuple(bad))

    # associativity diagrams
    for i in range(dm):
        for j in range(dn):
            for k in range(dm):
                if am(mn(em[i], en[j]), em[k]) != mb(em[i], nm(en[j], em[k])):
                    record("diagram-mnm", (i, j, k),
                           "(m n) m' != m (n m')")
                if full():
                    return ValidationReport(tuple(bad))
    for i in range(dn):
        for j in range(dm):
            for k in range(dn):
                if bn(nm(en[i], em[j]), en[k]) != na(en[i], mn(em[j], en[k])):
                    record("diagram-nmn", (i, j, k),
                           "(n m) n' != n (m n')")
                if full():
                    return ValidationReport(tuple(bad))

    # faithfulness of M on both sides
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


@dataclass(frozen=True)
class PierceParts:
    """Block components (a, m, n, b) of a G element, in block coordinates."""

    a: tuple
    m: tuple
    n: tuple
    b: tuple


@dataclass(frozen=True)
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

    def embed_a(self, coords) -> Element:
        return self._embed(coords, 0, self.context.a.dim)

    def embed_m(self, coords) -> Element:
        return self._embed(coords, self.offsets[1], self.context.m_dim)

    def embed_n(self, coords) -> Element:
        return self._embed(coords, self.offsets[2], self.context.n_dim)

    def embed_b(self, coords) -> Element:
        return self._embed(coords, self.offsets[3], self.context.b.dim)

    def _embed(self, coords, offset, block_dim) -> Element:
        f = self.field
        coords = [f.of(x) for x in coords]
        if len(coords) != block_dim:
            raise DimensionMismatchError("block coordinate length mismatch")
        full = f.vec_zero(self.dim)
        full[offset:offset + block_dim] = coords
        return self.algebra.element(full)

    def assemble_element(self, a, m, n, b) -> Element:
        return (self.embed_a(a) + self.embed_m(m) + self.embed_n(n)
                + self.embed_b(b))


def pierce_project(g: GMAlgebra, x: Element) -> PierceParts:
    """Split x into exe, exf, fxe, fxf, reading each in block coordinates."""
    alg = g.algebra
    ex = alg.mul_coords(g.e.coords, x.coords)
    xf__ = alg.mul_coords(x.coords, g.f.coords)
    exe = alg.mul_coords(ex, g.e.coords)
    exf = alg.mul_coords(ex, g.f.coords)
    fxe = alg.mul_coords(alg.mul_coords(g.f.coords, x.coords), g.e.coords)
    fxf = alg.mul_coords(g.f.coords, xf__)
    o = g.offsets
    da, dm, dn, db = g.context.dims
    return PierceParts(
        a=tuple(exe[0:da]),
        m=tuple(exf[o[1]:o[1] + dm]),
        n=tuple(fxe[o[2]:o[2] + dn]),
        b=tuple(fxf[o[3]:o[3] + db]),
    )


def assemble(ctx: MoritaContext, validate: bool = True) -> GMAlgebra:
    """Build the block algebra on the ordered basis A, M, N, B.

    Products follow the matrix-like rule: the A component of a product is
    a a' + pair_mn(m, n'), the M component a m' + m b', the N component
    n a' + b n', the B component pair_nm(n, m') + b b'.
    """
    if validate:
        report = validate_context(ctx)
        if not report.ok:
            raise InvalidContextError(report)
    f = ctx.field
    da, dm, dn, db = ctx.dims
    dim = da + dm + dn + db
    off_a, off_m, off_n, off_b = 0, da, da + dm, da + dm + dn
    quads = []

    def emit(table: BilinearTable, li, rj, left_off, right_off, out_off):
        for k, c in table.at(li, rj):
            quads.append((left_off + li, right_off + rj, out_off + k, c))

    for i in range(da):
        for j in range(da):
            emit(ctx.a.mul, i, j, off_a, off_a, off_a)
        for j in range(dm):
            emit(ctx.act_am, i, j, off_a, off_m, off_m)
    for i in range(dm):
        for j in range(dn):
            emit(ctx.pair_mn, i, j, off_m, off_n, off_a)
        for j in range(db):
            emit(ctx.act_mb, i, j, off_m, off_b, off_m)
    for i in range(dn):
        for j in range(da):
            emit(ctx.act_na, i, j, off_n, off_a, off_n)
        for j in range(dm):
            emit(ctx.pair_nm, i, j, off_n, off_m, off_b)
    for i in range(db):
        for j in range(dn):
            emit(ctx.act_bn, i, j, off_b, off_n, off_n)
        for j in range(db):
            emit(ctx.b.mul, i, j, off_b, off_b, off_b)

    unit = f.vec_zero(dim)
    for k, c in enumerate(ctx.a.unit):
        unit[off_a + k] = c
    for k, c in enumerate(ctx.b.unit):
        unit[off_b + k] = c
    algebra = StructureAlgebra.build(f, dim, quads, unit)
    if validate:
        rep = validate_algebra(algebra)
        if not rep.ok:
            raise InvalidContextError(ValidationReport(tuple(
                Violation("assembled-" + v.law, v.indices, v.detail)
                for v in rep.violations)))

    e_coords = f.vec_zero(dim)
    for k, c in enumerate(ctx.a.unit):
        e_coords[off_a + k] = c
    f_coords = f.vec_zero(dim)
    for k, c in enumerate(ctx.b.unit):
        f_coords[off_b + k] = c
    g = GMAlgebra(ctx, algebra,
                  algebra.element(e_coords), algebra.element(f_coords))
    return g


def pairing_image_mn(g: GMAlgebra) -> Subspace:
    """Span of all pairing values m_i n_j inside A."""
    ctx, f = g.context, g.field
    vecs = []
    for i in range(ctx.m_dim):
        for j in range(ctx.n_dim):
            cell = ctx.pair_mn.at(i, j)
            if cell:
                v = f.vec_zero(ctx.a.dim)
                for k, c in cell:
                    v[k] = c
                vecs.append(v)
    return Subspace.span(f, ctx.a.dim, vecs)


def pairing_image_nm(g: GMAlgebra) -> Subspace:
    """Span of all pairing values n_j m_i inside B."""
    ctx, f = g.context, g.field
    vecs = []
    for j in range(ctx.n_dim):
        for i in range(ctx.m_dim):
            cell = ctx.pair_nm.at(j, i)
            if cell:
                v = f.vec_zero(ctx.b.dim)
                for k, c in cell:
                    v[k] = c
                vecs.append(v)
    return Subspace.span(f, ctx.b.dim, vecs)


# ---------------------------------------------------------------------------
# builtin generators
# ---------------------------------------------------------------------------

BUILTIN_KINDS = ("full_matrix", "upper_triangular", "lower_triangular", "zero_pairing")


def generate_builtin(kind: str, field: FieldSpec, *, r: int = 0,
                     s: int = 0, t: int = 0) -> MoritaContext:
    """Stock Morita contexts assembled from square and rectangular matrix blocks.

    full_matrix(r): A = scalars, B = M_{r-1}, M = row vectors, N = column
    vectors, pairings by matrix product; the assembled algebra is M_r.
    upper_triangular(s, t): A = M_s, M = s x t matrices, B = M_t, N = 0.
    lower_triangular(s, t): the block lower triangular algebra with A = M_s,
    N = t x s, B = M_t, realized in the canonical orientation (the nonzero
    bimodule occupies the M slot), so it equals upper_triangular(t, s).
    zero_pairing(s, t): A = M_s, B = M_t, M = s x t, N = t x s, both
    pairings identically zero.
    """
    kind = kind.replace("-", "_")
    if kind == "full_matrix":
        if r < 2:
            raise ValueError("full_matrix needs r >= 2")
        return _rect_context(field, 1, r - 1, zero_pairings=False)
    if kind == "upper_triangular":
        _need(s, t)
        return _triangular_context(field, s, t)
    if kind == "lower_triangular":
        _need(s, t)
        return _triangular_context(field, t, s)
    if kind == "zero_pairing":
        _need(s, t)
        return _rect_context(field, s, t, zero_pairings=True)
    raise ValueError(f"unknown builtin kind {kind!r} (choose from {BUILTIN_KINDS})")


def _need(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError("block sizes s and t must be >= 1")


def _rect_context(field: FieldSpec, s: int, t: int, zero_pairings: bool) -> MoritaContext:
    a = matrix_algebra(field, s)
    b = matrix_algebra(field, t)
    dm = s * t
    dn = t * s
    ctx = MoritaContext(
        a=a, b=b, m_dim=dm, n_dim=dn,
        act_am=matrix_product_table(field, s, s, t),
        act_mb=matrix_product_table(field, s, t, t),
        act_bn=matrix_product_table(field, t, t, s),
        act_na=matrix_product_table(field, t, s, s),
        pair_mn=(BilinearTable.zero(dm, dn, s * s) if zero_pairings
                 else matrix_product_table(field, s, t, s)),
        pair_nm=(BilinearTable.zero(dn, dm, t * t) if zero_pairings
                 else matrix_product_table(field, t, s, t)),
    )
    return ctx


def _triangular_context(field: FieldSpec, s: int, t: int) -> MoritaContext:
    a = matrix_algebra(field, s)
    b = matrix_algebra(field, t)
    dm = s * t
    ctx = MoritaContext(
        a=a, b=b, m_dim=dm, n_dim=0,
        act_am=matrix_product_table(field, s, s, t),
        act_mb=matrix_product_table(field, s, t, t),
        act_bn=BilinearTable.zero(t * t, 0, 0),
        act_na=BilinearTable.zero(0, s * s, 0),
        pair_mn=BilinearTable.zero(dm, 0, s * s),
        pair_nm=BilinearTable.zero(0, dm, t * t),
    )
    return ctx
