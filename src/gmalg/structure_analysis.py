"""Centers, derivation spaces, bimodule-pair spaces and hypothesis checks.

Every question is reduced to an exact kernel or span computation; answers
come back as canonical Subspace values or as three-valued CheckStatus
records carrying witnesses.

Constraint rows come from one view, `BilinearTable.operator_rows`: fix one
argument of a structure table to a coordinate vector and it returns, per
output basis element, the sparse row {free index: coefficient} of the
linear map in the other argument. The center is the kernel of the rows of
x -> [x, b_j] over all j; an annihilator is the kernel of the pairing rows
with a module basis vector fixed; and `leibniz_rows` pairs one product
cell b_u.b_v with the rows of x -> x.b_v and x -> b_u.x.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .algebra_core import (Element, StructureAlgebra, is_commutative, span_cells,
                           stack_rows)
from .errors import CenterStructureError
from .exact_linear import Subspace, kernel_basis
from .gma import GMAlgebra, MoritaContext
from .records import record

_PROBE_SEED = 0x5EED_CA_FE
_PROBES = 64
_ENUM_LIMIT = 10 ** 6


def core_algebra(g: GMAlgebra | StructureAlgebra) -> StructureAlgebra:
    return g.algebra if isinstance(g, GMAlgebra) else g


@lru_cache(maxsize=None)
def center(alg: StructureAlgebra) -> Subspace:
    """Kernel of x -> ([x, b_j])_j stacked over all basis elements."""
    d, f = alg.dim, alg.field
    rows = stack_rows(alg.bracket_table.operator_rows(f, right=f.unit(d, j))
                      for j in range(d))
    return Subspace.span(f, d, kernel_basis(f, d, rows))


@lru_cache(maxsize=None)
def derivation_space(alg: StructureAlgebra) -> Subspace:
    """Solutions D of D(b_i b_j) = D(b_i) b_j + b_i D(b_j), flattened d x d.

    Unknown D[t*d+s] is the coefficient of b_t in D(b_s).
    """
    f, dd = alg.field, alg.dim ** 2
    return Subspace.span(f, dd, kernel_basis(f, dd, leibniz_rows(alg, 1, lie=False)))


@lru_cache(maxsize=None)
def lie_derivation_space(alg: StructureAlgebra) -> Subspace:
    """Solutions of D([b_i, b_j]) = [D(b_i), b_j] + [b_i, D(b_j)]."""
    f, dd = alg.field, alg.dim ** 2
    return Subspace.span(f, dd, kernel_basis(f, dd, leibniz_rows(alg, 1, lie=True)))


def leibniz_rows(alg: StructureAlgebra, n: int, lie: bool) -> list:
    """Rows of the law T(..u.v..) = T(..u..).b_v + b_u.T(..v..), slot by slot.

    The product is the bracket for the Lie law (pairs u < v) and the
    multiplication otherwise (all pairs). Unknowns are component-major:
    t*d**n + rank is the coefficient of b_t in T at the basis tuple of that
    rank (first slot most significant), so for n = 1 it is D[t*d+s]. Rows run
    over slot, spectator tuple, u, v and the output component t.
    """
    d, f = alg.dim, alg.field
    table = alg.bracket_table if lie else alg.mul
    size = d ** n
    # by_right[v][t] = {s: (b_s.b_v)_t}, by_left[u][t] = {s: (b_u.b_s)_t}
    by_right = [table.operator_rows(f, right=f.unit(d, v)) for v in range(d)]
    by_left = [table.operator_rows(f, left=f.unit(d, u)) for u in range(d)]
    rows = []
    for slot in range(n):
        st = d ** (n - 1 - slot)
        for spect in range(d ** (n - 1)):
            base = (spect // st) * (st * d) + spect % st
            for u in range(d):
                for v in range(u + 1, d) if lie else range(d):
                    cell = table.at(u, v)
                    at_u, at_v = base + u * st, base + v * st
                    for t in range(d):
                        row = {t * size + base + w * st: c for w, c in cell}
                        for s, c in by_right[v][t].items():
                            key = s * size + at_u
                            row[key] = row.get(key, 0) - c
                        for s, c in by_left[u][t].items():
                            key = s * size + at_v
                            row[key] = row.get(key, 0) - c
                        row = f.sparse(row)
                        if row:
                            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# center data of an assembled algebra
# ---------------------------------------------------------------------------


@record
class CenterData:
    """Center of G with its diagonal projections and the linking map.

    The linking map eta carries the A part of a central element to its B
    part. a_to_b is its matrix as a tuple of rows: a_to_b[r][c] is the
    coordinate on b_part.basis[r] of the image of a_part.basis[c]. It
    satisfies a.m = m.eta(a) and n.a = eta(a).n on all module basis vectors.
    """

    center_g: Subspace
    center_a: Subspace
    center_b: Subspace
    a_part: Subspace
    b_part: Subspace
    a_to_b: tuple


def center_data(g: GMAlgebra) -> CenterData:
    """The center of G, its projections to A and B, and the linking map.

    The basis of Z(G) is in RREF and vanishes on M and N, so once the A
    projection is injective every pivot lies in A: the A parts of the basis
    rows are a_part.basis, in order, and their B parts are the linked images.
    """
    ctx, f = g.context, g.field
    da, _, _, db = ctx.dims
    off = g.offsets
    zg = center(g.algebra)
    za = center(ctx.a)
    zb = center(ctx.b)

    for row in zg.basis:
        if any(row[off[1]:off[3]]):
            raise CenterStructureError(
                "central element with nonzero off-diagonal part")

    a_part = Subspace.span(f, da, [row[:da] for row in zg.basis])
    b_vecs = [row[off[3]:] for row in zg.basis]
    b_part = Subspace.span(f, db, b_vecs)
    if a_part.dim != zg.dim:
        raise CenterStructureError(
            "A-projection of the center is not injective; "
            "the context cannot have a faithful M")
    if b_part.dim != zg.dim:
        raise CenterStructureError("linking map is singular")
    a_to_b = tuple(zip(*(b_part.coordinates_of(v) for v in b_vecs)))

    _verify_link(g, a_part, b_vecs)
    return CenterData(zg, za, zb, a_part, b_part, a_to_b)


def _verify_link(g: GMAlgebra, a_part: Subspace, b_vecs) -> None:
    """Check the linking map a_part.basis[i] -> b_vecs[i] on modules and products."""
    ctx, f = g.context, g.field
    _, dm, dn, db = ctx.dims

    def linked_image(avec):
        coords = a_part.coordinates_of(avec)
        return None if coords is None else f.combine(coords, b_vecs, db)

    for arow in a_part.basis:
        bvec = linked_image(arow)
        for j in range(dm):
            m = f.unit(dm, j)
            if ctx.act_am.apply(f, arow, m) != ctx.act_mb.apply(f, m, bvec):
                raise CenterStructureError("a.m != m.eta(a) on module basis")
        for j in range(dn):
            n = f.unit(dn, j)
            if ctx.act_na.apply(f, n, arow) != ctx.act_bn.apply(f, bvec, n):
                raise CenterStructureError("n.a != eta(a).n on module basis")
    # multiplicativity on basis products
    for x in a_part.basis:
        for y in a_part.basis:
            prod = ctx.a.mul_coords(x, y)
            lhs = linked_image(prod)
            if lhs is None:
                raise CenterStructureError("a_part not closed under product")
            bx = linked_image(x)
            by = linked_image(y)
            if lhs != ctx.b.mul_coords(bx, by):
                raise CenterStructureError("linking map not multiplicative")


# ---------------------------------------------------------------------------
# central ideals and the torsion-style action condition
# ---------------------------------------------------------------------------


@record
class CentralIdealResult:
    answer: bool
    witness: Element | None = None


def has_nonzero_central_ideal(alg: StructureAlgebra) -> CentralIdealResult:
    """Look for z != 0 central with alg . z still inside the center.

    Such a z exists iff the algebra has a nonzero central ideal (the
    two-sided ideal generated by a central z is alg . z).
    """
    z = center(alg)
    if z.dim == 0:
        return CentralIdealResult(False)
    d, f = alg.dim, alg.field
    rows = []
    for i in range(d):
        e_i = f.unit(d, i)
        residuals = []
        for zr in z.basis:
            prod = alg.mul_coords(e_i, list(zr))
            residuals.append(z.reduce(prod))
        for comp in range(d):
            row = {r: residuals[r][comp] for r in range(z.dim)
                   if residuals[r][comp]}
            if row:
                rows.append(row)
    sols = kernel_basis(f, z.dim, rows)
    if not sols:
        return CentralIdealResult(False)
    return CentralIdealResult(True, alg.element(f.combine(sols[0], z.basis, d)))


@record
class CheckStatus:
    """Outcome of a check or predicate, with the witness of a failure."""

    status: str  # "pass" | "fail" | "unknown"
    witness: object = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __bool__(self) -> bool:
        return self.ok


def torsion_action_check(g: GMAlgebra | StructureAlgebra) -> CheckStatus:
    """Decide whether nonzero central elements act without kernel.

    dim Z <= 1 is decided exactly. For larger centers a fixed deterministic
    probe set is tried first; over GF(p) small centers are then enumerated
    exhaustively, otherwise the answer stays "unknown" (the singular locus
    over the rationals is a hypersurface no finite probe set can exclude).
    """
    alg = core_algebra(g)
    z = center(alg)
    d, f = alg.dim, alg.field
    if z.dim == 0:
        return CheckStatus("pass", reason="center is zero")

    def singular_witness(zvec):
        ker = kernel_basis(f, d, stack_rows([alg.mul.operator_rows(f, left=zvec)]))
        return ker[0] if ker else None

    if z.dim == 1:
        zvec = z.basis[0]
        ker = singular_witness(zvec)
        if ker is None:
            return CheckStatus("pass")
        return CheckStatus("fail", witness=(alg.element(zvec), alg.element(ker)))

    candidates = [list(b) for b in z.basis]
    rng = random.Random(_PROBE_SEED)
    for _ in range(_PROBES):
        if f.p is None:
            coeffs = [f.of(rng.randint(-9, 9)) for _ in range(z.dim)]
        else:
            coeffs = [rng.randrange(f.p) for _ in range(z.dim)]
        vec = f.combine(coeffs, z.basis, d)
        if any(vec):
            candidates.append(vec)
    for vec in candidates:
        ker = singular_witness(vec)
        if ker is not None:
            return CheckStatus("fail", witness=(alg.element(vec), alg.element(ker)))

    if f.p is not None and f.p ** z.dim <= _ENUM_LIMIT:
        for combo in product(range(f.p), repeat=z.dim):
            if not any(combo):
                continue
            vec = f.combine(combo, z.basis, d)
            ker = singular_witness(vec)
            if ker is not None:
                return CheckStatus("fail",
                                   witness=(alg.element(vec), alg.element(ker)))
        return CheckStatus("pass", reason="exhaustive over the finite center")
    return CheckStatus(
        "unknown",
        reason=f"center dimension {z.dim} over {f.name}: "
               "probes nonsingular, no finite decision procedure")


# ---------------------------------------------------------------------------
# bimodule endomorphism pairs
# ---------------------------------------------------------------------------


@record
class PairSpaces:
    """Bimodule endomorphism spaces of M and N and the compatible pairs.

    special lives in End(M) (+) End(N) flattened as (F entries, E entries);
    standard is the image of (w0, w1) in Z(A) x Z(B) under
    F(m) = w0 m + m w1, E(n) = -n w0 - w1 n.
    """

    hom_m: Subspace
    hom_n: Subspace
    special: Subspace
    standard: Subspace


def pair_spaces(g: GMAlgebra) -> PairSpaces:
    ctx, f = g.context, g.field
    _, dm, dn, _ = ctx.dims
    fm, en_sz = dm * dm, dn * dn

    hom_m_rows = _bimodule_hom_rows(f, ctx.a, ctx.b, dm, ctx.act_am, ctx.act_mb)
    hom_m = Subspace.span(f, fm, kernel_basis(f, fm, hom_m_rows)) if dm else \
        Subspace.zero(f, 0)
    hom_n_rows = _bimodule_hom_rows(f, ctx.b, ctx.a, dn, ctx.act_bn, ctx.act_na)
    hom_n = Subspace.span(f, en_sz, kernel_basis(f, en_sz, hom_n_rows)) if dn else \
        Subspace.zero(f, 0)

    total = fm + en_sz
    rows = hom_m_rows + stack_rows([hom_n_rows], fm)
    # compatibility: F(m_i) n_j + m_i E(n_j) = 0 in A (pairing rows [0]),
    # then n_j F(m_i) + E(n_j) m_i = 0 in B (pairing rows [1])
    on_m, on_n = pairing_rows(ctx)
    for out in (0, 1):
        for i in range(dm):
            for j in range(dn):
                for f_row, e_row in zip(on_m[j][out], on_n[i][out]):
                    row = {t_idx(w, i, dm): c for w, c in f_row.items()}
                    row.update((fm + t_idx(w, j, dn), c) for w, c in e_row.items())
                    if row:
                        rows.append(row)
    special = Subspace.span(f, total, kernel_basis(f, total, rows))

    vecs = [_pair_vector(f, ctx.act_am.operator_rows(f, left=w0),
                         ctx.act_na.operator_rows(f, right=w0))
            for w0 in center(ctx.a).basis]
    vecs += [_pair_vector(f, ctx.act_mb.operator_rows(f, right=w1),
                          ctx.act_bn.operator_rows(f, left=w1))
             for w1 in center(ctx.b).basis]
    standard = Subspace.span(f, total, vecs)
    return PairSpaces(hom_m, hom_n, special, standard)


def t_idx(t: int, s: int, dim: int) -> int:
    """Flat index of the (t, s) entry of an End matrix: F(m_s) has b_t coeff."""
    return t * dim + s


def _pair_vector(f, f_rows, e_rows) -> list:
    """Flat (F, E) with F[t, s] = f_rows[t][s] and E[t, s] = -e_rows[t][s]."""
    dm, dn = len(f_rows), len(e_rows)
    flat = f.vec_zero(dm * dm + dn * dn)
    for t, row in enumerate(f_rows):
        for s, c in row.items():
            flat[t_idx(t, s, dm)] = c
    for t, row in enumerate(e_rows):
        for s, c in row.items():
            flat[dm * dm + t_idx(t, s, dn)] = f.neg(c)
    return flat


def _bimodule_hom_rows(f, left_alg, right_alg, d, act_left, act_right) -> list:
    """Rows forcing F(x . m . y) = x . F(m) . y at basis level.

    Unknown F[t*d+s] is the coefficient of m_t in F(m_s).
    """
    rows = []
    for i in range(left_alg.dim):
        # F(a_i . m_j) = a_i . F(m_j)
        by_left = act_left.operator_rows(f, left=f.unit(left_alg.dim, i))
        for j in range(d):
            rows += _intertwining_rows(f, act_left.at(i, j), by_left, j, d)
    by_right = [act_right.operator_rows(f, right=f.unit(right_alg.dim, j))
                for j in range(right_alg.dim)]
    for i in range(d):
        for j in range(right_alg.dim):
            # F(m_i . b_j) = F(m_i) . b_j
            rows += _intertwining_rows(f, act_right.at(i, j), by_right[j], i, d)
    return rows


def _intertwining_rows(f, cell, op_rows, s0: int, d: int) -> list:
    """Rows of F(sum_s c_s m_s) = op(F(m_s0)) for cell = ((s, c_s), ...).

    op_rows[t][w] is the coefficient of m_t in op(m_w); one row per t.
    """
    rows = []
    for t, op in enumerate(op_rows):
        row = {t_idx(t, s, d): c for s, c in cell}
        for w, c in op.items():
            key = t_idx(w, s0, d)
            row[key] = row.get(key, 0) - c
        row = f.sparse(row)
        if row:
            rows.append(row)
    return rows


def pairing_rows(ctx: MoritaContext) -> tuple:
    """Pairing rows with one module argument fixed to a basis vector.

    Returns (on_m, on_n). on_m[j] is the pair (rows of m -> m n_j into A,
    rows of m -> n_j m into B); on_n[i] is (rows of n -> m_i n into A, rows
    of n -> n m_i into B). Stacked, on_m cuts out {m : N m = 0 = m N} and
    on_n cuts out {n : M n = 0 = n M}.
    """
    f = ctx.field
    _, dm, dn, _ = ctx.dims
    on_m = [(ctx.pair_mn.operator_rows(f, right=f.unit(dn, j)),
             ctx.pair_nm.operator_rows(f, left=f.unit(dn, j))) for j in range(dn)]
    on_n = [(ctx.pair_mn.operator_rows(f, left=f.unit(dm, i)),
             ctx.pair_nm.operator_rows(f, right=f.unit(dm, i))) for i in range(dm)]
    return on_m, on_n


# ---------------------------------------------------------------------------
# hypothesis checker
# ---------------------------------------------------------------------------

VARIANTS = ("4.1", "4.3")


@record
class HypothesisReport:
    variant: str
    conditions: tuple  # five (number, CheckStatus) pairs

    @property
    def all_pass(self) -> bool:
        return all(st.ok for _, st in self.conditions)

    def condition(self, number: int) -> CheckStatus:
        for n, st in self.conditions:
            if n == number:
                return st
        raise KeyError(number)


def check_hypotheses(g: GMAlgebra, variant: str,
                     cd: CenterData | None = None,
                     ps: PairSpaces | None = None) -> HypothesisReport:
    """Evaluate the five decomposition hypotheses, ruleset 4.1 or 4.3.

    Both rulesets share (1) the center projections are onto, (2) A or B has
    no nonzero central ideal, and (5) special pairs are standard. 4.1 adds
    the central-action condition (3) and the pairing/noncommutativity
    condition (4); 4.3 instead requires the one-sided annihilators in N (3)
    and M (4) to vanish. `cd` and `ps` are `center_data(g)` and
    `pair_spaces(g)`, computed here unless a caller checking both rulesets
    passes them in.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown hypothesis variant {variant!r}")
    ctx = g.context
    if cd is None:
        cd = center_data(g)
    conds: list[tuple[int, CheckStatus]] = []

    ok_a = cd.a_part == cd.center_a
    ok_b = cd.b_part == cd.center_b
    if ok_a and ok_b:
        conds.append((1, CheckStatus("pass")))
    else:
        sides = []
        if not ok_a:
            sides.append("A")
        if not ok_b:
            sides.append("B")
        conds.append((1, CheckStatus(
            "fail", witness=tuple(sides),
            reason="center projection is a proper subalgebra")))

    ia = has_nonzero_central_ideal(ctx.a)
    ib = has_nonzero_central_ideal(ctx.b)
    if not ia.answer or not ib.answer:
        conds.append((2, CheckStatus("pass")))
    else:
        conds.append((2, CheckStatus(
            "fail", witness=(ia.witness, ib.witness),
            reason="both A and B contain nonzero central ideals")))

    if variant == "4.1":
        conds.append((3, torsion_action_check(g)))
        if (span_cells(g.field, ctx.a.dim, ctx.pair_mn.entries).dim
                or span_cells(g.field, ctx.b.dim, ctx.pair_nm.entries).dim):
            conds.append((4, CheckStatus("pass", reason="pairings not both zero")))
        elif not is_commutative(ctx.a) or not is_commutative(ctx.b):
            conds.append((4, CheckStatus("pass")))
        else:
            conds.append((4, CheckStatus(
                "fail",
                reason="MN = 0 = NM while both A and B are commutative")))
    else:
        conds.append((3, _annihilator_check_n(g)))
        conds.append((4, _annihilator_check_m(g)))

    if ps is None:
        ps = pair_spaces(g)
    if ps.special == ps.standard:
        conds.append((5, CheckStatus("pass")))
    else:
        wit = next((b for b in ps.special.basis
                    if not ps.standard.contains(b)), None)
        conds.append((5, CheckStatus(
            "fail", witness=wit,
            reason=f"special pairs dim {ps.special.dim} != "
                   f"standard dim {ps.standard.dim}")))
    return HypothesisReport(variant, tuple(conds))


def _annihilator_check_n(g: GMAlgebra) -> CheckStatus:
    """{n : M n = 0 and n M = 0} must vanish."""
    _, on_n = pairing_rows(g.context)
    rows = stack_rows(blk for pair in on_n for blk in pair)
    ker = kernel_basis(g.field, g.context.n_dim, rows)
    if not ker:
        return CheckStatus("pass")
    return CheckStatus("fail", witness=g.embed_n(ker[0]),
                       reason="nonzero n with M n = 0 = n M")


def _annihilator_check_m(g: GMAlgebra) -> CheckStatus:
    """{m : N m = 0 and m N = 0} must vanish."""
    on_m, _ = pairing_rows(g.context)
    rows = stack_rows(blk for into_a, into_b in on_m for blk in (into_b, into_a))
    ker = kernel_basis(g.field, g.context.m_dim, rows)
    if not ker:
        return CheckStatus("pass")
    return CheckStatus("fail", witness=g.embed_m(ker[0]),
                       reason="nonzero m with N m = 0 = m N")
