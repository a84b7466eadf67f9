"""Centers, derivation spaces, bimodule-pair spaces and hypothesis checks.

Every question is reduced to an exact kernel or span computation; answers
come back as canonical Subspace values or as three-valued CheckStatus
records carrying witnesses.

Constraint rows come from one view, `BilinearTable.operator_rows`: fix one
argument of a structure table to a coordinate vector and it returns, per
output basis element, the sparse row {free index: coefficient} of the
linear map in the other argument. Each linear law has one writer. The
upper central series has one: Z_0 = 0, and Z_j is cut out by
Z_(j-1)'s `Subspace.preimage_rows` of s -> [b_i, s] over all i, the one
writer of a condition "A x lies in S". The center is its first term Z_1,
and a membership question about any of them is `Subspace.contains`, read
off the same annihilator rows.
`leibniz_rows` writes the derivation law: it pairs one product cell b_u.b_v
with the rows of x -> x.b_v and x -> b_u.x, all read off the table's int
view, so no Fraction reaches the kernels of the derivation spaces.
`pair_spaces` keeps its rows on the unknowns of a D of G that is zero on A
and B and keeps M and N, the special pairs. Every annihilator the
hypotheses ask for is a two-sided one inside G: `two_sided_annihilator`
cuts the `operator_rows` of x -> y x and x -> x y, read off the int view of
the multiplication, to one block of G.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .algebra_core import Element, StructureAlgebra, is_commutative, stack_rows
from .exact_linear import Subspace, int_scaled, kernel_basis
from .gma import GMAlgebra
from .records import record

_PROBE_SEED = 0x5EED_CA_FE
_PROBES = 64
_ENUM_LIMIT = 10 ** 6


def core_algebra(g: GMAlgebra | StructureAlgebra) -> StructureAlgebra:
    return g.algebra if isinstance(g, GMAlgebra) else g


def _int_units(d: int) -> list:
    """The coordinate vectors of a d-space, with int entries."""
    return [[int(i == j) for i in range(d)] for j in range(d)]


def center(alg: StructureAlgebra) -> Subspace:
    """Z(alg), the first term of the upper central series."""
    return upper_central(alg, 1)


@lru_cache(maxsize=None)
def upper_central(alg: StructureAlgebra, n: int) -> Subspace:
    """Z_n, the n-th term of the upper central series of alg as a Lie algebra.

    Z_0 = 0 and Z_j = {s : [b_i, s] lies in Z_(j-1) for every i}: the kernel
    of Z_(j-1)'s `preimage_rows` of s -> [b_i, s] over all i, whose rows are
    read off the bracket's int view at int unit vectors.
    """
    d, f = alg.dim, alg.field
    if n == 0:
        return Subspace.zero(f, d)
    prev = upper_central(alg, n - 1)
    bt = alg.bracket_table.int_view
    rows = []
    for e in _int_units(d):
        rows += prev.preimage_rows(bt.operator_rows(f, left=e))
    return Subspace.span(f, d, kernel_basis(f, d, rows))


@lru_cache(maxsize=None)
def derivation_space(alg: StructureAlgebra) -> Subspace:
    """Solutions D of D(b_i b_j) = D(b_i) b_j + b_i D(b_j), flattened d x d.

    Unknown D[t*d+s] is the coefficient of b_t in D(b_s).
    """
    f, dd = alg.field, alg.dim ** 2
    return Subspace.span(f, dd, kernel_basis(f, dd, leibniz_rows(alg, lie=False)))


@lru_cache(maxsize=None)
def lie_derivation_space(alg: StructureAlgebra) -> Subspace:
    """Solutions of D([b_i, b_j]) = [D(b_i), b_j] + [b_i, D(b_j)]."""
    f, dd = alg.field, alg.dim ** 2
    return Subspace.span(f, dd, kernel_basis(f, dd, leibniz_rows(alg, lie=True)))


def leibniz_rows(alg: StructureAlgebra, lie: bool) -> list:
    """Rows of the law D(b_u.b_v) = D(b_u).b_v + b_u.D(b_v).

    The product is the bracket for the Lie law (pairs u < v) and the
    multiplication otherwise (all pairs). Unknown D[t*d+s] is the
    coefficient of b_t in D(b_s). Rows run over u, v and the output
    component t. They are int rows, read off the table's int view at int
    unit vectors: the rational rows times one common factor, with the same
    kernel.
    """
    d, f = alg.dim, alg.field
    table = (alg.bracket_table if lie else alg.mul).int_view
    # by_right[v][t] = {s: (b_s.b_v)_t}, by_left[u][t] = {s: (b_u.b_s)_t}
    units = _int_units(d)
    by_right = [table.operator_rows(f, right=e) for e in units]
    by_left = [table.operator_rows(f, left=e) for e in units]
    rows = []
    for u in range(d):
        for v in range(u + 1, d) if lie else range(d):
            cell = table.at(u, v)
            for t in range(d):
                row = {t * d + w: c for w, c in cell}
                for s, c in by_right[v][t].items():
                    key = s * d + u
                    row[key] = row.get(key, 0) - c
                for s, c in by_left[u][t].items():
                    key = s * d + v
                    row[key] = row.get(key, 0) - c
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
    coordinate on b_part.basis[r] of the image of a_part.basis[c]. On a
    validated context it satisfies a.m = m.eta(a), n.a = eta(a).n and
    eta(x y) = eta(x) eta(y); `center_data` says why.
    """

    center_g: Subspace
    center_a: Subspace
    center_b: Subspace
    a_part: Subspace
    b_part: Subspace
    a_to_b: tuple


@lru_cache(maxsize=None)
def center_data(g: GMAlgebra) -> CenterData:
    """The center of G, its projections to A and B, and the linking map.

    A validated context fixes the shape of Z(G) through its Peirce blocks,
    so none of it is checked here:
    - [e, z] is the M part of z minus its N part, so Z(G) lies in A (+) B;
    - a central b with no A part has m.b = b.m = 0 for every m, and a
      central a with no B part has a.m = m.a = 0, so M faithful on both
      sides makes both projections injective;
    - a central a + b commutes with every m and n, which is a.m = m.b and
      n.a = b.n, so eta links the actions;
    - Z(G) is a subalgebra, so a_part is one and eta is multiplicative.
    The basis of Z(G) is in RREF and has injective projections, so every
    pivot lies in A: the A parts of the basis rows are a_part.basis, in
    order, and their B parts are the linked images.
    """
    ctx, f = g.context, g.field
    da, _, _, db = ctx.dims
    zg = center(g.algebra)
    a_part = Subspace.span(f, da, [row[:da] for row in zg.basis])
    b_vecs = [row[g.offsets[3]:] for row in zg.basis]
    b_part = Subspace.span(f, db, b_vecs)
    a_to_b = tuple(zip(*(b_part.coordinates_of(v) for v in b_vecs)))
    return CenterData(zg, center(ctx.a), center(ctx.b), a_part, b_part, a_to_b)


# ---------------------------------------------------------------------------
# central ideals and the torsion-style action condition
# ---------------------------------------------------------------------------


def has_nonzero_central_ideal(alg: StructureAlgebra) -> Element | None:
    """A central z != 0 with alg . z still inside the center, or None.

    Such a z exists iff the algebra has a nonzero central ideal (the
    two-sided ideal generated by a central z is alg . z). The unknowns are
    the coordinates c of z on Z's basis, and the rows are Z's
    `preimage_rows` of c -> b_i sum_r c_r z_r for each i, so that b_i z lies
    in Z for every i.
    """
    z = center(alg)
    if z.dim == 0:
        return None
    d, f = alg.dim, alg.field
    rows = []
    for i in range(d):
        e_i = f.unit(d, i)
        prods = [alg.mul_coords(e_i, list(zr)) for zr in z.basis]
        rows += z.preimage_rows([{r: x for r, prod in enumerate(prods)
                                  if (x := prod[k])} for k in range(d)])
    sols = kernel_basis(f, z.dim, rows)
    if not sols:
        return None
    return alg.element(f.combine(sols[0], z.basis, d))


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

    The algebra is unital, so 1 lies in Z, and a center of dimension at
    most 1 is k 1, whose nonzero elements act as nonzero scalars: it passes
    with no kernel computed. For larger centers a fixed deterministic probe
    set is tried first; over GF(p) small centers are then enumerated
    exhaustively, otherwise the answer stays "unknown" (the singular locus
    over the rationals is a hypersurface no finite probe set can exclude).
    """
    alg = core_algebra(g)
    z = center(alg)
    d, f = alg.dim, alg.field
    if z.dim <= 1:
        return CheckStatus("pass")

    def singular_witness(zvec):
        ker = kernel_basis(f, d, stack_rows([alg.mul.operator_rows(f, left=zvec)]))
        return ker[0] if ker else None

    # imported here, so that only the probes below load it
    import random

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
# bimodule endomorphism pairs and annihilators, read off G
# ---------------------------------------------------------------------------


@record
class PairSpaces:
    """Special and standard pairs (F, E) in End(M) (+) End(N).

    A pair is flattened as (F entries, E entries), entry t*dim+s being the
    coefficient of the t-th basis vector in the image of the s-th. It is
    special when D = (0 on A, F on M, E on N, 0 on B) is a derivation of G:
    F and E are bimodule maps and F(m) n + m E(n) = 0 = n F(m) + E(n) m.
    standard is spanned by ad z = [z, .] on M and N for z in Z(A) + Z(B),
    that is F(m) = w0 m - m w1 and E(n) = w1 n - n w0.
    """

    special: Subspace
    standard: Subspace


@lru_cache(maxsize=None)
def pair_spaces(g: GMAlgebra) -> PairSpaces:
    ctx, f = g.context, g.field
    da, _, _, db = ctx.dims
    d, off = g.dim, g.offsets
    # the unknowns D[t*d+s] of a map D on G with b_s and b_t both in M or
    # both in N, in the (F, E) layout; special pairs are the derivations of
    # G whose other unknowns are 0
    keys = [t * d + s for lo, hi in ((off[1], off[2]), (off[2], off[3]))
            for t in range(lo, hi) for s in range(lo, hi)]
    col = {k: i for i, k in enumerate(keys)}
    rows = []
    for row in leibniz_rows(g.algebra, lie=False):
        kept = {col[k]: c for k, c in row.items() if k in col}
        if kept:
            rows.append(kept)
    total = len(keys)
    special = Subspace.span(f, total, kernel_basis(f, total, rows))

    central = [list(w) + f.vec_zero(d - da) for w in center(ctx.a).basis]
    central += [f.vec_zero(d - db) + list(w) for w in center(ctx.b).basis]
    vecs = []
    for z in central:
        ad = g.algebra.bracket_table.operator_rows(f, left=z)
        vecs.append([ad[k // d].get(k % d, f.zero) for k in keys])
    return PairSpaces(special, Subspace.span(f, total, vecs))


def two_sided_annihilator(g: GMAlgebra, elements, lo: int, hi: int) -> list:
    """Kernel basis of {x in span(b_lo, ..., b_hi-1) : y x = 0 = x y}.

    y runs over the coordinate vectors `elements` of G. The rows are the
    `operator_rows` of x -> y x, then of x -> x y, for each y in turn, cut
    to the columns lo..hi-1; kernel_basis's basis depends on that order.
    They are read off the int view of the multiplication at y `int_scaled`,
    so each is a positive int multiple of the rational row.
    """
    f, mul = g.field, g.algebra.mul.int_view
    rows = []
    for y in elements:
        y = int_scaled(y)
        for side in (mul.operator_rows(f, left=y), mul.operator_rows(f, right=y)):
            for full in side:
                row = {k - lo: c for k, c in full.items() if lo <= k < hi}
                if row:
                    rows.append(row)
    return kernel_basis(f, hi - lo, rows)


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


def check_hypotheses(g: GMAlgebra, variant: str) -> HypothesisReport:
    """Evaluate the five decomposition hypotheses, ruleset 4.1 or 4.3.

    Both rulesets share (1) the center projections are onto, (2) A or B has
    no nonzero central ideal, and (5) special pairs are standard. 4.1 adds
    the central-action condition (3) and the pairing/noncommutativity
    condition (4); 4.3 instead requires the two-sided annihilators of M in
    N (3) and of N in M (4) to vanish. Both rulesets read the same cached
    `center_data(g)` and `pair_spaces(g)`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown hypothesis variant {variant!r}")
    ctx, cd = g.context, center_data(g)
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
    if ia is None or ib is None:
        conds.append((2, CheckStatus("pass")))
    else:
        conds.append((2, CheckStatus(
            "fail", witness=(ia, ib),
            reason="both A and B contain nonzero central ideals")))

    if variant == "4.1":
        conds.append((3, torsion_action_check(g)))
        if any(ctx.pair_mn.entries) or any(ctx.pair_nm.entries):
            conds.append((4, CheckStatus("pass", reason="pairings not both zero")))
        elif not is_commutative(ctx.a) or not is_commutative(ctx.b):
            conds.append((4, CheckStatus("pass")))
        else:
            conds.append((4, CheckStatus(
                "fail",
                reason="MN = 0 = NM while both A and B are commutative")))
    else:
        f, d, off = g.field, g.dim, g.offsets
        m_basis = [f.unit(d, i) for i in range(off[1], off[2])]
        n_basis = [f.unit(d, i) for i in range(off[2], off[3])]
        conds.append((3, _vanishes(two_sided_annihilator(g, m_basis, off[2], off[3]),
                                   g.embed_n, "nonzero n with M n = 0 = n M")))
        conds.append((4, _vanishes(two_sided_annihilator(g, n_basis, off[1], off[2]),
                                   g.embed_m, "nonzero m with N m = 0 = m N")))

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


def _vanishes(ker: list, embed, reason: str) -> CheckStatus:
    """Pass on an empty kernel basis, else fail on its first vector."""
    if not ker:
        return CheckStatus("pass")
    return CheckStatus("fail", witness=embed(ker[0]), reason=reason)
