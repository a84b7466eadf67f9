"""Centers, linking map, central ideals, derivation spaces, hypotheses."""

import pytest

import gmalg as G
from gmalg.structure_analysis import (leibniz_rows, two_sided_annihilator,
                                     upper_central)

from helpers import (GF7, Q, all_derivations_inner, basis_element, change_of_basis,
                     condition, contains_subspace, corpus_algebras,
                     corpus_contexts, dense_kernel_basis,
                     diagonal_context, inner_derivation_space,
                     link_violations, m2_plus_zp11,
                     mat_vec, matrix_algebra, pierce_project, reduce)
from test_algebra_core import dual_numbers, quadratic_extension, t2_algebra


def gma(kind, field, **kw):
    return G.assemble(G.generate_builtin(kind, field, **kw), validate=False)


def test_center_m3_is_scalars():
    m3 = matrix_algebra(Q, 3)
    z = G.center(m3)
    assert z.dim == 1
    assert z.contains(m3.unit)


def test_center_commutative_is_everything():
    alg = dual_numbers(Q)
    assert G.center(alg).dim == 2


def test_center_t2():
    alg = t2_algebra(Q)
    z = G.center(alg)
    assert z.dim == 1
    assert z.contains(alg.unit)


def test_center_data_full_matrix():
    g = gma("full_matrix", Q, r=3)
    cd = G.center_data(g)
    assert cd.center_g.dim == 1
    assert cd.a_part == G.center(g.context.a)
    assert cd.b_part == G.center(g.context.b)
    # the link carries 1_A to the B unit: both canonical bases are unit rows
    assert cd.a_to_b == ((1,),)


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_linking_matrix_carries_a_coordinates_to_b_coordinates(field):
    """On a center of dimension 2, in bases where the link is not the identity.

    Each center basis vector z = (a, 0, 0, b) must have b's coordinates on
    b_part equal to a_to_b times a's coordinates on a_part.
    """
    ctx = diagonal_context(field)
    non_identity = 0
    for seed in (None, 0, 1, 2, 3, 4, 5):
        g = G.assemble(ctx if seed is None else change_of_basis(ctx, seed))
        cd = G.center_data(g)
        assert cd.center_g.dim == 2 and len(cd.a_to_b) == 2
        off = g.offsets
        for z in cd.center_g.basis:
            a_coords = cd.a_part.coordinates_of(z[:off[1]])
            b_coords = cd.b_part.coordinates_of(z[off[3]:])
            assert list(b_coords) == mat_vec(field, cd.a_to_b, a_coords), seed
        assert link_violations(g, cd) == [], seed
        non_identity += cd.a_to_b != ((1, 0), (0, 1))
    assert non_identity >= 5


def test_center_data_block_triangular():
    g = gma("upper_triangular", Q, s=2, t=1)
    cd = G.center_data(g)
    assert cd.center_g.dim == 1
    assert cd.a_part == G.center(g.context.a)
    assert cd.a_part.dim == 1


def test_e_not_central_when_m_nonzero():
    for name, g in corpus_algebras(Q):
        z = G.center(g.algebra)
        assert not z.contains(g.e.coords), name


def test_central_ideal_m2_none():
    assert G.has_nonzero_central_ideal(matrix_algebra(Q, 2)) is None


def test_central_ideal_commutative_self():
    witness = G.has_nonzero_central_ideal(dual_numbers(Q))
    assert witness is not None and not witness.is_zero


def test_central_ideal_t2_none():
    assert G.has_nonzero_central_ideal(t2_algebra(Q)) is None


def test_torsion_check_unit_center_passes():
    g = gma("full_matrix", Q, r=3)
    assert G.torsion_action_check(g).status == "pass"


def test_torsion_check_nilpotent_fails():
    alg = dual_numbers(Q)
    st = G.torsion_action_check(alg)
    assert st.status == "fail"
    alpha, a = st.witness
    assert not alpha.is_zero and not a.is_zero
    assert (alpha * a).is_zero


def test_torsion_check_unknown_over_q():
    # quadratic field extension: every nonzero element invertible, dim Z = 2
    st = G.torsion_action_check(quadratic_extension(Q))
    assert st.status == "unknown"


def test_torsion_check_exhaustive_over_gf7():
    # s^2 = 2 = 3^2 splits mod 7, so zero divisors exist and are found
    st = G.torsion_action_check(quadratic_extension(GF7))
    assert st.status == "fail"
    alpha, a = st.witness
    assert (alpha * a).is_zero


def test_torsion_check_exhaustive_over_gf5_passes():
    """2 is a non-residue mod 5, so the center is the field F_25: no probe
    finds a zero divisor, and the enumeration of all 24 nonzero central
    elements decides the check."""
    st = G.torsion_action_check(quadratic_extension(G.FieldSpec(5)))
    assert st == G.CheckStatus("pass", reason="exhaustive over the finite center")


def test_derivation_space_dims():
    assert G.derivation_space(matrix_algebra(Q, 2)).dim == 3
    assert G.derivation_space(matrix_algebra(GF7, 3)).dim == 8
    one_dim = G.StructureAlgebra.build(Q, 1, [(0, 0, 0, 1)], [1])
    assert G.derivation_space(one_dim).dim == 0


def test_derivation_members_satisfy_leibniz():
    alg = matrix_algebra(GF7, 2)
    d = alg.dim
    for flat in G.derivation_space(alg).basis:
        for i in range(d):
            for j in range(d):
                bi = list(basis_element(alg, i).coords)
                bj = list(basis_element(alg, j).coords)
                prod = alg.mul_coords(bi, bj)
                dprod = [sum(flat[t * d + s] * prod[s] for s in range(d)) % 7
                         for t in range(d)]
                dbi = [flat[t * d + i] for t in range(d)]
                dbj = [flat[t * d + j] for t in range(d)]
                want = alg.field.vec_add(alg.mul_coords(dbi, bj),
                                         alg.mul_coords(bi, dbj))
                assert dprod == want


def test_lie_derivation_contains_derivations():
    for alg in (matrix_algebra(Q, 2), matrix_algebra(GF7, 3), t2_algebra(Q)):
        der = G.derivation_space(alg)
        lie = G.lie_derivation_space(alg)
        assert contains_subspace(lie, der)
    assert G.lie_derivation_space(matrix_algebra(GF7, 3)).dim == 9


def test_lie_derivations_of_commutative_algebra_all_of_end():
    alg = dual_numbers(Q)
    assert G.lie_derivation_space(alg).dim == 4


def test_inner_derivations():
    m3 = matrix_algebra(Q, 3)
    inner = inner_derivation_space(m3)
    assert inner.dim == 9 - G.center(m3).dim
    assert all_derivations_inner(m3)
    assert all_derivations_inner(matrix_algebra(GF7, 2))
    comm = dual_numbers(Q)
    assert inner_derivation_space(comm).dim == 0
    assert all_derivations_inner(comm) == (G.derivation_space(comm).dim == 0)


def test_inner_dim_formula_block_triangular():
    g = gma("upper_triangular", Q, s=2, t=1)
    inner = inner_derivation_space(g.algebra)
    assert inner.dim == 7 - 1
    der = G.derivation_space(g.algebra)
    assert contains_subspace(der, inner)


def module_only(a, b, dm, act_am, act_mb):
    """The context (A, B, M, N = 0), whose special pairs are End_{A-B}(M)."""
    return G.MoritaContext(
        a=a, b=b, m_dim=dm, n_dim=0, act_am=act_am, act_mb=act_mb,
        act_bn=G.BilinearTable.zero(b.dim, 0, 0),
        act_na=G.BilinearTable.zero(0, a.dim, 0),
        pair_mn=G.BilinearTable.zero(dm, 0, a.dim),
        pair_nm=G.BilinearTable.zero(0, dm, b.dim),
    )


def test_pair_spaces_full_matrix():
    g = gma("full_matrix", Q, r=3)
    ps = G.pair_spaces(g)
    ctx = g.context
    # End(M) as an A-B bimodule and End(N) as a B-A bimodule are scalars
    for alone in (module_only(ctx.a, ctx.b, ctx.m_dim, ctx.act_am, ctx.act_mb),
                  module_only(ctx.b, ctx.a, ctx.n_dim, ctx.act_bn, ctx.act_na)):
        assert G.validate_context(alone).ok
        assert G.pair_spaces(G.assemble(alone, validate=False)).special.dim == 1
    assert ps.special == ps.standard
    assert ps.special.dim == 1


def test_pair_spaces_triangular_special_is_hom_m():
    g = gma("upper_triangular", Q, s=2, t=1)
    ps = G.pair_spaces(g)
    # N = 0: special pairs carry only the F component, End(M) of the
    # M_2-k bimodule of columns, which is the scalars
    assert ps.special.ambient_dim == g.context.m_dim ** 2
    assert ps.special.dim == 1
    assert ps.special == ps.standard


def test_pair_spaces_pathological_inflated_module():
    """A = B = k acting by scalars on M = k^2: every endo is a bimodule hom."""
    scal = matrix_algebra(Q, 1)
    ctx = module_only(
        scal, scal, 2,
        G.BilinearTable.from_quadruples(Q, 1, 2, 2, [(0, 0, 0, 1), (0, 1, 1, 1)]),
        G.BilinearTable.from_quadruples(Q, 2, 1, 2, [(0, 0, 0, 1), (1, 0, 1, 1)]))
    assert G.validate_context(ctx).ok
    g = G.assemble(ctx, validate=False)
    ps = G.pair_spaces(g)
    assert ps.special.dim == 4
    assert ps.standard.dim == 1
    assert ps.special != ps.standard
    rep = G.check_hypotheses(g, "4.1")
    assert condition(rep, 5).status == "fail"


def test_standard_subset_special_everywhere():
    for name, g in corpus_algebras(Q):
        ps = G.pair_spaces(g)
        assert contains_subspace(ps.special, ps.standard), name


def restricted_derivations(g):
    """Derivations of G that are zero on A and B and map M to M and N to N.

    The kernel of `leibniz_rows(g.algebra, lie=False)` on the unknowns
    D[t*d+s] with b_s, b_t both in M or both in N, renumbered as pair_spaces
    lays out (F, E); the other unknowns are fixed to 0.
    """
    f, d, off = g.field, g.dim, g.offsets
    _, dm, dn, _ = g.context.dims
    col = {}
    for lo, hi, start in ((off[1], off[2], 0), (off[2], off[3], dm * dm)):
        for t in range(lo, hi):
            for s in range(lo, hi):
                col[t * d + s] = start + (t - lo) * (hi - lo) + s - lo
    total = dm * dm + dn * dn
    rows = [{col[k]: c for k, c in row.items() if k in col}
            for row in leibniz_rows(g.algebra, lie=False)]
    return G.Subspace.span(f, total, dense_kernel_basis(f, total, rows))


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_special_pairs_are_the_restricted_derivations_of_g(field, seed):
    for name, ctx in corpus_contexts(field):
        if seed is not None:
            ctx = change_of_basis(ctx, seed)
        g = G.assemble(ctx, validate=False)
        ps = G.pair_spaces(g)
        assert ps.special == restricted_derivations(g), name
        assert contains_subspace(ps.special, ps.standard), name


def pair_as_map(g, vec):
    """The arity-1 map D on G of a flattened pair (F, E): 0 on A and B, and
    on the j-th basis vector of M (of N) the element of M (of N) whose
    coordinates are column j of F (of E)."""
    _, dm, dn, _ = g.context.dims
    off = g.offsets
    entries = {}
    for lo, dim, flat, embed in ((off[1], dm, vec[:dm * dm], g.embed_m),
                                 (off[2], dn, vec[dm * dm:], g.embed_n)):
        for j in range(dim):
            entries[(lo + j,)] = embed([flat[t * dim + j] for t in range(dim)]).coords
    return G.MultilinearMap.from_entries(g.field, 1, g.dim, entries)


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_special_pairs_are_derivations_zero_on_a_and_b(field, seed):
    """Each special pair, made into D on G, passes the hand-written
    derivation predicate, and its Peirce parts show that D kills A and B and
    keeps M in M and N in N. This does not read `leibniz_rows`, which
    `pair_spaces` solves."""
    for name, ctx in corpus_contexts(field) + [("sum", m2_plus_zp11(field))]:
        if seed is not None:
            ctx = change_of_basis(ctx, seed)
        g = G.assemble(ctx, validate=False)
        off = g.offsets
        special = G.pair_spaces(g).special
        assert special.dim, name
        for vec in special.basis:
            dmap = pair_as_map(g, vec)
            assert not dmap.is_zero, name
            assert G.is_n_derivation(g, dmap).ok, name
            for i in range(g.dim):
                parts = pierce_project(g, dmap.evaluate([basis_element(g.algebra, i)]))
                keep = ("m" if off[1] <= i < off[2]
                        else "n" if off[2] <= i < off[3] else "")
                for block in "amnb":
                    if block != keep:
                        assert not any(getattr(parts, block)), (name, i, block)


def test_hypotheses_m3_both_variants_pass():
    for field in (Q, GF7):
        g = gma("full_matrix", field, r=3)
        for variant in ("4.1", "4.3"):
            rep = G.check_hypotheses(g, variant)
            assert rep.all_pass, (field.name, variant, rep.conditions)


def test_hypotheses_block_triangular_passes_41():
    g = gma("upper_triangular", Q, s=2, t=1)
    assert G.check_hypotheses(g, "4.1").all_pass


def test_hypotheses_t2_fails_condition_2_both_sides():
    g = gma("upper_triangular", Q, s=1, t=1)
    rep = G.check_hypotheses(g, "4.1")
    assert not rep.all_pass
    cond2 = condition(rep, 2)
    assert cond2.status == "fail"
    wa, wb = cond2.witness
    assert not wa.is_zero and not wb.is_zero


def test_hypotheses_43_annihilator_conditions():
    g = gma("full_matrix", Q, r=3)
    rep = G.check_hypotheses(g, "4.3")
    assert condition(rep, 3).status == "pass"
    assert condition(rep, 4).status == "pass"
    # triangular: N = 0 makes condition (4) vacuously false for every m
    t = gma("upper_triangular", Q, s=2, t=1)
    rep_t = G.check_hypotheses(t, "4.3")
    assert condition(rep_t, 3).status == "pass"
    assert condition(rep_t, 4).status == "fail"


def test_hypothesis_variant_guard():
    g = gma("full_matrix", Q, r=2)
    with pytest.raises(ValueError):
        G.check_hypotheses(g, "9.9")


def test_pi_a_injective_on_center_everywhere():
    for name, g in corpus_algebras(Q):
        cd = G.center_data(g)
        assert cd.a_part.dim == cd.center_g.dim, name


def test_leibniz_rows_are_int_rows_on_seeded_q():
    """Seeded constants carry denominators; the rows do not."""
    fractional = 0
    for name, ctx in corpus_contexts(Q):
        alg = G.assemble(change_of_basis(ctx, f"int-rows:{name}"),
                         validate=False).algebra
        fractional += any(c.denominator > 1 for cell in alg.mul.entries
                          for _, c in cell)
        for lie in (True, False):
            rows = leibniz_rows(alg, lie)
            assert rows, name
            assert all(type(c) is int for row in rows for c in row.values()), name
    assert fractional >= 3


def cut_annihilator(g, elements, lo, hi):
    """The rows of `two_sided_annihilator` from Fraction `operator_rows`
    over all of G, each cut to the columns lo..hi-1, in the same order."""
    f, mul = g.field, g.algebra.mul
    rows = []
    for y in elements:
        for side in (mul.operator_rows(f, left=y), mul.operator_rows(f, right=y)):
            for full in side:
                row = {k - lo: c for k, c in full.items() if lo <= k < hi}
                if row:
                    rows.append(row)
    return dense_kernel_basis(f, hi - lo, rows)


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_two_sided_annihilator_equals_the_cut_rows(field, seed):
    """The same kernel vectors, in the same order, on the 4.3 blocks and on
    the extremal block M + N with the extremal conditions' elements. Over q
    in a seeded basis of the direct sum, the sign of the one vector of the
    annihilator of M in N depends on the order of the rows."""
    for name, ctx in corpus_contexts(field) + [("diag", diagonal_context(field)),
                                              ("sum", m2_plus_zp11(field))]:
        if seed is not None:
            ctx = change_of_basis(ctx, seed)
        g = G.assemble(ctx, validate=False)
        f, d, off = g.field, g.dim, g.offsets
        m_basis = [f.unit(d, i) for i in range(off[1], off[2])]
        n_basis = [f.unit(d, i) for i in range(off[2], off[3])]
        extremal = [list(c) + f.vec_zero(d - off[1])
                    for c in ctx.a.commutators.basis]
        extremal += [f.vec_zero(off[3]) + list(c) for c in ctx.b.commutators.basis]
        extremal += m_basis + n_basis
        for elements, lo, hi in ((m_basis, off[2], off[3]),
                                 (n_basis, off[1], off[2]),
                                 (extremal, off[1], off[3])):
            assert (two_sided_annihilator(g, elements, lo, hi)
                    == cut_annihilator(g, elements, lo, hi)), name


def unit_plus_strictly_upper_4(field):
    """k.1 plus the strictly upper triangular 4 x 4 matrices (d = 7): the
    basis is 1, then e_ij for i < j in row-major order."""
    units = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    at = {u: k for k, u in enumerate(units, start=1)}
    quads = [(0, 0, 0, 1)]
    quads += [q for k in at.values() for q in ((0, k, k, 1), (k, 0, k, 1))]
    quads += [(at[i, j], at[j, l], at[i, l], 1)
              for i, j in units for jj, l in units if jj == j]
    return G.StructureAlgebra.build(field, 7, quads, [1] + [0] * 6)


def upper_central_oracle(alg, n):
    """Z_n by dense residuals: Z_j is the kernel of s -> ([b_i, s] reduced
    against Z_(j-1))_i, its matrix read off at the unit vectors s."""
    d, f = alg.dim, alg.field
    z = G.Subspace.zero(f, d)
    for _ in range(n):
        cols = [[x for i in range(d)
                 for x in reduce(z, alg.bracket_coords(f.unit(d, i), f.unit(d, k)))]
                for k in range(d)]
        z = G.Subspace.span(f, d, dense_kernel_basis(f, d, list(zip(*cols))))
    return z


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_upper_central_series_of_unit_plus_strictly_upper_4(field):
    alg = unit_plus_strictly_upper_4(field)
    assert G.validate_algebra(alg).ok
    series = [upper_central(alg, n) for n in range(6)]
    assert [z.dim for z in series] == [0, 2, 4, 7, 7, 7]
    assert G.center(alg) is series[1]
    assert series == [upper_central_oracle(alg, n) for n in range(6)]
    # 1 and e_14 are central; e_13 and e_24 enter at Z_2
    assert series[1] == G.Subspace.span(field, 7, [field.unit(7, 0), field.unit(7, 3)])
    assert all(series[2].contains(field.unit(7, k)) for k in (2, 5))


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_upper_central_series_is_the_center_on_the_corpus(field):
    """ad e is the identity on M and minus the identity on N, and it maps
    Z_j into Z_(j-1), so (ad e)^n kills Z_n and no element of Z_n has an M
    or N part. On these instances the diagonal part adds nothing either:
    Z_n = Z for n = 1..4."""
    for name, g in corpus_algebras(field):
        off = g.offsets
        for n in range(1, 5):
            zn = upper_central(g.algebra, n)
            assert zn == upper_central_oracle(g.algebra, n), (name, n)
            assert not any(x for row in zn.basis for x in row[off[1]:off[3]]), (name, n)
            assert zn == G.center(g.algebra), (name, n)


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_center_annihilator_cuts_out_the_center(field):
    for name, g in corpus_algebras(field):
        alg = g.algebra
        z = G.center(alg)
        ann = G.center(alg).annihilator
        assert G.center(alg).annihilator is ann
        assert len(ann) == alg.dim - z.dim, name
        assert all(type(a) is int for row in ann for _, a in row)
        dense = [[dict(row).get(i, 0) for i in range(alg.dim)] for row in ann]
        assert G.Subspace.span(field, alg.dim,
                               dense_kernel_basis(field, alg.dim, dense)) == z, name
