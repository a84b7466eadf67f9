"""Seed extraction, extremal construction, decomposition and verification."""

import random

import pytest

import gmalg as G

from helpers import (GF101, GF7, Q, assemble_element, basis_element,
                     change_of_basis, contains_subspace, corpus_algebras,
                     corpus_contexts, map_from_basis_function, pierce_project,
                     probe_kernel_dim_by_flats, random_central_map)
from test_multilinear import trace_power_map


def gma(kind, field, **kw):
    return G.assemble(G.generate_builtin(kind, field, **kw), validate=False)


def t2_worked_example(field=Q):
    """kappa from seed E12 plus the diagonal-coordinate cube into the center."""
    g = gma("upper_triangular", field, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    unit = g.algebra.unit

    def psi_fn(key):
        w = g.field.one
        for i in key:
            w = g.field.mul(w, g.field.one if i == 0 else g.field.zero)
        return [g.field.mul(w, c) for c in unit]

    psi = map_from_basis_function(g.algebra, 3, psi_fn)
    return g, kappa, psi


def test_extract_seed_zero_map():
    g = gma("upper_triangular", Q, s=1, t=1)
    assert G.extract_seed(g, G.MultilinearMap.zero(Q, 3, 3)).is_zero


def test_extract_seed_worked_example():
    g, kappa, psi = t2_worked_example()
    phi = kappa.add(psi)
    assert phi.evaluate([g.e] * 3).coords == (1, 1, 1)  # E12 + I in block order
    seed = G.extract_seed(g, phi)
    assert seed.coords == g.embed_m([1]).coords


def test_extract_seed_trace_cube_is_zero():
    g = gma("full_matrix", Q, r=3)
    assert G.extract_seed(g, trace_power_map(g, 3)).is_zero


def test_extract_seed_even_arity_sign():
    """With N != 0 and even arity both corners survive with + sign."""
    g = gma("zero_pairing", Q, s=1, t=1)
    seed = g.embed_m([1]) + g.embed_n([2])
    kappa = G.build_extremal(g, seed, 2)
    assert G.extract_seed(g, kappa).coords == seed.coords
    kappa3 = G.build_extremal(g, seed, 3)
    assert G.extract_seed(g, kappa3).coords == seed.coords


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_extract_seed_is_the_idempotent_corners(field):
    """extract_seed reads the M block of m(e, ..., e) plus (-1)^n times its
    N block; the oracle computes e m(e,...,e) f and f m(e,...,e) e by
    products, at n = 2 and 3, on the corpus, on zero_pairing(1, 1), whose
    seeds have N parts, and on a change of basis of each."""
    seen = {"m": 0, "n": 0}
    zp11 = G.generate_builtin("zero_pairing", field, s=1, t=1)
    for name, ctx in corpus_contexts(field) + [("zero_pairing_1_1", zp11)]:
        for ctx in (ctx, change_of_basis(ctx, f"seed:{name}")):
            g = G.assemble(ctx)
            da, _, _, db = g.context.dims
            for n in (2, 3):
                sign = field.of((-1) ** n)
                for mmap in G.n_lie_derivation_space(g, n):
                    parts = pierce_project(g, mmap.evaluate([g.e] * n))
                    want = assemble_element(g, [0] * da, parts.m,
                                            [field.mul(sign, c) for c in parts.n],
                                            [0] * db)
                    assert G.extract_seed(g, mmap).coords == want.coords, (name, n)
                    seen["m"] += any(parts.m)
                    seen["n"] += any(parts.n)
    assert seen["m"] and seen["n"]


def test_build_extremal_t2():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    assert kappa.evaluate([g.e] * 3).coords == g.embed_m([1]).coords
    assert G.is_n_derivation(g, kappa).ok
    assert G.is_n_lie_derivation(g, kappa).ok


def test_build_extremal_refused_on_m2():
    g = gma("full_matrix", Q, r=2)
    seed = g.embed_m([1])
    with pytest.raises(G.ExtremalPreconditionError) as info:
        G.build_extremal(g, seed, 3)
    assert info.value.seed == seed.coords
    assert str(info.value) == ("seed (0, 1, 0, 0) does not commute with the "
                               "commutator span")


def test_build_extremal_central_seed_gives_zero():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.algebra.one, 3)
    assert kappa.is_zero


def test_decompose_worked_example():
    g, kappa, psi = t2_worked_example()
    phi = kappa.add(psi)
    dec = G.decompose(g, phi)
    assert dec.seed.coords == g.embed_m([1]).coords
    assert dec.extremal_part == kappa
    assert dec.central_part == psi
    assert dec.checks.exact_sum
    assert dec.checks.seed_annihilates_commutators
    assert dec.checks.central_part_is_central.ok
    assert not dec.checks.seed_is_central


def test_decompose_zero_map():
    g = gma("upper_triangular", Q, s=1, t=1)
    dec = G.decompose(g, G.MultilinearMap.zero(Q, 3, 3))
    assert dec.seed.is_zero
    assert dec.extremal_part.is_zero and dec.central_part.is_zero
    assert dec.checks.exact_sum and dec.checks.seed_is_central
    assert dec.checks.central_part_is_central.ok


def test_decompose_refuses_non_lie_derivation():
    g = gma("full_matrix", Q, r=2)
    bad = G.MultilinearMap.from_entries(Q, 3, 4, {(0, 1, 2): [1, 0, 0, 0]})
    with pytest.raises(G.LieLeibnizError):
        G.decompose(g, bad)


def test_decompose_m3_gf7_space_elements_central():
    g = gma("full_matrix", GF7, r=3)
    space = G.n_lie_derivation_space(g, 3)
    assert space
    for mmap in space:
        dec = G.decompose(g, mmap)
        assert dec.checks.exact_sum
        assert dec.checks.central_part_is_central.ok


def test_extremal_exists_t2():
    g = gma("upper_triangular", Q, s=1, t=1)
    ex = G.extremal_exists(g)
    assert ex.exists
    assert ex.solution.dim == 1
    m0, n0 = ex.witness
    assert m0.coords == g.embed_m([1]).coords
    assert n0.is_zero


def test_extremal_exists_m3_false_annihilator_is_center():
    g = gma("full_matrix", Q, r=3)
    ex = G.extremal_exists(g)
    assert not ex.exists
    assert ex.solution.dim == 0
    assert ex.annihilator == G.center(g.algebra)


def test_extremal_exists_zero_pairing_2_1_false():
    g = gma("zero_pairing", Q, s=2, t=1)
    ex = G.extremal_exists(g)
    assert not ex.exists


def test_prop_equivalence_on_corpus():
    for name, g in corpus_algebras(Q):
        ex = G.extremal_exists(g)
        assert ex.solution == ex.offdiag_annihilator, name


def test_double_bracket_annihilator_contains_center():
    for name, g in corpus_algebras(Q):
        ann = G.double_bracket_annihilator(g)
        assert contains_subspace(ann, G.center(g.algebra)), name


def test_bracket_identities_for_witness_shape():
    """[x, m0] = e [x, m0] f and [x, n0] = f [x, n0] e on all basis x."""
    g = gma("zero_pairing", Q, s=1, t=1)
    ex = G.extremal_exists(g)
    assert ex.exists
    m0 = g.embed_m([1])
    n0 = g.embed_n([1])
    for i in range(g.dim):
        x = basis_element(g.algebra, i)
        bm = x.bracket(m0)
        assert (g.e * bm * g.f).coords == bm.coords
        bn = x.bracket(n0)
        assert (g.f * bn * g.e).coords == bn.coords


def test_uniqueness_probe():
    t2 = gma("upper_triangular", Q, s=1, t=1)
    probe = G.probe_seed_uniqueness(t2, 3)
    assert probe.admissible_dim == 1
    assert probe.unique_on_probe
    m3 = gma("full_matrix", Q, r=3)
    probe3 = G.probe_seed_uniqueness(m3, 3)
    assert probe3.admissible_dim == 0


def half_unital_context(field):
    """A = B = k and M = k^2 with 1_A m_1 = m_1 = m_1 1_B and m_2 killed on
    both sides, N = 0. M is not unital, so validation refuses the context;
    m_2 is central, and the admissible seeds m_1, m_2 meet Z_n in k m_2."""
    k = G.StructureAlgebra.build(field, 1, [(0, 0, 0, 1)], [1])
    return G.MoritaContext(
        a=k, b=k, m_dim=2, n_dim=0,
        act_am=G.BilinearTable.from_quadruples(field, 1, 2, 2, [(0, 0, 0, 1)]),
        act_mb=G.BilinearTable.from_quadruples(field, 2, 1, 2, [(0, 0, 0, 1)]),
        act_bn=G.BilinearTable.zero(1, 0, 0),
        act_na=G.BilinearTable.zero(0, 1, 0),
        pair_mn=G.BilinearTable.zero(2, 0, 1),
        pair_nm=G.BilinearTable.zero(0, 2, 1),
    )


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
@pytest.mark.parametrize("n", [2, 3])
def test_probe_kernel_matches_the_extremal_maps(field, n):
    """The kernel read off Z_n against the kernel of the flattened extremal
    maps of the admissible seeds. On a valid context ad e is 1 on M and -1
    on N, so no admissible seed lies in Z_n and the kernel is 0; the
    half-unital context has a kernel of dimension 1."""
    admissible = 0
    for name, g in corpus_algebras(field):
        probe = G.probe_seed_uniqueness(g, n)
        assert probe.kernel_dim == probe_kernel_dim_by_flats(g, n) == 0, name
        admissible += probe.admissible_dim
    assert admissible
    g = G.assemble(half_unital_context(field), validate=False)
    assert not G.validate_context(g.context).ok
    probe = G.probe_seed_uniqueness(g, n)
    assert (probe.admissible_dim, probe.kernel_dim) == (2, 1)
    assert probe_kernel_dim_by_flats(g, n) == 1


def test_verify_decomposition_dim7():
    g = gma("upper_triangular", Q, s=2, t=1)
    vr = G.verify_decomposition(g, 3)
    assert vr.theorem_applicable
    assert vr.ok
    assert vr.space_dim == 8
    for dec, triangular_seed_form in vr.verdicts:
        assert dec.checks.exact_sum and dec.checks.central_part_is_central.ok
        assert triangular_seed_form


def test_verify_decomposition_m3_gf7():
    g = gma("full_matrix", GF7, r=3)
    vr = G.verify_decomposition(g, 3)
    assert vr.theorem_applicable and vr.ok
    assert vr.space_dim == 1


def test_verify_decomposition_t2_negative_path():
    g = gma("upper_triangular", Q, s=1, t=1)
    vr = G.verify_decomposition(g, 3)
    assert not vr.theorem_applicable
    assert vr.ok  # nothing asserted beyond exact sums and triangular form
    assert vr.space_dim > 0
    assert any(not dec.checks.central_part_is_central.ok for dec, _ in vr.verdicts)
    assert all(dec.checks.exact_sum for dec, _ in vr.verdicts)


def test_randomized_roundtrip_gf101():
    rng = random.Random(20240809)
    t2 = gma("upper_triangular", GF101, s=1, t=1)
    d7 = gma("upper_triangular", GF101, s=2, t=1)
    for g in (t2, d7):
        ex = G.extremal_exists(g)
        adm = ex.offdiag_annihilator
        dm, dn = g.context.m_dim, g.context.n_dim
        for _ in range(10):
            if adm.dim:
                coeffs = [rng.randrange(101) for _ in range(adm.dim)]
                vec = g.field.vec_zero(dm + dn)
                for c, row in zip(coeffs, adm.basis):
                    vec = g.field.vec_add(vec, g.field.vec_scale(c, row))
                seed = g.embed_m(vec[:dm]) + g.embed_n(vec[dm:])
            else:
                seed = g.algebra.zero
            kappa = G.build_extremal(g, seed, 3)
            psi = random_central_map(g, 3, rng)
            phi = kappa.add(psi)
            dec = G.decompose(g, phi)
            assert dec.checks.exact_sum
            if seed.is_zero:
                assert dec.checks.seed_is_central
            else:
                assert dec.seed.coords == seed.coords
                assert dec.extremal_part == kappa
