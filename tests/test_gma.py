"""Morita context validation, assembly, Pierce splitting, builtins."""

import random
from itertools import product

import pytest

import gmalg as G
from gmalg.algebra_core import span_cells
from gmalg.fileformat import context_from_dict, context_to_dict
from gmalg.gma import BUILTIN_KINDS, builtin_dims

from helpers import (GF7, Q, assemble_element, basis_element, change_of_basis,
                     corpus_contexts, matrix_algebra,
                     perturb_context, perturbation_sites, pierce_project)


def test_full_matrix_context_valid():
    ctx = G.generate_builtin("full_matrix", Q, r=3)
    assert G.validate_context(ctx).ok


def test_negated_pairing_breaks_diagram():
    ctx = G.generate_builtin("full_matrix", Q, r=3)
    data = context_to_dict(ctx)
    data["pair_mn"] = [[i, j, k, str(-Q.of(c))] for i, j, k, c in data["pair_mn"]]
    broken = context_from_dict(data)
    rep = G.validate_context(broken)
    assert not rep.ok
    assert any(v.law == "diagram-mnm" for v in rep.violations)


def test_triangular_context_valid():
    ctx = G.generate_builtin("upper_triangular", Q, s=1, t=1)
    assert G.validate_context(ctx).ok


def test_zero_pairing_context_valid():
    ctx = G.generate_builtin("zero_pairing", Q, s=2, t=1)
    rep = G.validate_context(ctx)
    assert rep.ok
    g = G.assemble(ctx, validate=False)
    a, b = g.context.a, g.context.b
    assert span_cells(g.field, a.dim, g.context.pair_mn.entries).dim == 0
    assert span_cells(g.field, b.dim, g.context.pair_nm.entries).dim == 0


def test_zero_m_rejected():
    ctx = G.generate_builtin("upper_triangular", Q, s=1, t=1)
    data = context_to_dict(ctx)
    data["blocks"]["m_dim"] = 0
    data["act_a_m"] = []
    data["act_m_b"] = []
    data["pair_mn"] = []
    broken = context_from_dict(data)
    rep = G.validate_context(broken)
    assert not rep.ok
    assert rep.first.law == "m-nonzero"


def test_assemble_full_matrix_3_dim_and_validity():
    g = G.assemble(G.generate_builtin("full_matrix", GF7, r=3))
    assert g.dim == 9
    assert G.validate_algebra(g.algebra).ok


def test_assembled_full_matrix_isomorphic_to_direct_m3():
    """Map block basis onto matrix units and transport all products."""
    g = G.assemble(G.generate_builtin("full_matrix", Q, r=3), validate=False)
    m3 = matrix_algebra(Q, 3)
    # block order: A (E11), M rows (E12, E13), N cols (E21, E31), B (E22..E33)
    to_unit = {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (1, 0), 4: (2, 0),
               5: (1, 1), 6: (1, 2), 7: (2, 1), 8: (2, 2)}

    def image(idx):
        i, j = to_unit[idx]
        return basis_element(m3, i * 3 + j)

    def transport(coords):
        out = m3.zero
        for idx, c in enumerate(coords):
            if c:
                out = out + image(idx).scale(c)
        return out

    for i in range(9):
        for j in range(9):
            block = g.algebra.mul_coords(
                list(basis_element(g.algebra, i).coords),
                list(basis_element(g.algebra, j).coords))
            assert transport(block).coords == (image(i) * image(j)).coords


def test_idempotents():
    for _, ctx in corpus_contexts(Q):
        g = G.assemble(ctx, validate=False)
        e, f = g.e, g.f
        assert (e * e).coords == e.coords
        assert (f * f).coords == f.coords
        assert (e * f).is_zero and (f * e).is_zero
        assert (e + f).coords == g.algebra.unit


def test_assemble_triangular_dim_7():
    g = G.assemble(G.generate_builtin("upper_triangular", Q, s=2, t=1))
    assert g.dim == 7
    assert g.context.dims == (4, 2, 0, 1)


def test_assemble_rejects_invalid():
    ctx = G.generate_builtin("full_matrix", Q, r=2)
    broken = perturb_context(ctx, ("pair_mn", 0, 0, 0))
    with pytest.raises(G.InvalidContextError):
        G.assemble(broken)


def test_pierce_of_idempotents():
    g = G.assemble(G.generate_builtin("full_matrix", Q, r=3), validate=False)
    parts = pierce_project(g, g.e)
    assert parts.a == g.context.a.unit
    assert not any(parts.m) and not any(parts.n) and not any(parts.b)
    parts = pierce_project(g, g.algebra.one)
    assert parts.a == g.context.a.unit
    assert parts.b == g.context.b.unit


def test_pierce_reassembles_random_elements():
    """e x e, e x f, f x e and f x f are the A, M, N and B blocks of x.

    Checked over q and gf:7 on the corpus and on three changes of basis, in
    which e is not a basis vector: code downstream of validation reads the
    blocks off the coordinates instead of multiplying by e and f.
    """
    rng = random.Random(17)
    for field in (Q, GF7):
        corpus = corpus_contexts(field)
        moved = [(f"{name}-moved", change_of_basis(ctx, f"pierce:{name}"))
                 for name, ctx in corpus
                 if name in ("full_matrix_3", "upper_2_1", "zero_pairing_2_1")]
        for name, ctx in corpus + moved:
            g = G.assemble(ctx)
            e, f = g.e, g.f
            if name.endswith("-moved"):
                assert any(c not in (0, 1) for c in e.coords), name
            bounds = list(zip(g.offsets, (*g.offsets[1:], g.dim)))
            corners = ((e, e), (e, f), (f, e), (f, f))
            for _ in range(20):
                x = g.algebra.element([rng.randint(-3, 3) for _ in range(g.dim)])
                parts = pierce_project(g, x)
                back = assemble_element(g, parts.a, parts.m, parts.n, parts.b)
                assert back.coords == x.coords, name
                for (lo, hi), (left, right) in zip(bounds, corners):
                    block = [c if lo <= i < hi else 0 for i, c in enumerate(x.coords)]
                    assert ((left * x * right).coords
                            == g.algebra.element(block).coords), (field.name, name)


def test_block_multiplication_matches_formula():
    """Assembled products agree with the four-component block rule."""
    rng = random.Random(29)
    ctx = G.generate_builtin("full_matrix", GF7, r=3)
    g = G.assemble(ctx, validate=False)
    f = g.field
    for _ in range(15):
        x = g.algebra.element([rng.randrange(7) for _ in range(9)])
        y = g.algebra.element([rng.randrange(7) for _ in range(9)])
        xp = pierce_project(g, x)
        yp = pierce_project(g, y)
        a = f.vec_add(ctx.a.mul_coords(xp.a, yp.a),
                      ctx.pair_mn.apply(f, xp.m, yp.n))
        m = f.vec_add(ctx.act_am.apply(f, xp.a, yp.m),
                      ctx.act_mb.apply(f, xp.m, yp.b))
        n = f.vec_add(ctx.act_na.apply(f, xp.n, yp.a),
                      ctx.act_bn.apply(f, xp.b, yp.n))
        b = f.vec_add(ctx.pair_nm.apply(f, xp.n, yp.m),
                      ctx.b.mul_coords(xp.b, yp.b))
        want = assemble_element(g, a, m, n, b)
        assert (x * y).coords == want.coords


def test_faithfulness_rejected_when_violated():
    """A is too big for M: scalars acting on M = k via only one coordinate."""
    two_dim_a = G.StructureAlgebra.build(
        Q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)], [1, 0])
    # a = (x, y) acts on M = k through x only; the second component kills M
    ctx = G.MoritaContext(
        a=two_dim_a, b=matrix_algebra(Q, 1), m_dim=1, n_dim=0,
        act_am=G.BilinearTable.from_quadruples(Q, 2, 1, 1, [(0, 0, 0, 1)]),
        act_mb=G.BilinearTable.from_quadruples(Q, 1, 1, 1, [(0, 0, 0, 1)]),
        act_bn=G.BilinearTable.zero(1, 0, 0),
        act_na=G.BilinearTable.zero(0, 2, 0),
        pair_mn=G.BilinearTable.zero(1, 0, 2),
        pair_nm=G.BilinearTable.zero(0, 1, 1),
    )
    rep = G.validate_context(ctx)
    assert any(v.law == "m-left-faithful" for v in rep.violations)


def test_builtin_argument_guards():
    with pytest.raises(ValueError):
        G.generate_builtin("full_matrix", Q, r=1)
    with pytest.raises(ValueError):
        G.generate_builtin("upper_triangular", Q, s=0, t=1)
    with pytest.raises(ValueError):
        G.generate_builtin("nonsense", Q, s=1, t=1)
    with pytest.raises(ValueError):
        G.FieldSpec.from_name("gf:2")


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_builtin_dims_are_the_generated_dims(kind):
    """`gmalg gen` budgets a spec by these dimensions before building it."""
    for r, s, t in ((2, 1, 1), (3, 2, 1), (4, 1, 3)):
        ctx = G.generate_builtin(kind, GF7, r=r, s=s, t=t)
        assert builtin_dims(kind, r=r, s=s, t=t) == ctx.dims
    with pytest.raises(ValueError):
        builtin_dims(kind, r=1, s=0, t=1)


def test_lower_triangular_canonicalizes():
    low = G.generate_builtin("lower_triangular", Q, s=2, t=1)
    up = G.generate_builtin("upper_triangular", Q, s=1, t=2)
    assert context_to_dict(low) == context_to_dict(up)
    assert G.validate_context(low).ok


def test_corpus_perturbations_all_rejected():
    rng = random.Random(41)
    for name, ctx in corpus_contexts(Q):
        sites = perturbation_sites(ctx)
        for _ in range(10):
            site = sites[rng.randrange(len(sites))]
            broken = perturb_context(ctx, site)
            rep = G.validate_context(broken)
            assert not rep.ok, f"{name}: perturbation at {site} not caught"
            assert rep.first is not None


# The law of the assembled algebra that each context law is: a block triple
# for associativity, "1X" and "X1" for the unit laws on block X.
BLOCK_LAW = {
    "A-left-unit": "1A", "A-right-unit": "A1", "A-associativity": "AAA",
    "B-left-unit": "1B", "B-right-unit": "B1", "B-associativity": "BBB",
    "unit-acts-m": "1M", "m-acts-unit": "M1", "unit-acts-n": "1N", "n-acts-unit": "N1",
    "m-left-assoc": "AAM", "n-right-assoc": "NAA", "m-right-assoc": "MBB",
    "n-left-assoc": "BBN", "m-bimodule": "AMB", "n-bimodule": "BNA",
    "pair-mn-left-linear": "AMN", "pair-mn-right-linear": "MNA",
    "pair-mn-balance": "MBN", "pair-nm-left-linear": "BNM",
    "pair-nm-right-linear": "NMB", "pair-nm-balance": "NAM",
    "diagram-mnm": "MNM", "diagram-nmn": "NMN",
}


def broken_block_laws(g):
    """The BLOCK_LAW words of the laws the assembled algebra breaks, from
    dense products on every basis element and triple."""
    alg, f = g.algebra, g.field
    block = "".join(x * d for x, d in zip("AMNB", g.context.dims))
    basis = [f.unit(alg.dim, i) for i in range(alg.dim)]
    prod = [[alg.mul_coords(x, y) for y in basis] for x in basis]
    broken = set()
    for i, x in enumerate(basis):
        if alg.mul_coords(alg.unit, x) != x:
            broken.add("1" + block[i])
        if alg.mul_coords(x, alg.unit) != x:
            broken.add(block[i] + "1")
    for i, j, k in product(range(alg.dim), repeat=3):
        if alg.mul_coords(prod[i][j], basis[k]) != alg.mul_coords(basis[i], prod[j][k]):
            broken.add(block[i] + block[j] + block[k])
    return broken


def test_context_laws_are_the_assembled_algebra_laws():
    """A context law other than faithfulness fails exactly when the assembled
    algebra fails validate_algebra, and, below every cap, on exactly the
    block triples and unit laws where the assembled algebra fails."""
    faithful = {"m-left-faithful", "m-right-faithful"}
    rng = random.Random(8)
    for field in (Q, GF7):
        for name, stock in corpus_contexts(field):
            for ctx in (stock, change_of_basis(stock, rng.randrange(1000))):
                assert G.validate_algebra(G.assemble(ctx).algebra).ok, name
                sites = perturbation_sites(ctx)
                for site in rng.sample(sites, min(20, len(sites))):
                    broken = perturb_context(ctx, site, rng.choice((1, -1, 2)))
                    rep = G.validate_context(broken)
                    laws = {v.law for v in rep.violations} - faithful
                    g = G.assemble(broken, validate=False)
                    where = (name, field.name, site)
                    assert bool(laws) == (not G.validate_algebra(g.algebra).ok), where
                    if len(rep.violations) < 16:
                        assert {BLOCK_LAW[law] for law in laws} == broken_block_laws(g), where
