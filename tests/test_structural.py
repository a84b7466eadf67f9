"""Structural matrix algebras R_rho with a Peirce split: T_m, every split of
a quasi-order on two or three points, and a seeded sample on four."""

import random
from itertools import chain, combinations, product

import pytest

import gmalg as G
from gmalg.decompose import verify_decomposition
from gmalg.gma import structural_context

from helpers import GF7, GF101, Q


def triangular(field, m):
    """T_m, the upper triangular m x m matrices, split after its first m - 1
    points: A = T_(m-1), M = the last column above the corner, N = 0."""
    return structural_context(field, [(i, j) for i in range(m) for j in range(i, m)],
                              m - 1)


def quasi_orders(r):
    """Every reflexive and transitive relation on r points."""
    off = [(i, j) for i in range(r) for j in range(r) if i != j]
    for bits in product((False, True), repeat=len(off)):
        rho = {(i, i) for i in range(r)} | {p for p, b in zip(off, bits) if b}
        if all((i, l) in rho for i, j in rho for k, l in rho if j == k):
            yield rho


def peirce_splits(r):
    """(relation, split) for every quasi-order on r points and every proper
    nonempty point set S, the points relabelled so that S comes first."""
    for rho in quasi_orders(r):
        for size in range(1, r):
            for inside in combinations(range(r), size):
                order = [*inside, *(p for p in range(r) if p not in inside)]
                label = {p: k for k, p in enumerate(order)}
                yield {(label[i], label[j]) for i, j in rho}, size


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_t3_has_one_extremal_basis_map_with_its_seed_in_m(field):
    ctx = triangular(field, 3)
    assert G.validate_context(ctx).ok
    assert ctx.dims == (3, 2, 0, 1)
    g = G.assemble(ctx)
    rep = verify_decomposition(g, 3)
    assert rep.space_dim == 28
    assert rep.theorem_applicable
    assert rep.failures == ()
    extremal = [i for i, (dec, _) in enumerate(rep.verdicts) if dec.extremal_part.entries]
    assert extremal == [27]
    lo, hi = g.offsets[1], g.offsets[2]
    seed = rep.verdicts[27][0].seed.coords
    assert any(seed[lo:hi]) and not any(seed[:lo]) and not any(seed[hi:])


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_t3_extremal_witness_is_e13(field):
    g = G.assemble(triangular(field, 3))
    ex = G.extremal_exists(g)
    assert ex.exists
    m, n = ex.witness
    assert m.coords == tuple(field.one if i == 3 else field.zero for i in range(g.dim))
    assert n.is_zero


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_t4_space_at_arity_3_is_m_cubed_plus_one(field):
    g = G.assemble(triangular(field, 4))
    assert len(G.n_lie_derivation_space(g, 3)) == 4 ** 3 + 1


def split_counts(field, pairs):
    """(splits, valid, applicable, failing, extremal) over (relation, split)
    pairs: how many validate, how many pass a ruleset, how many fail a
    per-map check of verify at n = 3, and how many of the applicable ones
    have a basis map with a nonzero extremal part."""
    splits = valid = applicable = failing = extremal = 0
    for relation, split in pairs:
        splits += 1
        ctx = structural_context(field, relation, split)
        if not G.validate_context(ctx).ok:
            continue
        valid += 1
        rep = verify_decomposition(G.assemble(ctx, validate=False), 3)
        applicable += rep.theorem_applicable
        failing += bool(rep.failures)
        extremal += rep.theorem_applicable and any(
            dec.extremal_part.entries for dec, _ in rep.verdicts)
    return splits, valid, applicable, failing, extremal


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
def test_one_dimensional_centers_of_the_splits_are_spanned_by_the_unit(field):
    """Over every split on 2 and 3 points and the seeded sample on 4, each
    valid one whose center has dimension 1 has Z(G) = k 1, and the torsion
    check passes there with no reason. 3 of the 88 valid ones, all on 4
    points, have a center of dimension 2."""
    sample = random.Random(1).sample(list(peirce_splits(4)), 250)
    dims = []
    for relation, split in chain(peirce_splits(2), peirce_splits(3), sample):
        ctx = structural_context(field, relation, split)
        if not G.validate_context(ctx).ok:
            continue
        alg = G.assemble(ctx, validate=False).algebra
        z = G.center(alg)
        if z.dim == 1:
            assert z == G.Subspace.span(field, alg.dim, [list(alg.unit)])
            assert G.torsion_action_check(alg) == G.CheckStatus("pass")
        dims.append(z.dim)
    assert (dims.count(1), dims.count(2), len(dims)) == (85, 3, 88)


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
def test_peirce_splits_on_two_and_three_points(field):
    """`split_counts` over every split on 2 and 3 points."""
    splits = chain(peirce_splits(2), peirce_splits(3))
    assert split_counts(field, splits) == (182, 46, 36, 0, 12)


def test_seeded_sample_of_peirce_splits_on_four_points():
    """`split_counts` over q on a seeded sample of 250 of the 4970 splits on
    4 points. The sample is drawn before validation: validating every
    split takes about 14 s."""
    splits = list(peirce_splits(4))
    assert len(splits) == 4970
    sample = random.Random(1).sample(splits, 250)
    assert split_counts(Q, sample) == (250, 42, 26, 0, 12)
