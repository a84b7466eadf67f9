"""Multilinear map predicates and n-Lie derivation space computation."""

import random
from fractions import Fraction
from itertools import product

import pytest

import gmalg as G
from gmalg.fileformat import map_from_dict, map_to_dict
from gmalg.multilinear import (_leibniz_predicate, _lie_basis_columns,
                               _slot_block_rows)

from helpers import (GF7, GF101, Q, basis_element, change_of_basis,
                     corpus_contexts, is_normalized, map_from_basis_function,
                     maps_span, n_lie_derivation_space_direct, naive_rref,
                     quotient_coordinates, random_central_map,
                     swap_identity_check)
from test_algebra_core import dual_numbers


def gma(kind, field, **kw):
    return G.assemble(G.generate_builtin(kind, field, **kw), validate=False)


def trace_power_map(g, n):
    """(x_1, ..., x_n) -> prod tr-like(x_k) . I, a centrally valued map.

    Uses the quotient coordinate that is 1 on diagonal basis elements, so it
    kills every commutator class.
    """
    alg = g.algebra
    f = alg.field
    lam, _ = quotient_coordinates(g)
    unit = alg.unit

    def fn(key):
        w = f.one
        for i in key:
            w = f.mul(w, sum(lam[i]))
            if not w:
                break
        return [f.mul(w, c) for c in unit]

    return map_from_basis_function(alg, n, fn)


def test_zero_map_evaluates_to_zero():
    g = gma("upper_triangular", Q, s=1, t=1)
    zero = G.MultilinearMap.zero(Q, 3, 3)
    assert zero.evaluate([g.e, g.f, g.e]).is_zero


def test_extremal_evaluation_on_idempotents():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    assert kappa.evaluate([g.e] * 3).coords == g.embed_m([1]).coords


def test_evaluation_multilinear_in_each_slot():
    rng = random.Random(31)
    g = gma("full_matrix", GF7, r=2)
    kappa = trace_power_map(g, 3)
    for _ in range(10):
        x, x2, y, z = (g.algebra.element([rng.randrange(7) for _ in range(4)])
                       for _ in range(4))
        left = kappa.evaluate([x + x2, y, z])
        split = kappa.evaluate([x, y, z]) + kappa.evaluate([x2, y, z])
        assert left.coords == split.coords


def test_is_n_lie_derivation_accepts_extremal():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    assert G.is_n_lie_derivation(g, kappa).ok


def test_is_n_lie_derivation_accepts_trace_cube():
    g = gma("full_matrix", GF7, r=3)
    assert G.is_n_lie_derivation(g, trace_power_map(g, 3)).ok


def test_is_n_lie_derivation_rejects_triple_product():
    g = gma("full_matrix", Q, r=2)
    alg = g.algebra

    def fn(key):
        i, j, k = key
        a = alg.mul_coords(list(basis_element(alg, i).coords),
                           list(basis_element(alg, j).coords))
        return alg.mul_coords(a, list(basis_element(alg, k).coords))

    triple = map_from_basis_function(alg, 3, fn)
    res = G.is_n_lie_derivation(g, triple)
    assert not res.ok
    assert res.witness is not None
    assert 0 <= res.witness.slot < 3


def test_is_n_derivation_extremal_true_trace_false():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    assert G.is_n_derivation(g, kappa).ok
    m3 = gma("full_matrix", Q, r=3)
    res = G.is_n_derivation(m3, trace_power_map(m3, 3))
    assert not res.ok
    zero = G.MultilinearMap.zero(Q, 3, m3.dim)
    assert G.is_n_derivation(m3, zero).ok


def test_extremal_on_t2_is_permuting_on_idempotent_slots():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 3)
    e, f = g.e, g.f
    assert kappa.evaluate([e, f, e]).coords == kappa.evaluate([f, e, e]).coords


def test_is_centrally_valued():
    m3 = gma("full_matrix", Q, r=3)
    assert G.is_centrally_valued(m3, trace_power_map(m3, 3)).ok
    t2 = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(t2, t2.embed_m([1]), 3)
    res = G.is_centrally_valued(t2, kappa)
    assert not res.ok and res.witness is not None
    assert G.is_centrally_valued(t2, G.MultilinearMap.zero(Q, 3, 3)).ok


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
def test_is_centrally_valued_matches_center_membership(field):
    """The int annihilator test against `Subspace.contains`, value by value.

    The maps are the n = 2 solver maps, their decomposition remainders and
    random centrally valued maps on the corpus and its dense rewrites, each
    also with one coordinate of one value bumped.
    """
    rng = random.Random(f"central:{field.name}")
    outcomes = set()
    for name, ctx in corpus_contexts(field):
        for ctx in (ctx, change_of_basis(ctx, name)):
            g = G.assemble(ctx, validate=False)
            z = G.center(g.algebra)
            maps = [random_central_map(g, 2, rng)]
            for m in G.n_lie_derivation_space(g, 2):
                maps += [m, G.decompose(g, m).central_part]
            for m in list(maps):
                if m.entries:
                    key = rng.choice(sorted(m.entries))
                    vec = list(m.value_at(key))
                    t = rng.randrange(g.dim)
                    vec[t] = field.add(vec[t], field.of(rng.choice((1, -2, 3))))
                    values = {k: m.value_at(k) for k in m.entries}
                    maps.append(G.MultilinearMap.from_entries(
                        field, 2, g.dim, {**values, key: vec}))
            for m in maps:
                expected = next((key for key in sorted(m.entries)
                                 if not z.contains(m.value_at(key))), None)
                res = G.is_centrally_valued(g, m)
                assert res.witness == expected
                assert res.ok == (expected is None)
                outcomes.add(res.ok)
    assert outcomes == {False, True}


def test_swap_identity_on_bilie_space_t2():
    g = gma("upper_triangular", Q, s=1, t=1)
    for mmap in G.n_lie_derivation_space(g, 2):
        assert swap_identity_check(g, mmap).ok
    zero = G.MultilinearMap.zero(Q, 2, 3)
    assert swap_identity_check(g, zero).ok


def test_swap_identity_holds_for_inner_biderivation():
    """(x, y) -> [x, y] is a Lie biderivation and must satisfy the identity.

    This pins the bracket arrangement: the commonly misquoted variant with
    [x, v] in the third term fails on M2 for exactly this map.
    """
    g = gma("full_matrix", Q, r=2)
    alg = g.algebra

    def fn(key):
        i, j = key
        return alg.bracket_coords(list(basis_element(alg, i).coords),
                                  list(basis_element(alg, j).coords))

    inner = map_from_basis_function(alg, 2, fn)
    assert G.is_n_lie_derivation(g, inner).ok
    assert swap_identity_check(g, inner).ok


def test_swap_identity_rejects_random_tensor():
    g = gma("full_matrix", Q, r=2)
    bad = G.MultilinearMap.from_entries(Q, 2, 4, {(1, 2): [0, 1, 0, 0]})
    res = swap_identity_check(g, bad)
    assert not res.ok
    assert len(res.witness) == 4


def test_swap_identity_requires_arity_2():
    g = gma("upper_triangular", Q, s=1, t=1)
    with pytest.raises(G.DimensionMismatchError):
        swap_identity_check(g, G.MultilinearMap.zero(Q, 3, 3))


def test_slot_restriction_matches_direct_t2():
    g = gma("upper_triangular", Q, s=1, t=1)
    for n in (2, 3):
        slot = G.n_lie_derivation_space(g, n)
        direct = n_lie_derivation_space_direct(g, n)
        assert (maps_span(Q, n, 3, slot)
                == maps_span(Q, n, 3, direct))


def test_slot_restriction_matches_direct_m2_gf7():
    g = gma("full_matrix", GF7, r=2)
    for n in (2, 3):
        slot = G.n_lie_derivation_space(g, n)
        direct = n_lie_derivation_space_direct(g, n)
        assert (maps_span(GF7, n, 4, slot)
                == maps_span(GF7, n, 4, direct))


@pytest.mark.parametrize("field", [Q, GF101], ids=lambda f: f.name)
@pytest.mark.parametrize("kind, kw", [
    ("upper_triangular", dict(s=1, t=1)),
    ("full_matrix", dict(r=2)),
    ("zero_pairing", dict(s=1, t=1)),
], ids=["t2", "m2", "zp11"])
def test_slot_restriction_matches_direct_on_dense_constants(field, kind, kw):
    """Seeded changes of basis give constants like 2, -1/2, 1/3 (over q),
    so the denominator scaling of the slot rows is exercised. At n = 4 two
    later-slot stages run on the sparse coefficient vectors. The basis is
    pinned, not only its span: the maps' coefficients on the Lie derivation
    basis are already in RREF, which fails if a materialized value misses
    the common denominator of the Lie basis columns."""
    ctx = change_of_basis(G.generate_builtin(kind, field, **kw),
                          f"slot:{kind}:{field.name}")
    g = G.assemble(ctx, validate=True)
    scalar = Fraction if field.p is None else int
    for n in (2, 3, 4):
        slot = G.n_lie_derivation_space(g, n)
        assert slot
        assert all(type(x) is scalar
                   for m in slot for key in m.entries for x in m.value_at(key))
        assert all(is_normalized(m) for m in slot)
        direct = n_lie_derivation_space_direct(g, n)
        assert (maps_span(field, n, g.dim, slot)
                == maps_span(field, n, g.dim, direct))
        coeffs = lie_coefficient_rows(g, slot)
        assert coeffs == naive_rref(field, coeffs, len(coeffs[0]))[0]


def lie_coefficient_rows(g, maps):
    """Each map's coefficients c[a * spect + J] on the Lie derivation basis
    {D_a}: for spectator rank J, the coordinates in L of the slice
    x_1 -> m(x_1, J), flattened as D[t * d + x_1]."""
    L = G.lie_derivation_space(g.algebra)
    d = g.dim
    rows = []
    for m in maps:
        per_spect = []
        for rest in product(range(d), repeat=m.arity - 1):
            coords = L.coordinates_of([m.value_at((x,) + rest)[t]
                                       for t in range(d) for x in range(d)])
            assert coords is not None
            per_spect.append(coords)
        rows.append([c for cs in zip(*per_spect) for c in cs])
    return rows


@pytest.mark.parametrize("kind, kw, field, dim", [
    ("upper_triangular", dict(s=1, t=1), Q, 64),
    ("upper_triangular", dict(s=1, t=1), GF101, 64),
    ("full_matrix", dict(r=2), Q, 1),
    ("full_matrix", dict(r=2), GF101, 1),
    ("zero_pairing", dict(s=1, t=1), GF101, 96),
], ids=["t2-q", "t2-gf101", "m2-q", "m2-gf101", "zp11-gf101"])
def test_slot_restriction_matches_direct_at_arity_5(kind, kw, field, dim):
    """No arity cap: the budgets admit n = 5 on d <= 4."""
    g = gma(kind, field, **kw)
    slot = G.n_lie_derivation_space(g, 5)
    assert len(slot) == dim
    direct = n_lie_derivation_space_direct(g, 5)
    assert (maps_span(field, 5, g.dim, slot)
            == maps_span(field, 5, g.dim, direct))


def test_space_elements_pass_predicate_dim7():
    g = gma("upper_triangular", Q, s=2, t=1)
    space = G.n_lie_derivation_space(g, 3)
    assert space
    for mmap in space:
        assert G.is_n_lie_derivation(g, mmap).ok


def test_commutative_algebra_space_is_everything():
    alg = dual_numbers(Q)
    space = G.n_lie_derivation_space(alg, 2)
    assert len(space) == 2 ** 3
    for mmap in space:
        assert G.is_n_lie_derivation(alg, mmap).ok


def test_n_derivation_implies_n_lie_derivation():
    g = gma("upper_triangular", Q, s=1, t=1)
    kappa = G.build_extremal(g, g.embed_m([1]), 2)
    assert G.is_n_derivation(g, kappa).ok
    assert G.is_n_lie_derivation(g, kappa).ok


def test_budget_guard_on_predicates(monkeypatch):
    monkeypatch.setenv("GMALG_BUDGET", "10")
    g = gma("full_matrix", GF7, r=3)
    with pytest.raises(G.BudgetExceededError):
        G.is_n_lie_derivation(g, G.MultilinearMap.zero(GF7, 3, 9))
    with pytest.raises(G.BudgetExceededError):
        G.n_lie_derivation_space(g, 3)


def test_space_arity_bounds():
    g = gma("upper_triangular", Q, s=1, t=1)
    with pytest.raises(G.DimensionMismatchError):
        G.n_lie_derivation_space(g, 1)
    # refused by the budget before 3 ** n is formed
    with pytest.raises(G.BudgetExceededError):
        G.n_lie_derivation_space(g, 10 ** 30)


def test_arity_4_space_t2():
    g = gma("upper_triangular", Q, s=1, t=1)
    space = G.n_lie_derivation_space(g, 4)
    assert space
    for mmap in space[:3]:
        assert G.is_n_lie_derivation(g, mmap).ok



@pytest.mark.parametrize("field", [Q, GF101], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [5, 6, 7])
def test_space_of_ut21_has_dimension_two_to_the_n(n, field, monkeypatch):
    """The triangular corollary at the frontier: dim nLie_n(ut(2,1)) = 2^n,
    and every basis map splits without a failure.

    The default budget refuses these (19208 unknowns at n = 5); at n = 5 the
    final canonical span is 32 rows over those 19208 columns.
    """
    monkeypatch.setenv("GMALG_BUDGET", "10000000")
    g = gma("upper_triangular", field, s=2, t=1)
    space = G.n_lie_derivation_space(g, n)
    assert len(space) == 2 ** n
    assert all(st.ok for st in _leibniz_predicate(g, space, lie=True))
    report = G.verify_decomposition(g, n)
    assert report.space_dim == 2 ** n
    assert report.failures == ()


@pytest.mark.parametrize("field", [Q, GF101], ids=lambda f: f.name)
def test_one_map_one_record(field):
    """A map is the same normalized record however it is built: by the
    solver, from its field values, from any nonzero multiple of its ints
    over the same multiple of its den, and as m + k - k. A map file
    document survives a load and a write unchanged."""
    ctx = change_of_basis(G.generate_builtin("upper_triangular", field, s=1, t=1),
                          f"record:{field.name}")
    g = G.assemble(ctx, validate=True)
    d = g.dim
    space = G.n_lie_derivation_space(g, 3)
    assert space
    if field.p is None:
        assert any(m.den > 1 for m in space)
    k = G.MultilinearMap.from_entries(field, 3, d, {(0, 1, 2): [Fraction(1, 7)] * d})
    for m in space:
        assert is_normalized(m)
        values = {key: m.value_at(key) for key in m.entries}
        assert G.MultilinearMap.from_entries(field, 3, d, values) == m
        scaled = {key: tuple(-6 * x for x in vec) for key, vec in m.entries.items()}
        assert G.MultilinearMap.from_ints(field, 3, d, scaled, -6 * m.den) == m
        assert m.add(k).sub(k) == m
        assert m.add(space[0]).sub(space[0]) == m
        assert m.sub(m) == G.MultilinearMap.zero(field, 3, d)
        doc = map_to_dict(m)
        assert map_to_dict(map_from_dict(doc, field, d)) == doc

def test_evaluate_guards():
    g = gma("upper_triangular", Q, s=1, t=1)
    mm = G.MultilinearMap.zero(Q, 2, 3)
    with pytest.raises(G.DimensionMismatchError):
        mm.evaluate([g.e])
    other = gma("full_matrix", Q, r=2)
    with pytest.raises(G.FieldMismatchError):
        mm.evaluate([g.e, other.e])


# ---------------------------------------------------------------------------
# the later-slot block as membership in the Lie derivation space L
# ---------------------------------------------------------------------------


def seeded_zero_pairing(field, s, t):
    ctx = change_of_basis(G.generate_builtin("zero_pairing", field, s=s, t=t),
                          f"membership:{s}{t}:{field.name}")
    return G.assemble(ctx, validate=True)


@pytest.mark.parametrize("field", [Q, GF101], ids=lambda f: f.name)
@pytest.mark.parametrize("s, t, dim", [(2, 2, 5), (2, 1, 5)],
                         ids=["zp22", "zp21"])
def test_slot_solver_matches_direct_at_arity_2_on_seeded_zero_pairing(
        field, s, t, dim):
    """The solver against the dense oracle, and every map of the space
    against the hand-written batched predicate, which does not go through
    `leibniz_rows`."""
    g = seeded_zero_pairing(field, s, t)
    slot = G.n_lie_derivation_space(g, 2)
    assert len(slot) == dim
    direct = n_lie_derivation_space_direct(g, 2)
    assert (maps_span(field, 2, g.dim, slot)
            == maps_span(field, 2, g.dim, direct))
    assert all(st.ok for st in _leibniz_predicate(g, slot, lie=True))


def test_slot_block_has_at_most_d_rows_per_annihilator_row_of_l():
    """d (d^2 - dim L) rows on seeded q zp(2,2), where the Leibniz law
    written per slot-1 element, bracket pair and output has d^4 / 2."""
    alg = seeded_zero_pairing(Q, 2, 2).algebra
    d, ell = alg.dim, G.lie_derivation_space(alg).dim
    den, icols = _lie_basis_columns(alg)
    assert (d, ell, len(icols)) == (16, 18, 18)
    assert den > 1
    rows = _slot_block_rows(alg, icols)
    assert 0 < len(rows) <= d * (d * d - ell) == 3808
    assert all(type(x) is int for row in rows for x in row.values())


def test_lie_basis_columns_are_the_lie_basis_times_one_factor():
    for field in (Q, GF101):
        alg = seeded_zero_pairing(field, 2, 1).algebra
        d, L = alg.dim, G.lie_derivation_space(alg)
        den, icols = _lie_basis_columns(alg)
        assert field.p is None or den == 1
        for flat, cols in zip(L.basis, icols, strict=True):
            assert [[Fraction(x, den) for x in col] for col in cols] == [
                [flat[t * d + i] for t in range(d)] for i in range(d)]
