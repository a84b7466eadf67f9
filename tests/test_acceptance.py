"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every assertion is exact; the printed timings are checked against the
criterion budgets.
"""

import random
import time
from contextlib import contextmanager

import gmalg as G

from helpers import (GF7, GF101, Q, all_derivations_inner, condition,
                     contains_subspace, corpus_algebras, corpus_contexts,
                     extremal_linear_conditions, inner_derivation_space,
                     link_violations, linked_image,
                     maps_span, matrix_algebra,
                     n_lie_derivation_space_direct, perturb_context,
                     perturbation_sites, random_central_map,
                     swap_identity_check)


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"ACCEPTANCE {num} ({label}): FAIL [{dt:.2f}s]")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit_s
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num} ({label}): {verdict} [{dt:.2f}s, limit {limit_s}s]")
    assert ok, f"criterion {num} took {dt:.2f}s, budget {limit_s}s"


def gma(kind, field, **kw):
    return G.assemble(G.generate_builtin(kind, field, **kw), validate=False)


def test_criterion_1_context_validation_and_fuzz():
    with criterion(1, "corpus validation + perturbation fuzz", 5.0):
        rng = random.Random(0xFA11)
        for name, ctx in corpus_contexts(Q):
            assert G.validate_context(ctx).ok, name
            sites = perturbation_sites(ctx)
            for _ in range(50):
                site = sites[rng.randrange(len(sites))]
                broken = perturb_context(ctx, site)
                rep = G.validate_context(broken)
                assert not rep.ok, f"{name}: {site} accepted"
                assert rep.first is not None, f"{name}: {site} lacks witness"


def test_criterion_2_structure_dimensions():
    with criterion(2, "structure dimensions vs direct kernel", 10.0):
        m3q = matrix_algebra(Q, 3)
        assert G.center(m3q).dim == 1
        m2q = matrix_algebra(Q, 2)
        assert G.derivation_space(m2q).dim == 3
        m3f = matrix_algebra(GF7, 3)
        assert G.derivation_space(m3f).dim == 8
        assert all_derivations_inner(m2q)
        assert all_derivations_inner(m3q)
        assert all_derivations_inner(matrix_algebra(GF7, 2))
        assert all_derivations_inner(m3f)
        block = gma("upper_triangular", Q, s=2, t=1)
        assert G.center(block.algebra).dim == 1


def test_criterion_3_hypothesis_checker():
    with criterion(3, "hypothesis checker on stock instances", 10.0):
        m3 = gma("full_matrix", Q, r=3)
        for variant in ("4.1", "4.3"):
            rep = G.check_hypotheses(m3, variant)
            assert rep.all_pass, (variant, rep.conditions)
        block = gma("upper_triangular", Q, s=2, t=1)
        assert G.check_hypotheses(block, "4.1").all_pass
        t2 = gma("upper_triangular", Q, s=1, t=1)
        rep = G.check_hypotheses(t2, "4.1")
        cond2 = condition(rep, 2)
        assert cond2.status == "fail"
        wit_a, wit_b = cond2.witness
        assert not wit_a.is_zero and not wit_b.is_zero


def test_criterion_4_end_to_end_decomposition():
    with criterion(4, "full 3-Lie spaces decompose with central remainder", 300.0):
        for g, triangular in ((gma("upper_triangular", Q, s=2, t=1), True),
                              (gma("full_matrix", GF7, r=3), False)):
            space = G.n_lie_derivation_space(g, 3)
            assert space, "space unexpectedly empty"
            assert G.check_hypotheses(g, "4.1").all_pass
            for mmap in space:
                dec = G.decompose(g, mmap)
                assert dec.checks.exact_sum
                assert dec.checks.seed_annihilates_commutators
                assert dec.checks.central_part_is_central.ok, \
                    dec.checks.central_part_is_central.witness
                if triangular:
                    value = mmap.evaluate([g.e] * 3)
                    assert (g.f * value * g.e).is_zero
                    want = g.e * value * g.f
                    assert dec.seed.coords == want.coords


def test_criterion_5_slot_restriction_vs_brute_force():
    with criterion(5, "slot restriction equals dense kernel on T2", 30.0):
        t2 = gma("upper_triangular", Q, s=1, t=1)
        for n in (2, 3):
            slot = G.n_lie_derivation_space(t2, n)
            direct = n_lie_derivation_space_direct(t2, n)
            assert (maps_span(Q, n, t2.dim, slot)
                    == maps_span(Q, n, t2.dim, direct)), n


def test_criterion_6_extremal_existence_equivalence():
    with criterion(6, "annihilator equals linear existence conditions", 10.0):
        results = {}
        for name, g in corpus_algebras(Q):
            ex = G.extremal_exists(g)
            assert ex.solution == extremal_linear_conditions(g), name
            results[name] = ex
        t2 = results["t2"]
        assert t2.exists and t2.solution.dim == 1
        m0, n0 = t2.witness
        g_t2 = dict(corpus_algebras(Q))["t2"]
        assert m0.coords == g_t2.embed_m([1]).coords and n0.is_zero
        assert not results["full_matrix_3"].exists
        assert not results["zero_pairing_2_1"].exists


def test_criterion_7_randomized_decomposition_roundtrip():
    with criterion(7, "100 randomized GF(101) decomposition trials", 60.0):
        rng = random.Random(0xD15C)
        instances = [gma("upper_triangular", GF101, s=1, t=1),
                     gma("upper_triangular", GF101, s=2, t=1)]
        admissible = {id(g): G.extremal_exists(g).offdiag_annihilator
                      for g in instances}
        trials = 0
        for g in instances:
            adm = admissible[id(g)]
            dm, dn = g.context.m_dim, g.context.n_dim
            for _ in range(50):
                if adm.dim:
                    coeffs = [rng.randrange(101) for _ in range(adm.dim)]
                    vec = g.field.vec_zero(dm + dn)
                    for c, row in zip(coeffs, adm.basis):
                        vec = g.field.vec_add(vec, g.field.vec_scale(c, row))
                    seed = g.embed_m(vec[:dm]) + g.embed_n(vec[dm:])
                else:
                    seed = g.algebra.zero
                kappa = G.build_extremal(g, seed, 3)
                phi = kappa.add(random_central_map(g, 3, rng))
                dec = G.decompose(g, phi)
                assert dec.checks.exact_sum
                if seed.is_zero:
                    assert dec.checks.seed_is_central
                    assert dec.extremal_part.is_zero
                else:
                    assert dec.seed.coords == seed.coords
                    assert dec.extremal_part == kappa
                trials += 1
        assert trials == 100


def test_criterion_8_biderivation_bracket_identity():
    with criterion(8, "exchange identity on 2-Lie derivation spaces", 30.0):
        for g in (gma("upper_triangular", Q, s=1, t=1),
                  gma("full_matrix", GF7, r=2)):
            space = G.n_lie_derivation_space(g, 2)
            assert space
            for mmap in space:
                res = swap_identity_check(g, mmap)
                assert res.ok, res.witness


def test_criterion_9_link_and_pierce_invariants():
    with criterion(9, "idempotent, linking and inclusion invariants", 5.0):
        for name, g in corpus_algebras(Q):
            e, f = g.e, g.f
            assert (e + f).coords == g.algebra.unit, name
            assert (e * e).coords == e.coords and (f * f).coords == f.coords
            assert (e * f).is_zero and (f * e).is_zero
            cd = G.center_data(g)
            assert cd.a_part.dim == cd.center_g.dim, name
            assert cd.b_part.dim == cd.center_g.dim, name
            # the linking map, re-derived through the matrix: it links the
            # actions on both modules and is multiplicative
            fld = g.field
            assert link_violations(g, cd) == [], name
            for x in cd.a_part.basis:
                for y in cd.a_part.basis:
                    prod = g.context.a.mul_coords(list(x), list(y))
                    assert cd.a_part.contains(prod), name
                    bx = linked_image(fld, cd, x)
                    by = linked_image(fld, cd, y)
                    assert (linked_image(fld, cd, prod)
                            == g.context.b.mul_coords(bx, by)), name
            alg = g.algebra
            inner = inner_derivation_space(alg)
            der = G.derivation_space(alg)
            lie = G.lie_derivation_space(alg)
            assert contains_subspace(der, inner), name
            assert contains_subspace(lie, der), name
            assert inner.dim == g.dim - G.center(alg).dim, name
