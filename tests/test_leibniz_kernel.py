"""Leibniz predicates on instances with dense, non-0/1 structure constants.

The stock corpus has 0/1 constants only. Here each instance is rewritten in a
seeded block-diagonal basis (constants like 2, -1/2, 1/3 over q), and the
predicates are checked against two independent oracles: membership in the
span of the dense-kernel n-Lie space (for n = 1, the derivation or
Lie-derivation space), and a brute-force scan of the law on basis elements
through `MultilinearMap.evaluate` and element products. One pass of the
predicate over a batch of maps must give each map the status a pass over that
map alone gives.
"""

import importlib
import random
from itertools import product

import pytest

import gmalg as G
from gmalg.multilinear import _leibniz_predicate

from helpers import (GF101, Q, basis_element, change_of_basis, flatten,
                     maps_span, n_lie_derivation_space_direct)

INSTANCES = [
    ("t2", "upper_triangular", dict(s=1, t=1)),
    ("m2", "full_matrix", dict(r=2)),
    ("zp11", "zero_pairing", dict(s=1, t=1)),
]


def dense_gma(kind, field, **kw):
    ctx = change_of_basis(G.generate_builtin(kind, field, **kw),
                          f"{kind}:{field.name}")
    return G.assemble(ctx, validate=True)


def violates(g, mmap, witness, lie):
    """True iff the law fails at the witness, evaluated on elements."""
    alg = g.algebra
    prod = alg.bracket if lie else alg.multiply
    b_u = basis_element(alg, witness.args[witness.slot])
    b_v = basis_element(alg, witness.partner)

    def at(x):
        args = [basis_element(alg, i) for i in witness.args]
        args[witness.slot] = x
        return mmap.evaluate(args)

    lhs = at(prod(b_u, b_v))
    rhs = prod(at(b_u), b_v) + prod(b_u, at(b_v))
    return lhs.coords != rhs.coords


def first_violation(g, mmap, lie):
    """First failing (slot, tuple, partner) in the predicate's loop order."""
    d, n = g.dim, mmap.arity
    for slot in range(n):
        for rest in product(range(d), repeat=n - 1):
            for u in range(d):
                for v in range(u + 1, d) if lie else range(d):
                    args = list(rest)
                    args.insert(slot, u)
                    w = G.LeibnizWitness(slot, tuple(args), v)
                    if violates(g, mmap, w, lie):
                        return w
    return None


def single_entry_perturbations(mmap, rng, count):
    """Copies of mmap with one coordinate of one tuple value bumped."""
    f, d, n = mmap.field, mmap.dim, mmap.arity
    out = []
    for _ in range(count):
        key = tuple(rng.randrange(d) for _ in range(n))
        vec = list(mmap.value_at(key))
        t = rng.randrange(d)
        vec[t] = f.add(vec[t], f.of(rng.choice((1, -2, 3))))
        entries = {k: mmap.value_at(k) for k in mmap.entries}
        entries[key] = vec
        out.append(G.MultilinearMap.from_entries(f, n, d, entries))
    return out


def test_change_of_basis_gives_dense_valid_contexts():
    for _, kind, kw in INSTANCES:
        stock = G.generate_builtin(kind, Q, **kw)
        ctx = change_of_basis(stock, 3)
        assert G.validate_context(ctx).ok
        consts = [c for t in (ctx.a.mul, ctx.b.mul, ctx.act_am, ctx.act_mb,
                              ctx.act_bn, ctx.act_na, ctx.pair_mn, ctx.pair_nm)
                  for *_, c in t.quadruples()]
        consts += [c for c in ctx.a.unit + ctx.b.unit if c]
        assert any(c not in (0, 1) for c in consts)
        assert {2, 3} <= {c.denominator for c in consts}
        g0 = G.assemble(stock, validate=False)
        g1 = G.assemble(ctx, validate=False)
        assert (len(G.n_lie_derivation_space(g0, 2))
                == len(G.n_lie_derivation_space(g1, 2)))


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES,
                         ids=[i[0] for i in INSTANCES])
@pytest.mark.parametrize("n", [2, 3])
def test_lie_predicate_matches_direct_space(field, name, kind, kw, n):
    g = dense_gma(kind, field, **kw)
    basis = G.n_lie_derivation_space(g, n)
    span = maps_span(field, n, g.dim, n_lie_derivation_space_direct(g, n))
    rng = random.Random(f"{name}:{field.name}:{n}")
    maps = list(basis)
    for m in basis:
        maps += single_entry_perturbations(m, rng, 3)
    failures = 0
    for m in maps:
        res = G.is_n_lie_derivation(g, m)
        assert res.ok == span.contains(flatten(m))
        if not res.ok:
            failures += 1
            assert violates(g, m, res.witness, lie=True)
    assert failures > 0


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES,
                         ids=[i[0] for i in INSTANCES])
@pytest.mark.parametrize("lie", [False, True], ids=["assoc", "lie"])
def test_arity_one_predicate_matches_derivation_space(field, name, kind, kw, lie):
    """n = 1: the predicate against the kernel of `leibniz_rows(alg, lie)`."""
    g = dense_gma(kind, field, **kw)
    d = g.dim
    space = (G.lie_derivation_space if lie else G.derivation_space)(g.algebra)
    pred = G.is_n_lie_derivation if lie else G.is_n_derivation

    def as_map(flat):
        """D[t*d+s], the coefficient of b_t in D(b_s), as an arity-1 map."""
        return G.MultilinearMap.from_entries(
            field, 1, d, {(s,): [flat[t * d + s] for t in range(d)]
                          for s in range(d)})

    def as_flat(mmap):
        return [mmap.value_at((s,))[t] for t in range(d) for s in range(d)]

    rng = random.Random(f"arity1:{name}:{field.name}:{lie}")
    maps = [as_map(flat) for flat in space.basis]
    assert maps
    for m in list(maps):
        maps += single_entry_perturbations(m, rng, 3)
    failures = 0
    for m in maps:
        res = pred(g, m)
        assert res.ok == space.contains(as_flat(m))
        if not res.ok:
            failures += 1
            assert violates(g, m, res.witness, lie)
            assert res.witness == first_violation(g, m, lie)
    assert failures > 0


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES,
                         ids=[i[0] for i in INSTANCES])
def test_witness_is_first_violation(field, name, kind, kw):
    g = dense_gma(kind, field, **kw)
    rng = random.Random(f"first:{name}:{field.name}")
    for n in (2, 3):
        basis = G.n_lie_derivation_space(g, n)
        maps = basis[:2] + [G.MultilinearMap.zero(field, n, g.dim)]
        for m in basis[:2]:
            maps += single_entry_perturbations(m, rng, 2)
        for m in maps:
            for pred, lie in ((G.is_n_lie_derivation, True),
                              (G.is_n_derivation, False)):
                res = pred(g, m)
                assert res.witness == first_violation(g, m, lie)
                assert res.ok == (res.witness is None)


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
def test_n_derivation_accepts_dense_extremal_maps(field):
    g = dense_gma("upper_triangular", field, s=1, t=1)
    seed = g.embed_m([field.of(3)])
    for n in (2, 3):
        kappa = G.build_extremal(g, seed, n)
        assert not kappa.is_zero
        assert G.is_n_derivation(g, kappa).ok
        assert G.is_n_lie_derivation(g, kappa).ok
        for m in single_entry_perturbations(kappa, random.Random(n), 4):
            res = G.is_n_derivation(g, m)
            assert res.witness == first_violation(g, m, lie=False)
            if not res.ok:
                assert violates(g, m, res.witness, lie=False)


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES,
                         ids=[i[0] for i in INSTANCES])
@pytest.mark.parametrize("lie", [False, True], ids=["assoc", "lie"])
def test_batched_statuses_equal_single_map_statuses(field, name, kind, kw, lie):
    g = dense_gma(kind, field, **kw)
    pred = G.is_n_lie_derivation if lie else G.is_n_derivation
    rng = random.Random(f"batch:{name}:{field.name}:{lie}")
    for n in (2, 3):
        # six solver maps keep the brute-force oracle's scans short
        basis = G.n_lie_derivation_space(g, n)[:6]
        maps = basis + [G.MultilinearMap.zero(field, n, g.dim)]
        for m in basis:
            maps += single_entry_perturbations(m, rng, 2)
        rng.shuffle(maps)
        statuses = _leibniz_predicate(g, maps, lie)
        assert len(statuses) == len(maps)
        assert {st.ok for st in statuses} == {False, True}
        for m, st in zip(maps, statuses):
            assert st == pred(g, m)
            assert st.witness == first_violation(g, m, lie)


def test_empty_batch_returns_no_statuses():
    g = dense_gma("upper_triangular", Q, s=1, t=1)
    assert _leibniz_predicate(g, [], lie=True) == []
    assert _leibniz_predicate(g, [], lie=False) == []


def test_batch_of_mixed_arities_or_algebras_is_refused():
    g = dense_gma("upper_triangular", Q, s=1, t=1)
    m2 = G.n_lie_derivation_space(g, 2)[0]
    m3 = G.n_lie_derivation_space(g, 3)[0]
    other = G.MultilinearMap.zero(Q, 2, g.dim + 1)
    for maps in ([m2, m3], [m3, m2], [m2, other]):
        for lie in (False, True):
            with pytest.raises(G.DimensionMismatchError):
                _leibniz_predicate(g, maps, lie)


def test_verify_decomposition_runs_the_predicate_once(monkeypatch):
    g = dense_gma("upper_triangular", Q, s=2, t=1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return _leibniz_predicate(*args, **kwargs)

    # the package's `decompose` attribute is the function, not the module
    for name in ("gmalg.multilinear", "gmalg.decompose"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "_leibniz_predicate", counted)
    report = G.verify_decomposition(g, 3)
    assert report.space_dim == 8 and report.ok
    assert calls == [8]
