"""Field arithmetic, elimination, kernels and subspace calculus."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmalg as G
from gmalg.exact_linear import _is_prime, rref
from gmalg.fileformat import decode_scalar
from gmalg.multilinear import _lie_basis_columns, _slot_block_rows
from gmalg.structure_analysis import leibniz_rows

from helpers import (GF7, GF101, Q, change_of_basis, corpus_contexts,
                     dense_kernel_basis, inverse, mat_vec, naive_rref, reduce)

FIELDS = (Q, GF7, GF101)


def test_field_names_round_trip():
    assert G.FieldSpec.from_name("q") == Q
    assert G.FieldSpec.from_name("gf:7") == GF7
    assert Q.name == "q"
    assert GF7.name == "gf:7"


def test_field_rejects_two_and_composites():
    with pytest.raises(ValueError):
        G.FieldSpec(2)
    with pytest.raises(ValueError):
        G.FieldSpec(9)
    with pytest.raises(ValueError):
        G.FieldSpec.from_name("gf:15")


# 399165290221 * 798330580441: a strong pseudoprime to the first twelve
# primes, and the least one, so Miller-Rabin to those bases is exact below it.
PSEUDOPRIME_12 = 318665857834031151167461


def test_field_refuses_moduli_where_primality_is_not_exact():
    assert PSEUDOPRIME_12 == 399165290221 * 798330580441
    for p in (PSEUDOPRIME_12, PSEUDOPRIME_12 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(PSEUDOPRIME_12)):
            G.FieldSpec(p)
    assert G.FieldSpec(2 ** 61 - 1).p == 2 ** 61 - 1


def test_is_prime_is_exact_on_small_numbers_and_pseudoprimes():
    sieve = [True] * 3000
    sieve[0] = sieve[1] = False
    for i in range(2, 3000):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 3000, i))
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if sieve[n]]
    # the least strong pseudoprime to the first nine (and eleven) prime bases
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)


def test_scalar_coercion():
    assert Q.of("3/2") == Fraction(3, 2)
    assert Q.of(-2) == Fraction(-2)
    assert GF7.of(10) == 3
    assert GF7.of("-1") == 6
    assert GF7.of(Fraction(1, 2)) == 4  # 2 * 4 = 1 mod 7


def test_gf_coercion_refuses_denominator_divisible_by_p():
    for field, value in ((G.FieldSpec(3), Fraction(1, 3)),
                         (GF101, Fraction(5, 101)), (GF7, Fraction(-3, 14))):
        with pytest.raises(ZeroDivisionError):
            field.of(value)
        with pytest.raises(G.SpecFileError):
            decode_scalar(field, value)
    assert G.FieldSpec(3).of(Fraction(3, 2)) == 0


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_gf7_field_axioms(a, b, c):
    a, b, c = GF7.of(a), GF7.of(b), GF7.of(c)
    assert GF7.add(a, b) == GF7.add(b, a)
    assert GF7.mul(GF7.add(a, b), c) == GF7.add(GF7.mul(a, c), GF7.mul(b, c))
    assert GF7.add(a, GF7.neg(a)) == 0
    if a:
        assert GF7.mul(a, inverse(GF7, a)) == 1


def kernel_space(field, rows, ncols):
    """The null space of a matrix, given by its rows, as a canonical subspace."""
    return G.Subspace.span(field, ncols, G.kernel_basis(field, ncols, rows))


def rank(field, rows, ncols):
    return len(rref(field, rows, ncols)[1])


def test_kernel_identity_is_zero():
    assert kernel_space(Q, [[1, 0], [0, 1]], 2).dim == 0


def test_kernel_rank_one():
    k = kernel_space(Q, [[1, 1], [1, 1]], 2)
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_unit_mod_7():
    assert kernel_space(GF7, [[2]], 1).dim == 0


def test_kernel_vectors_annihilate_random_q():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        k = kernel_space(Q, m, cols)
        for v in k.basis:
            assert all(x == 0 for x in mat_vec(Q, m, v))
        assert rank(Q, m, cols) + k.dim == cols


def test_rank_nullity_random_gf7():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(7) for _ in range(cols)] for _ in range(rows)]
        assert rank(GF7, m, cols) + kernel_space(GF7, m, cols).dim == cols


def test_fraction_free_rref_matches_naive_oracle():
    rng = random.Random(23)
    for field in FIELDS:
        cases = []
        for _ in range(60):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            if field.p is None:
                data = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                         for _ in range(cols)] for _ in range(rows)]
            else:
                data = [[rng.randrange(field.p) if rng.random() < 0.6 else 0
                         for _ in range(cols)] for _ in range(rows)]
                # a combination of two rows keeps some systems rank-deficient
                data.append([field.add(a, field.mul(3, b))
                             for a, b in zip(data[0], data[-1])])
            cases.append((data, cols))
        # sparse and wide, with one dependent row
        for _ in range(40):
            rows = rng.randrange(1, 11)
            cols = rng.randrange(1, 31)
            if field.p is None:
                entry = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                                         rng.randint(1, 6))
            else:
                entry = lambda: rng.randrange(1, field.p)
            data = [[entry() if rng.random() < 0.15 else field.zero
                     for _ in range(cols)] for _ in range(rows)]
            a, b = rng.choice(data), rng.choice(data)
            data.insert(rng.randrange(len(data) + 1),
                        [field.add(x, field.mul(entry(), y)) for x, y in zip(a, b)])
            cases.append((data, cols))
        for data, cols in cases:
            check_rref_matches_naive(field, data, cols)


def check_rref_matches_naive(field, rows, ncols):
    """The same rows and pivots as the naive oracle: each sparse int row over
    its scale is the naive row, and `Subspace.span` holds the naive rows."""
    got_rows, got_piv = rref(field, rows, ncols)
    want_rows, want_piv = naive_rref(field, dense_rows(field, rows, ncols), ncols)
    assert got_piv == want_piv
    assert len(got_rows) == len(want_rows)
    for (scale, row), pc, want in zip(got_rows, got_piv, want_rows):
        assert type(scale) is int and scale > 0
        assert all(type(x) is int and x for x in row.values())
        assert row[pc] == scale
        if field.p is not None:
            assert scale == 1
        assert row == {i: x * scale for i, x in enumerate(want) if x}
    span = G.Subspace.span(field, ncols, dense_rows(field, rows, ncols))
    assert [list(r) for r in span.basis] == [list(r) for r in want_rows]
    scalar = Fraction if field.p is None else int
    assert all(type(x) is scalar for r in span.basis for x in r)


def wide_low_rank_system(rng, field, nrows, ncols, rank):
    """`nrows` rows over `ncols` columns spanning a space of dim <= `rank`.

    Sparse base rows, every row a random combination of them, as dense
    lists or as dicts: the shape of the final canonical span of the n-Lie
    solver (few rows over many columns, mostly zero).
    """
    if field.p is None:
        entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    else:
        entry = lambda: rng.randrange(field.p)
    base = [[entry() if rng.random() < 0.05 else field.zero
             for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = field.vec_zero(ncols)
        for b in rng.sample(base, rng.randint(1, rank)):
            row = field.vec_add(row, field.vec_scale(field.of(rng.randint(-3, 3)), b))
        rows.append(row)
    if rng.random() < 0.5:
        rows = [{k: x for k, x in enumerate(row) if x} for row in rows]
    return rows


def dense_rows(field, rows, ncols):
    return [[row.get(k, field.zero) for k in range(ncols)]
            if isinstance(row, dict) else row for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rref_matches_naive_oracle_on_wide_low_rank_systems(field):
    """At most 10 rows over 100-900 columns, and full-rank square systems,
    where the kernel empties and elimination stops early."""
    rng = random.Random(f"wide:{field.name}")
    cases = []
    for _ in range(12):
        ncols = rng.randint(100, 900)
        rows = wide_low_rank_system(rng, field, rng.randint(1, 10), ncols,
                                    rng.randint(1, 4))
        cases.append((rows, ncols))
    for size in (1, 2, 5, 9):
        while True:
            rows = [[field.of(rng.randint(-5, 5)) for _ in range(size)]
                    for _ in range(size)]
            if len(naive_rref(field, rows, size)[1]) == size:
                break
        # a trailing row after the kernel has emptied is never read
        cases.append((rows + [rows[0]], size))
    for rows, ncols in cases:
        check_rref_matches_naive(field, rows, ncols)


def test_rref_pivots_are_the_columns_kernel_basis_eliminates():
    """`rref` rests on this: its pivots are the non-free columns of the
    kernel basis. A kernel vector's free column is its last nonzero entry,
    where every other kernel vector is 0."""
    rng = random.Random(31)
    for field in FIELDS:
        for _ in range(40):
            ncols = rng.randint(1, 40)
            rows = wide_low_rank_system(rng, field, rng.randint(1, 12), ncols,
                                        rng.randint(1, 8))
            ker = G.kernel_basis(field, ncols, rows)
            free = [max(j for j, x in enumerate(v) if x) for v in ker]
            assert free == sorted(set(free))
            for v, s in zip(ker, free):
                assert all(not w[s] for w in ker if w is not v)
            _, pivots = rref(field, rows, ncols)
            assert pivots == [c for c in range(ncols) if c not in free]


def test_rows_take_scalars_as_field_of_does():
    """A row entry means what `FieldSpec.of` makes of it, with its refusals."""
    # 1/2 = 4 in GF(7): the 1 x 1 system has rank 1 and no kernel
    assert G.kernel_basis(GF7, 1, [[Fraction(1, 2)]]) == []
    assert rref(GF7, [[Fraction(1, 2)]], 1) == ([(1, {0: 1})], [0])
    # 3/2 = 5 in GF(7), so [5, 1] has the kernel spanned by [4, 1] = 4 [1, 2]
    ker = G.kernel_basis(GF7, 2, [{0: Fraction(3, 2), 1: 1}])
    assert ker == [[4, 1]]
    assert G.Subspace.span(GF7, 2, ker) == G.Subspace.span(GF7, 2, [[1, 2]])
    assert G.Subspace.span(GF7, 2, [[Fraction(3, 2), 1]]).basis == ((1, 3),)
    assert G.kernel_basis(Q, 2, [["1/2", 1]]) == [[-2, 1]]
    for field, value, error in ((GF7, Fraction(1, 7), ZeroDivisionError),
                                (GF7, 0.5, TypeError), (Q, 0.5, TypeError),
                                (Q, 0.0, TypeError)):
        with pytest.raises(error):
            G.kernel_basis(field, 2, [[value, 1]])
        with pytest.raises(error):
            rref(field, [{1: value}], 2)
        with pytest.raises(error):
            G.Subspace.span(field, 2, [[1, value]])


@st.composite
def linear_systems(draw):
    """A random (field, ncols, rows) system, often rank-deficient.

    Rows are dense or sparse, given as lists or as dicts.
    """
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 7))
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalar = st.integers(0, field.p - 1)
    if draw(st.booleans()):  # sparse rows
        scalar = st.one_of(st.just(field.zero), st.just(field.zero), scalar)
    rows = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                         max_size=7))
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                           st.integers(-3, 3)), max_size=3)):
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append([field.add(x, field.mul(field.of(c), y))
                         for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows = [{k: x for k, x in enumerate(row) if x} for row in rows]
    return field, ncols, rows


@st.composite
def tall_low_rank_systems(draw):
    """Many rows spanning a low-rank space, with independent rows late.

    The first stretch repeats (and combines) a few base rows, so most rows
    are dependent while the running basis is still large; the remaining
    base rows arrive among the last rows.
    """
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(2, 9))
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalar = st.integers(0, field.p - 1)
    scalar = st.one_of(st.just(field.zero), scalar)
    base = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                         min_size=2, max_size=ncols))
    early = draw(st.integers(1, len(base) - 1))
    picks = st.tuples(st.integers(0, early - 1), st.integers(0, early - 1),
                      st.integers(-2, 2))
    rows = []
    for i, j, c in draw(st.lists(picks, min_size=20, max_size=60)):
        rows.append([field.add(x, field.mul(field.of(c), y))
                     for x, y in zip(base[i], base[j])])
    late = base[early:]
    for row in late:
        rows.insert(len(rows) - draw(st.integers(0, len(late))), row)
    if draw(st.booleans()):
        rows = [{k: x for k, x in enumerate(row) if x} for row in rows]
    return field, ncols, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_systems())
def test_kernel_basis_form(system):
    check_kernel_form(*system)
    check_equals_dense_core(*system)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tall_low_rank_systems())
def test_kernel_basis_form_tall_low_rank(system):
    check_kernel_form(*system)
    check_equals_dense_core(*system)


@pytest.mark.parametrize("field", [Q, GF101], ids=lambda f: f.name)
@pytest.mark.parametrize("name", [name for name, _ in corpus_contexts(Q)])
def test_kernel_basis_equals_dense_core_on_leibniz_systems(field, name):
    """The Lie-derivation system and the slot block of a dense instance."""
    ctx = change_of_basis(dict(corpus_contexts(field))[name], f"kernel:{name}")
    alg = G.assemble(ctx, validate=False).algebra
    d = alg.dim
    _, icols = _lie_basis_columns(alg)
    for ncols, rows in ((d * d, leibniz_rows(alg, lie=True)),
                        (len(icols) * d, _slot_block_rows(alg, icols))):
        assert check_equals_dense_core(field, ncols, rows)


def check_equals_dense_core(field, ncols, rows):
    """The same int vectors, in the same order, as the dense running basis."""
    ker = G.kernel_basis(field, ncols, rows)
    assert ker == dense_kernel_basis(field, ncols, rows)
    assert all(type(x) is int for v in ker for x in v)
    return ker


def check_kernel_form(field, ncols, rows):
    """Kernel size, membership, one free column per vector, exact form."""
    dense = dense_rows(field, rows, ncols)
    ker = G.kernel_basis(field, ncols, rows)
    assert len(ker) == ncols - len(naive_rref(field, dense, ncols)[1])
    for v in ker:
        assert len(v) == ncols
        for row in dense:
            acc = field.zero
            for a, x in zip(row, v):
                acc = field.add(acc, field.mul(field.of(a), x))
            assert acc == 0
    for k, v in enumerate(ker):
        others = [w for o, w in enumerate(ker) if o != k]
        # each vector owns a free column where every other vector is 0
        own = [j for j in range(ncols) if v[j] and not any(w[j] for w in others)]
        assert own
        if field.p is None:
            assert all(type(x) is int for x in v)
            assert gcd(*(x.numerator for x in v)) == 1
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in v)
            assert any(v[j] == 1 for j in own)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(linear_systems(), st.lists(st.integers(-3, 3), max_size=8))
def test_combine_is_the_scaled_sum(system, coeffs):
    field, ncols, rows = system
    vecs = dense_rows(field, rows, ncols)
    coeffs = [field.of(c) for c in coeffs]
    want = field.vec_zero(ncols)
    for c, v in zip(coeffs, vecs):
        want = field.vec_add(want, field.vec_scale(c, v))
    got = field.combine(coeffs, vecs, ncols)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_subspace_canonical_under_row_operations():
    rng = random.Random(3)
    basis = [[1, 2, 0, 1], [0, 1, 1, 1]]
    s = G.Subspace.span(Q, 4, basis)
    for _ in range(20):
        shuffled = [list(map(Fraction, row)) for row in basis]
        # random invertible row operations
        c = Fraction(rng.randint(-3, 3))
        shuffled[0] = [a + c * b for a, b in zip(shuffled[0], shuffled[1])]
        if rng.random() < 0.5:
            shuffled.reverse()
        scale = Fraction(rng.choice([1, 2, 3, -1]))
        shuffled[0] = [scale * a for a in shuffled[0]]
        assert G.Subspace.span(Q, 4, shuffled) == s


def test_subspace_dim_formula_random_gf7():
    rng = random.Random(5)
    for _ in range(30):
        amb = rng.randrange(1, 6)
        sv = [[rng.randrange(7) for _ in range(amb)]
              for _ in range(rng.randrange(0, 4))]
        tv = [[rng.randrange(7) for _ in range(amb)]
              for _ in range(rng.randrange(0, 4))]
        s = G.Subspace.span(GF7, amb, sv)
        t = G.Subspace.span(GF7, amb, tv)
        # x = sum a_i s_i = sum b_j t_j: the kernel of [S | -T], read on S
        rows = [[x[k] for x in s.basis] + [GF7.neg(y[k]) for y in t.basis]
                for k in range(amb)]
        inter = G.Subspace.span(GF7, amb, [
            GF7.combine(combo[:s.dim], s.basis, amb)
            for combo in G.kernel_basis(GF7, s.dim + t.dim, rows)])
        total = G.Subspace.span(GF7, amb, s.basis + t.basis)
        assert s.dim + t.dim == total.dim + inter.dim
        for v in inter.basis:
            assert s.contains(v) and t.contains(v)


def test_contains_and_coordinates():
    s = G.Subspace.span(Q, 3, [[1, 0, 2], [0, 1, 1]])
    assert s.contains([1, 1, 3])
    assert not s.contains([0, 0, 1])
    coords = s.coordinates_of([2, 3, 7])
    assert coords == [Fraction(2), Fraction(3)]


@pytest.mark.parametrize("field", [Q, GF7], ids=lambda f: f.name)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_contains_and_coordinates_of_agree_with_dense_reduction(field, data):
    """Membership read off the annihilator rows against the dense residual,
    on a member of a random span, on that member moved off the span along a
    column no basis row leads, and on a random vector."""
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalar = st.integers(0, field.p - 1)
    scalar = st.one_of(st.just(field.zero), scalar)
    n = data.draw(st.integers(1, 7))
    vectors = data.draw(st.lists(st.lists(scalar, min_size=n, max_size=n),
                                 max_size=n + 1))
    s = G.Subspace.span(field, n, vectors)
    coeffs = data.draw(st.lists(scalar, min_size=len(vectors),
                                max_size=len(vectors)))
    member = field.combine(coeffs, vectors, n)
    samples = [(member, True), (data.draw(st.lists(scalar, min_size=n,
                                                   max_size=n)), None)]
    free = [j for j in range(n) if j not in s.pivot_columns]
    if free:
        shift = field.unit(n, data.draw(st.sampled_from(free)))
        samples.append((field.vec_add(member, shift), False))
    for vec, expected in samples:
        inside = not any(reduce(s, vec))
        assert expected in (None, inside)
        assert s.contains(vec) == inside
        coords = s.coordinates_of(vec)
        if inside:
            assert field.combine(coords, s.basis, n) == [field.of(x) for x in vec]
        else:
            assert coords is None


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_preimage_rows_cut_out_the_preimage(field, data):
    """{x : A x in S} against the dense residual `reduce(S, A x)` and
    against dim ker A + dim(S ∩ im A), with ranks from the naive RREF.

    S is spanned by random combinations of fewer base vectors, or is 0 or
    the whole space; A has random op rows, some of them empty.
    """
    if field.p is None:
        scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalar = st.integers(0, field.p - 1)
    scalar = st.one_of(st.just(field.zero), scalar)
    m = data.draw(st.integers(1, 6))  # S's ambient space, A's output
    n = data.draw(st.integers(1, 6))  # A's input
    kind = data.draw(st.sampled_from(["zero", "whole", "span"]))
    if kind == "zero":
        vectors = []
    elif kind == "whole":
        vectors = [field.unit(m, i) for i in range(m)]
    else:
        base = data.draw(st.lists(st.lists(scalar, min_size=m, max_size=m),
                                  min_size=1, max_size=m))
        vectors = [field.combine(data.draw(st.lists(scalar, min_size=len(base),
                                                    max_size=len(base))), base, m)
                   for _ in range(len(base) + 1)]
    s = G.Subspace.span(field, m, vectors)
    dense = [data.draw(st.lists(scalar, min_size=n, max_size=n))
             if data.draw(st.booleans()) else field.vec_zero(n) for _ in range(m)]
    op_rows = [{u: c for u, c in enumerate(row) if c} for row in dense]

    rows = s.preimage_rows(op_rows)
    assert all(rows) and len(rows) <= len(s.annihilator)
    ker = G.kernel_basis(field, n, rows)
    for x in ker:
        assert not any(reduce(s, mat_vec(field, dense, x)))

    def rank(vecs, ncols):
        return len(naive_rref(field, vecs, ncols)[1])

    image = [list(col) for col in zip(*dense)]
    rank_a = rank(dense, n)
    meet = s.dim + rank_a - rank(list(s.basis) + image, m)
    assert len(ker) == (n - rank_a) + meet


@pytest.mark.parametrize("vec", [[1, 2], [1, 2, 0, 0]], ids=["short", "long"])
def test_coordinates_of_refuses_a_vector_of_another_length(vec):
    s = G.Subspace.span(Q, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(G.DimensionMismatchError):
        s.contains(vec)
    with pytest.raises(G.DimensionMismatchError):
        s.coordinates_of(vec)


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_kernel_property_hypothesis(rows):
    k = kernel_space(Q, rows, 3)
    for v in k.basis:
        assert all(x == 0 for x in mat_vec(Q, rows, v))
    assert rank(Q, rows, 3) + k.dim == 3
