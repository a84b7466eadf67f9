"""`BilinearTable` views against the bilinear map they are read from.

For random x and y, the rows with x fixed applied to y, and the rows with y
fixed applied to x, must both give T(x, y) as computed by
`BilinearTable.apply`. The int view must be the constants times one positive
factor (1 over GF(p)). The tables are the multiplication and bracket tables
of assembled algebras and the six context tables, all rewritten in a seeded
basis so the constants are dense and not 0/1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmalg as G

from helpers import GF101, Q, change_of_basis

INSTANCES = [
    ("t2", "upper_triangular", dict(s=1, t=1)),
    ("ut21", "upper_triangular", dict(s=2, t=1)),
    ("m2", "full_matrix", dict(r=2)),
    ("zp11", "zero_pairing", dict(s=1, t=1)),
]
CONTEXT_TABLES = ("act_am", "act_mb", "act_bn", "act_na", "pair_mn", "pair_nm")
TABLES = ["mul", "bracket"] + list(CONTEXT_TABLES)


def table_of(field, kind, kw, which):
    ctx = change_of_basis(G.generate_builtin(kind, field, **kw), f"view:{kind}")
    if which in CONTEXT_TABLES:
        return getattr(ctx, which)
    alg = G.assemble(ctx, validate=False).algebra
    return alg.mul if which == "mul" else alg.bracket_table


scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def vectors(field, n):
    return st.lists(scalars, min_size=n, max_size=n).map(
        lambda xs: [field.of(x) for x in xs])


def applied(field, row, vec):
    return field.of(sum(c * vec[i] for i, c in row.items()))


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES, ids=[i[0] for i in INSTANCES])
@pytest.mark.parametrize("which", TABLES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_rows_reproduce_apply(field, name, kind, kw, which, data):
    table = table_of(field, kind, kw, which)
    x = data.draw(vectors(field, table.left_dim))
    y = data.draw(vectors(field, table.right_dim))
    want = table.apply(field, x, y)
    by_left = table.operator_rows(field, left=x)
    by_right = table.operator_rows(field, right=y)
    assert len(by_left) == len(by_right) == table.out_dim
    for t in range(table.out_dim):
        assert applied(field, by_left[t], y) == want[t]
        assert applied(field, by_right[t], x) == want[t]
    for rows, free in ((by_left, table.right_dim), (by_right, table.left_dim)):
        for row in rows:
            assert all(0 <= i < free for i in row)
            assert all(c and c == field.of(c) for c in row.values())


@pytest.mark.parametrize("field", [Q, GF101], ids=["q", "gf101"])
@pytest.mark.parametrize("name,kind,kw", INSTANCES, ids=[i[0] for i in INSTANCES])
@pytest.mark.parametrize("which", TABLES)
def test_int_view_is_one_positive_multiple(field, name, kind, kw, which):
    table = table_of(field, kind, kw, which)
    view = table.int_entries
    assert view is table.int_entries
    assert ([[k for k, _ in cell] for cell in view]
            == [[k for k, _ in cell] for cell in table.entries])
    pairs = [(c, x) for cell, icell in zip(table.entries, view)
             for (_, c), (_, x) in zip(cell, icell)]
    assert all(type(x) is int for _, x in pairs)
    if field.p is not None:
        assert all(x == c for c, x in pairs)
    else:
        scales = {x / c for c, x in pairs}
        assert len(scales) <= 1 and all(s > 0 for s in scales)
