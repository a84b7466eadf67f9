"""The seeded change of basis keeps contexts valid and every dimension fixed."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gmalg as G  # noqa: E402
from gmalg.fileformat import context_from_dict, context_to_dict  # noqa: E402
from inputs import change_basis, inverse, random_change  # noqa: E402


def _dims(ctx):
    g = G.assemble(ctx, validate=False)
    alg = g.algebra
    return {
        "center": G.center(alg).dim,
        "derivations": G.derivation_space(alg).dim,
        "lie_derivations": G.lie_derivation_space(alg).dim,
        "n2": len(G.n_lie_derivation_space(g, 2)),
        "extremal": G.extremal_exists(g).solution.dim,
        "hypotheses": [G.check_hypotheses(g, v).all_pass for v in ("4.1", "4.3")],
    }


@pytest.mark.parametrize("field", ["q", "gf:101"])
@pytest.mark.parametrize("kind,sizes", [("full_matrix", {"r": 2}),
                                        ("upper_triangular", {"s": 1, "t": 1})])
@pytest.mark.parametrize("seed", [1, 2])
def test_change_of_basis_preserves_validity_and_dimensions(field, kind, sizes, seed):
    stock = G.generate_builtin(kind, G.FieldSpec.from_name(field), **sizes)
    spec = context_to_dict(stock)
    moved = change_basis(spec, f"{seed}:{kind}")
    assert moved != spec
    ctx = context_from_dict(moved)
    assert G.validate_context(ctx).ok
    assert _dims(ctx) == _dims(stock)


def test_change_is_seeded():
    spec = context_to_dict(G.generate_builtin("full_matrix", G.FieldSpec.rationals(), r=3))
    assert change_basis(spec, "a") == change_basis(spec, "a")
    assert change_basis(spec, "a") != change_basis(spec, "b")


@pytest.mark.parametrize("k", [1, 2, 5])
def test_change_matrix_is_invertible_over_q_and_mod_101(k):
    import random
    mat = random_change(random.Random(k), k)
    inv = inverse(mat)
    for i in range(k):
        for j in range(k):
            assert sum(mat[i][t] * inv[t][j] for t in range(k)) == (i == j)
    det = 1
    for i in range(k):
        det *= mat[i][i]
    assert det % 101
