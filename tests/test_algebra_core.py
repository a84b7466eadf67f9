"""Structure-constant algebras: products, brackets, validation, spans."""

import random
from fractions import Fraction

import pytest

import gmalg as G

from helpers import GF7, Q, basis_element, matrix_algebra


def dual_numbers(field):
    """k[z]/(z^2): basis {1, z}."""
    return G.StructureAlgebra.build(
        field, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0])


def quadratic_extension(field):
    """k[s]/(s^2 - 2): basis {1, s}."""
    return G.StructureAlgebra.build(
        field, 2,
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 2)], [1, 0])


def t2_algebra(field):
    return G.assemble(G.generate_builtin("upper_triangular", field, s=1, t=1),
                      validate=False).algebra


def test_matrix_unit_product():
    m2 = matrix_algebra(Q, 2)
    e11, e12 = basis_element(m2, 0), basis_element(m2, 1)
    assert (e11 * e12).coords == e12.coords
    assert (e12 * e11).is_zero


def test_unit_law_random():
    m2 = matrix_algebra(GF7, 2)
    rng = random.Random(2)
    for _ in range(20):
        x = m2.element([rng.randrange(7) for _ in range(4)])
        assert (m2.one * x).coords == x.coords
        assert (x * m2.one).coords == x.coords


def test_associativity_random_triples_gf7():
    m2 = matrix_algebra(GF7, 2)
    rng = random.Random(3)
    for _ in range(30):
        x, y, z = (m2.element([rng.randrange(7) for _ in range(4)])
                   for _ in range(3))
        assert ((x * y) * z).coords == (x * (y * z)).coords


def test_bracket_matrix_units():
    m2 = matrix_algebra(Q, 2)
    e11, e12 = basis_element(m2, 0), basis_element(m2, 1)
    assert e11.bracket(e12).coords == e12.coords


def test_bracket_alternating_and_jacobi():
    m2 = matrix_algebra(GF7, 2)
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (m2.element([rng.randrange(7) for _ in range(4)])
                   for _ in range(3))
        assert x.bracket(x).is_zero
        jac = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
               + z.bracket(x.bracket(y)))
        assert jac.is_zero


def test_validate_m3_passes():
    assert G.validate_algebra(matrix_algebra(GF7, 3)).ok


def test_validate_dim1_field_algebra():
    one_dim = G.StructureAlgebra.build(Q, 1, [(0, 0, 0, 1)], [1])
    assert G.validate_algebra(one_dim).ok


def test_validate_perturbed_constants_fail_with_witness():
    m3 = matrix_algebra(GF7, 3)
    quads = m3.mul.quadruples()
    # bump one nonzero constant by +1
    i, j, k, c = quads[4]
    quads[4] = (i, j, k, GF7.add(c, 1))
    broken = G.StructureAlgebra.build(GF7, 9, quads, m3.unit)
    rep = G.validate_algebra(broken)
    assert not rep.ok
    assert rep.first is not None
    assert rep.first.law in ("associativity", "left-unit", "right-unit")


def test_commutator_span_commutative_zero():
    assert G.commutator_span(dual_numbers(Q)).dim == 0
    assert G.is_commutative(dual_numbers(Q))


def test_commutators_computed_once_per_algebra():
    m2 = matrix_algebra(Q, 2)
    assert m2.commutators is m2.commutators
    assert m2.commutators == G.commutator_span(m2)
    assert matrix_algebra(Q, 2).commutators == m2.commutators


def test_commutator_span_m2_is_trace_zero():
    m2 = matrix_algebra(Q, 2)
    span = G.commutator_span(m2)
    # independent oracle: the trace-zero subspace of M2 in E_ij coordinates
    trace_zero = G.Subspace.span(Q, 4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert span == trace_zero


def test_commutator_span_t2():
    alg = t2_algebra(Q)
    span = G.commutator_span(alg)
    assert span.dim == 1
    # the M-block coordinate is index 1 in block order (A, M, B)
    assert span.basis == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_is_commutative():
    assert G.is_commutative(G.StructureAlgebra.build(GF7, 1, [(0, 0, 0, 1)], [1]))
    assert not G.is_commutative(matrix_algebra(GF7, 2))
    assert not G.is_commutative(t2_algebra(Q))


def test_algebra_mismatch_guard():
    m2q = matrix_algebra(Q, 2)
    m2f = matrix_algebra(GF7, 2)
    with pytest.raises(G.FieldMismatchError):
        m2q.multiply(m2q.one, m2f.one)


def test_element_arithmetic():
    m2 = matrix_algebra(Q, 2)
    x = m2.element([1, 2, 3, 4])
    y = m2.element([1, 1, 1, 1])
    assert (x + y - y).coords == x.coords
    assert (-x + x).is_zero
    assert x.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert (2 * y).coords == (2, 2, 2, 2)


def test_quadratic_extension_is_field_like():
    alg = quadratic_extension(Q)
    assert G.validate_algebra(alg).ok
    s = basis_element(alg, 1)
    assert (s * s).coords == (2, 0)
