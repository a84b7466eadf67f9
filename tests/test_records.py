"""Value semantics of the frozen record types.

Every record is an immutable value: its fields are fixed at construction,
`==` and `hash` go by the field values within one class, and its repr is
`Name(field=value, ...)`, which reports quote through `str`.
"""

import copy

import pytest

import gmalg as G
from gmalg.algebra_core import ValidationReport, Violation
from gmalg.decompose import DecompositionChecks
from helpers import GF7, Q

from test_decompose import t2_worked_example

# Field names in declaration order, which is the positional order.
FIELDS = {
    G.BilinearTable: ("left_dim", "right_dim", "out_dim", "entries"),
    G.StructureAlgebra: ("field", "dim", "mul", "unit"),
    G.Element: ("algebra", "coords"),
    Violation: ("law", "indices", "detail"),
    ValidationReport: ("violations",),
    DecompositionChecks: ("seed_annihilates_commutators",
                          "central_part_is_central", "exact_sum",
                          "seed_is_central"),
    G.Decomposition: ("seed", "extremal_part", "central_part", "checks"),
    G.ExtremalExistence: ("exists", "witness", "solution", "annihilator",
                          "offdiag_annihilator"),
    G.UniquenessProbe: ("admissible_dim", "kernel_dim"),
    G.VerificationReport: ("arity", "space_dim", "hypothesis_reports",
                           "theorem_applicable", "verdicts", "uniqueness",
                           "failures"),
    G.FieldSpec: ("p",),
    G.Subspace: ("field", "ambient_dim", "basis"),
    G.MoritaContext: ("a", "b", "m_dim", "n_dim", "act_am", "act_mb",
                      "act_bn", "act_na", "pair_mn", "pair_nm"),
    G.GMAlgebra: ("context", "algebra", "e", "f"),
    G.MultilinearMap: ("field", "arity", "dim", "entries", "den"),
    G.LeibnizWitness: ("slot", "args", "partner"),
    G.CenterData: ("center_g", "center_a", "center_b", "a_part", "b_part",
                   "a_to_b"),
    G.CheckStatus: ("status", "witness", "reason"),
    G.PairSpaces: ("special", "standard"),
    G.HypothesisReport: ("variant", "conditions"),
}


def records():
    """One instance of every record type, computed on t2 = ut(1,1) over q."""
    g, kappa, psi = t2_worked_example()
    dec = G.decompose(g, kappa.add(psi))
    report = G.verify_decomposition(g, 3)
    out = [
        g.algebra.mul, g.algebra, g.e,
        Violation("A-associativity", (0, 1, 2), "detail"),
        ValidationReport((Violation("unit", (1,)),)),
        dec.checks, dec, G.extremal_exists(g), report.uniqueness,
        report, Q, G.center(g.algebra), g.context, g,
        kappa, G.LeibnizWitness(1, (0, 2, 1), 2), G.center_data(g),
        G.CheckStatus("pass"),
        G.pair_spaces(g), report.hypothesis_reports[0],
    ]
    assert {type(r) for r in out} == set(FIELDS)
    return out


RECORDS = records()


def ids(r):
    return type(r).__name__


def values(r):
    return tuple(getattr(r, name) for name in FIELDS[type(r)])


def hash_or_error(r):
    try:
        return hash(r)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("r", RECORDS, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(r):
    for name in FIELDS[type(r)]:
        before = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is before


@pytest.mark.parametrize("r", RECORDS, ids=ids)
def test_equal_fields_give_equal_records_and_hashes(r):
    cls = type(r)
    by_position = cls(*values(r))
    by_keyword = cls(**dict(zip(FIELDS[cls], values(r))))
    for twin in (by_position, by_keyword):
        assert twin is not r
        assert twin == r and r == twin
        assert not twin != r
        assert hash_or_error(twin) == hash_or_error(r)
        assert values(twin) == values(r)


@pytest.mark.parametrize("r", RECORDS, ids=ids)
def test_a_different_field_gives_a_different_record(r):
    for name in FIELDS[type(r)]:
        other = copy.copy(r)
        # bypass the frozen guard, as record construction itself does
        object.__setattr__(other, name, object())
        assert other != r and r != other
        assert not other == r


@pytest.mark.parametrize("r", RECORDS, ids=ids)
def test_repr_lists_every_field(r):
    inner = ", ".join(f"{name}={getattr(r, name)!r}" for name in FIELDS[type(r)])
    assert repr(r) == f"{type(r).__name__}({inner})"
    assert str(r) == repr(r)


def test_repr_literals():
    assert repr(GF7) == "FieldSpec(p=7)"
    assert repr(Q) == "FieldSpec(p=None)"
    assert repr(G.CheckStatus("fail", (0, 1), "why")) == \
        "CheckStatus(status='fail', witness=(0, 1), reason='why')"
    assert repr(Violation("unit", (1,))) == \
        "Violation(law='unit', indices=(1,), detail='')"
    assert repr(G.BilinearTable.zero(1, 1, 1)) == \
        "BilinearTable(left_dim=1, right_dim=1, out_dim=1, entries=((),))"
    assert repr(G.Subspace.span(GF7, 2, [[2, 4]])) == \
        "Subspace(field=FieldSpec(p=7), ambient_dim=2, basis=((1, 2),))"


def test_different_classes_with_equal_values_differ():
    v = Violation("x", (), "")
    c = G.CheckStatus("x", (), "")
    assert values(v) == values(c)
    assert v != c and c != v
    assert G.UniquenessProbe(1, 0) != (1, 0)
    assert G.LeibnizWitness(1, (0,), 2) != G.UniquenessProbe(1, 2)


def test_keywords_and_defaults():
    assert G.FieldSpec().p is None
    assert G.FieldSpec(p=7) == GF7 == G.FieldSpec(7)
    assert hash(G.FieldSpec(p=7)) == hash(GF7)
    assert G.FieldSpec() == Q
    assert Violation("unit", (1,)).detail == ""
    assert G.CheckStatus("pass") == G.CheckStatus("pass", None, "")
    assert G.CheckStatus(status="unknown", reason="r").witness is None
    assert G.UniquenessProbe(kernel_dim=0, admissible_dim=3) == \
        G.UniquenessProbe(3, 0)


def test_bad_argument_lists_raise_type_error():
    with pytest.raises(TypeError):
        G.UniquenessProbe(1)
    with pytest.raises(TypeError):
        G.UniquenessProbe(1, 2, 3)
    with pytest.raises(TypeError):
        G.UniquenessProbe(1, 2, bogus=3)
    with pytest.raises(TypeError):
        G.UniquenessProbe(1, admissible_dim=2)
    with pytest.raises(TypeError):
        G.FieldSpec(7, p=7)


def test_construction_refusals():
    for p in (2, 4):
        with pytest.raises(ValueError):
            G.FieldSpec(p)
    with pytest.raises(ValueError):
        G.FieldSpec(p=9)
    with pytest.raises(G.DimensionMismatchError):
        G.StructureAlgebra(Q, 2, G.BilinearTable.zero(1, 1, 1), (1, 1))
    with pytest.raises(G.DimensionMismatchError):
        G.StructureAlgebra(Q, 1, G.BilinearTable.zero(1, 1, 1), (1, 1))
    with pytest.raises(G.DimensionMismatchError):
        G.MultilinearMap(Q, 0, 2, {})
    ctx = G.generate_builtin("upper_triangular", Q, s=1, t=1)
    fields = dict(zip(FIELDS[G.MoritaContext], values(ctx)))
    assert G.MoritaContext(**fields) == ctx
    with pytest.raises(G.FieldMismatchError):
        G.MoritaContext(**dict(fields, b=G.generate_builtin(
            "upper_triangular", GF7, s=1, t=1).b))
    with pytest.raises(G.DimensionMismatchError):
        G.MoritaContext(**dict(fields, act_am=G.BilinearTable.zero(1, 2, 1)))


def test_cached_properties_are_computed_once_and_stay_out_of_equality():
    alg = G.generate_builtin("full_matrix", Q, r=2).a
    fresh = G.StructureAlgebra(*values(alg))
    table = alg.bracket_table
    assert alg.bracket_table is table
    assert alg.commutators is alg.commutators
    assert alg.mul.int_entries is alg.mul.int_entries
    s = G.Subspace.span(Q, 3, [[0, 2, 1]])
    assert s.pivot_columns == (1,) and s.pivot_columns is s.pivot_columns
    assert alg == fresh and hash(alg) == hash(fresh)
    assert repr(alg) == repr(fresh)
    assert s == G.Subspace(*values(s))


@pytest.mark.parametrize("r", RECORDS, ids=ids)
def test_kept_hash_is_the_hash_of_the_field_values(r):
    first = hash_or_error(r)
    assert hash_or_error(r) == first
    assert first == hash_or_error(values(r))
    twin = type(r)(*values(r))
    assert hash_or_error(twin) == first


def test_hash_is_computed_once_per_record_and_equal_across_equal_records():
    calls = []

    class Witness:
        def __hash__(self):
            calls.append(self)
            return 7

        def __eq__(self, other):
            return type(other) is Witness

    a = G.CheckStatus("fail", Witness())
    b = G.CheckStatus("fail", Witness())
    assert a == b and a is not b
    assert hash(a) == hash(a) == hash(b) == hash(b)
    assert len(calls) == 2
    # equal algebras built apart hash alike, and a lookup keyed by one
    # finds the other
    alg = G.generate_builtin("full_matrix", Q, r=2).a
    twin = G.generate_builtin("full_matrix", Q, r=2).a
    assert alg == twin and alg is not twin
    assert hash(alg) == hash(twin)
    assert {alg: "found"}[twin] == "found"
    assert hash(alg) == hash(values(alg))
