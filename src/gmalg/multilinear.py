"""Multilinear maps on an algebra: predicates and n-Lie derivation spaces.

A map holds one value format: sparse int tensor entries on basis tuples,
den times the values, over one denominator den, normalized so that equal
maps are equal records (`MultilinearMap.from_ints`). Every reader works on
the ints as they are; a value is divided by den only at the boundary, in
`value_at`, `evaluate` and the map file writer. The full n-Lie
derivation space is computed by slot restriction: slot one confines the map
to (Lie derivation space L) x (coefficient tensor), and the later-slot
Leibniz constraints all reduce to one shared constraint block because their
coefficients never involve the spectator slots. That block asks that, for
each slot-1 basis element b, the map x -> sum_a X[a, x] D_a(b) lie in L, and
its rows are L's `Subspace.preimage_rows` of that map: at most
d (d^2 - dim L) rows, against the d^4 / 2 of the Leibniz law written out per
bracket pair. Arity n = 2 needs only the block's kernel K. From n = 3 on,
each further slot asks that every spectator slice of the coefficients lie
in span(K), and its rows are span(K)'s `preimage_rows` of each slice. The
solver runs on ints: the Lie-basis columns are cleared of denominators once
by `exact_linear.int_scaled`, and every stage keeps its coefficient vectors
as sparse {index: int} maps built from the int vectors `kernel_basis`
returns (primitive over q, residues over GF(p)). The final canonical `rref`
hands out sparse int rows too, and the maps are built from their nonzero
entries: each value is one int sum, held over the row's scale. The arity
has no cap of its own: the budgets bound the work.

The Leibniz predicate checks k maps of one arity in one pass over the
(slot, spectator tuple, pair) cases, with each case's residuals held as one
sparse int dict over (output component, map index); each map gets the
witness a pass over it alone would find. The values are indexed by the rank
of their basis tuple, so each slot visits only the lines (the d tuples that
differ only in that slot) through a tuple that some map stores.
`is_n_lie_derivation` and `is_n_derivation` are that pass with k = 1, and
`verify` runs it once on the whole space. The solver reaches
`structure_analysis.leibniz_rows`, the one writer of the n = 1 law, through
L. The dense-kernel oracle of the tests writes its own rows of the n-slot
law, and the predicate writes the law out by hand, so both check the space
independently of the solver.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .algebra_core import Element, StructureAlgebra
from .budget import guard_power, guard_tuples, guard_unknowns
from .errors import DimensionMismatchError, FieldMismatchError
from .exact_linear import FieldSpec, Subspace, int_scaled, kernel_basis, rref
from .records import record
from .structure_analysis import (CheckStatus, center, core_algebra,
                                 lie_derivation_space)


@record
class MultilinearMap:
    """Arity-n map stored as int tensor entries on basis tuples over one
    denominator.

    entries maps an index tuple (i_1, ..., i_n) to a tuple of ints, den
    times the coordinates of the image of that basis tuple; absent tuples
    are zero. The format is normalized by `from_ints`, so equal maps are
    equal records: over q den > 0 and no prime divides den and every entry,
    over GF(p) den is 1 and the entries are residues, and no stored tuple
    is zero. Readers use the ints as they are; `value_at`, `evaluate` and
    the map file writer divide by den.
    """

    field: FieldSpec
    arity: int
    dim: int
    entries: dict
    den: int = 1

    def __post_init__(self):
        if self.arity < 1:
            raise DimensionMismatchError("arity must be >= 1")

    @classmethod
    def zero(cls, field: FieldSpec, arity: int, dim: int) -> "MultilinearMap":
        return cls(field, arity, dim, {})

    @classmethod
    def from_ints(cls, field: FieldSpec, arity: int, dim: int, entries: dict,
                  den: int) -> "MultilinearMap":
        """The map whose value at each key is entries[key] / den, normalized."""
        p = field.p
        if p is None:
            g = gcd(den, *(x for vec in entries.values() for x in vec))
            g = -g if den < 0 else g
            den //= g
            scaled = ((k, tuple(x // g for x in vec)) for k, vec in entries.items())
        else:
            inv, den = pow(den, -1, p), 1
            scaled = ((k, tuple(x * inv % p for x in vec))
                      for k, vec in entries.items())
        return cls(field, arity, dim, {k: vec for k, vec in scaled if any(vec)}, den)

    @classmethod
    def from_entries(cls, field: FieldSpec, arity: int, dim: int,
                     entries) -> "MultilinearMap":
        """The map with the given field scalars, cleared of denominators."""
        clean = {}
        for key, vec in dict(entries).items():
            key = tuple(int(i) for i in key)
            if len(key) != arity or any(not 0 <= i < dim for i in key):
                raise DimensionMismatchError(f"index tuple {key} out of range")
            coords = tuple(field.of(x) for x in vec)
            if len(coords) != dim:
                raise DimensionMismatchError("value length != dim")
            clean[key] = coords
        den = lcm(1, *(x.denominator for vec in clean.values() for x in vec))
        return cls.from_ints(field, arity, dim, {
            k: tuple(x.numerator * (den // x.denominator) for x in vec)
            for k, vec in clean.items()}, den)

    # -- access ----------------------------------------------------------

    def value_at(self, key: tuple) -> tuple:
        got = self.entries.get(tuple(key), (0,) * self.dim)
        return got if self.field.p else tuple(Fraction(x, self.den) for x in got)

    def evaluate_coords(self, args: Sequence[Sequence]) -> list:
        """The image of the arguments' coordinates: each stored value times
        the product of the arguments' coordinates at its indices."""
        if len(args) != self.arity:
            raise DimensionMismatchError(
                f"expected {self.arity} arguments, got {len(args)}")
        if any(len(a) != self.dim for a in args):
            raise DimensionMismatchError("argument length != dim")
        f = self.field
        supports = [{i: c for i, c in enumerate(a) if c} for a in args]
        out = f.vec_zero(self.dim)
        for key, vec in self.entries.items():
            w = 1
            for support, i in zip(supports, key):
                if i not in support:
                    break
                w *= support[i]
            else:
                for t, x in enumerate(vec):
                    out[t] += w * x
        return [x % f.p for x in out] if f.p else [x / self.den for x in out]

    def evaluate(self, args: Sequence[Element]) -> Element:
        if not args:
            raise DimensionMismatchError("no arguments")
        alg = args[0].algebra
        if alg.dim != self.dim or alg.field != self.field:
            raise FieldMismatchError("map and elements disagree on space")
        for a in args[1:]:
            if a.algebra != alg:
                raise FieldMismatchError("arguments from different algebras")
        return alg.element(self.evaluate_coords([a.coords for a in args]))

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "MultilinearMap", sign: int = 1) -> "MultilinearMap":
        """self + sign * other, over the LCM of the two denominators."""
        if (self.field, self.arity, self.dim) != (other.field, other.arity,
                                                  other.dim):
            raise DimensionMismatchError("maps live on different spaces")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        zero = (0,) * self.dim
        entries = {k: tuple(a * x + b * y for x, y in
                            zip(self.entries.get(k, zero), other.entries.get(k, zero)))
                   for k in self.entries.keys() | other.entries.keys()}
        return self.from_ints(self.field, self.arity, self.dim, entries, den)

    def sub(self, other: "MultilinearMap") -> "MultilinearMap":
        return self.add(other, -1)

    @property
    def is_zero(self) -> bool:
        return not self.entries


@record
class LeibnizWitness:
    """Failing instance: slot, argument tuple with u at the slot, partner v."""

    slot: int
    args: tuple
    partner: int


def _check_algebra_map(alg: StructureAlgebra, mmap: MultilinearMap) -> None:
    if mmap.dim != alg.dim or mmap.field != alg.field:
        raise DimensionMismatchError("map does not live on this algebra")


def _rank_digits(rank: int, d: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        rank, r = divmod(rank, d)
        out.append(r)
    return tuple(reversed(out))


def is_n_lie_derivation(g, mmap: MultilinearMap) -> CheckStatus:
    """Slot-by-slot Lie Leibniz law on all basis tuples; first failure wins."""
    return _leibniz_predicate(g, [mmap], lie=True)[0]


def is_n_derivation(g, mmap: MultilinearMap) -> CheckStatus:
    """Slot-by-slot (associative) Leibniz law on all basis tuples."""
    return _leibniz_predicate(g, [mmap], lie=False)[0]


def _integer_values(maps: list) -> dict:
    """Per basis-tuple rank that some map touches, the values of all maps as
    sparse int entries.

    An entry (t, m, t * k + m, x) says that map m (of k) has the int x at
    component t there: its stored int, den times the value.
    """
    d, k = maps[0].dim, len(maps)
    vals = defaultdict(list)
    for m, mmap in enumerate(maps):
        for key, vec in mmap.entries.items():
            rank = 0
            for i in key:
                rank = rank * d + i
            vals[rank] += [(t, m, t * k + m, x) for t, x in enumerate(vec) if x]
    return vals


def _leibniz_predicate(g, maps: Sequence[MultilinearMap],
                       lie: bool) -> list[CheckStatus]:
    """Check T(..u.v..) = T(..u..).b_v + b_u.T(..v..) slot by slot, for k maps.

    The product is the bracket for the Lie law (pairs u < v suffice, by
    antisymmetry) and the multiplication for the associative law (all
    pairs). One pass over the (slot, tuple, partner) cases checks all k maps
    of one arity at once, and returns one status per map, in order. A map's
    witness is its first case in loop order with a nonzero residual
    T(..u.v..) - T(..u..).b_v - b_u.T(..v..), the one a pass over that map
    alone would find; the pass stops once every map has failed.

    The residual is linear in the map and linear in the structure constants,
    so scaling the constants by one nonzero int and a map's values by
    another scales every residual of that map by their product: over q, the
    int cells and each map's stored ints (den times its values) give integer
    residuals with the same zero pattern. Over GF(p) the values and
    constants are residues, and reduction mod p is a ring homomorphism from
    the ints, so the unreduced int residual is zero in GF(p) exactly when it
    is divisible by p; that is the only place p enters.
    """
    alg = core_algebra(g)
    maps = list(maps)
    if not maps:
        return []
    n = maps[0].arity
    for mmap in maps:
        _check_algebra_map(alg, mmap)
        if mmap.arity != n:
            raise DimensionMismatchError("maps of different arities")
    d, k = alg.dim, len(maps)
    guard_tuples("leibniz predicate", d ** n)
    witnesses = [None] * k
    open_maps = k
    for m, slot, spect, u, v in _nonzero_residuals(alg, maps, lie):
        if witnesses[m] is None:
            digits = list(_rank_digits(spect, d, n - 1))
            digits.insert(slot, u)
            witnesses[m] = LeibnizWitness(slot, tuple(digits), v)
            open_maps -= 1
            if not open_maps:
                break
    return [CheckStatus("pass") if w is None else CheckStatus("fail", witness=w)
            for w in witnesses]


def _nonzero_residuals(alg: StructureAlgebra, maps: list, lie: bool):
    """(map index, slot, spectator rank, u, v) of every nonzero residual.

    Cases come in loop order. A case's residuals, for all k maps, are one
    sparse int dict keyed by output component times k plus map index, so a
    case that no cell and no value reaches holds nothing. A line, the d
    tuples that differ only in the slot, on which every map vanishes holds
    only zero residuals, so each slot visits only the lines through a
    stored tuple: the sorted set of their spectator ranks, which keeps the
    loop order.
    """
    d, n, k, p = alg.dim, maps[0].arity, len(maps), alg.field.p
    cells = (alg.bracket_table if lie else alg.mul).int_entries
    # the same cells with each output component pre-multiplied by k, so
    # that component kk of map m has the residual key kk + m
    keyed = [[(kk * k, c) for kk, c in cell] for cell in cells]
    by_right = [keyed[v::d] for v in range(d)]
    vals = _integer_values(maps)
    for slot in range(n):
        st = d ** (n - 1 - slot)
        for spect in sorted({r // (st * d) * st + r % st for r in vals}):
            base = (spect // st) * (st * d) + spect % st
            line = [vals.get(base + w * st, ()) for w in range(d)]
            for u in range(d):
                t_u = line[u]
                left = keyed[u * d:(u + 1) * d]
                for v in range(u + 1, d) if lie else range(d):
                    r = {}
                    for w, c in cells[u * d + v]:
                        for _, _, key, x in line[w]:
                            r[key] = r.get(key, 0) + c * x
                    right = by_right[v]
                    for i, m, _, x in t_u:
                        for kk, c in right[i]:
                            r[kk + m] = r.get(kk + m, 0) - c * x
                    for j, m, _, x in line[v]:
                        for kk, c in left[j]:
                            r[kk + m] = r.get(kk + m, 0) - c * x
                    for key, x in r.items():
                        if x and (p is None or x % p):
                            yield key % k, slot, spect, u, v


def is_centrally_valued(g, mmap: MultilinearMap) -> CheckStatus:
    """Every stored basis-tuple value must lie in the center.

    Each stored int tuple, den times a value, is tested by
    `Subspace.contains` on Z(G); the witness is the first failing basis
    tuple in sorted order.
    """
    alg = core_algebra(g)
    _check_algebra_map(alg, mmap)
    z = center(alg)
    for key in sorted(mmap.entries):
        if not z.contains(mmap.entries[key]):
            return CheckStatus("fail", witness=key)
    return CheckStatus("pass")


# ---------------------------------------------------------------------------
# n-Lie derivation spaces
# ---------------------------------------------------------------------------


def _lie_basis_columns(alg: StructureAlgebra) -> tuple[int, list]:
    """The Lie derivation basis as int columns, and their common denominator.

    icols[a][i][t] is den times the coefficient of b_t in D_a(b_i): the
    canonical basis of `lie_derivation_space` `int_scaled` once, by den.
    """
    L = lie_derivation_space(alg)
    d = alg.dim
    scaled = int_scaled([x for row in L.basis for x in row])
    # the first nonzero entry is the first row's pivot, 1, so it becomes den
    den = next((x for x in scaled if x), 1)
    dd = d * d
    icols = [[scaled[a * dd + s:(a + 1) * dd:d] for s in range(d)]
             for a in range(len(L.basis))]
    return den, icols


def _slot_block_rows(alg: StructureAlgebra, icols) -> list:
    """Shared constraint block for a bracketed argument in any later slot.

    Unknowns X[a*d + w] stand for the coefficient tensor entry with Lie
    basis index a and the later slot at basis w. The later-slot law asks,
    for each slot-1 basis element b_a1, that the map
    x -> sum_a X[a, x] D_a(b_a1) lie in L, the Lie derivation space. So the
    rows are L's `preimage_rows` of X -> that map, flattened as D[t*d + x],
    for each a1: the d*d - dim L annihilator rows r of L per a1, and the
    coefficient of X[a, x] is sum_t r[t*d + x] D_a(b_a1)_t.

    `icols` are the int Lie columns of `_lie_basis_columns`, all scaled by
    one positive factor, so each block row is an int multiple of its
    rational form, with the same kernel.
    """
    d = alg.dim
    L = lie_derivation_space(alg)
    rows = []
    for a1 in range(d):
        op = []
        for t in range(d):
            pairs = [(a, c) for a, cols in enumerate(icols) if (c := cols[a1][t])]
            op += [{a * d + x: c for a, c in pairs} for x in range(d)]
        rows += L.preimage_rows(op)
    return rows


def n_lie_derivation_space(g, n: int) -> list:
    """Basis of the space of n-Lie derivations, via slot restriction.

    Slot one restricts the map to sum_a c_a(x_2,...,x_n) D_a(x_1) over a Lie
    derivation basis {D_a}; the slot-k constraints for k >= 2 share one
    block whose coefficients ignore the spectator slots. Its kernel K is
    the arity-2 coefficient space. Stage k >= 3 keeps, of the combinations
    sum_m s[m, w] R_m of the previous basis R at each new slot index w,
    those whose restriction to each spectator J lies in span(K): span(K)'s
    `preimage_rows` per J, so each stage solves a system in
    (current dimension) * d unknowns. R stays sparse, {index: int} over
    [a | i_2 .. i_k], through the stages; the final `rref` gives the
    canonical basis as sparse int rows, each the canonical row times a scale
    of its own. The maps are built from a row's nonzero entries alone: each
    value is one int sum over the int Lie columns, and the map holds these
    sums over the row's scale times den, normalized by `from_ints`.
    """
    alg = core_algebra(g)
    if n < 2:
        raise DimensionMismatchError("full-space computation needs arity >= 2")
    d, f = alg.dim, alg.field
    guard_power("space materialization", d, n)
    den, icols = _lie_basis_columns(alg)
    ell = len(icols)
    guard_unknowns("slot-restricted space", ell * d ** (n - 1))
    guard_tuples("space materialization", d ** n)
    if ell == 0:
        return []

    K = kernel_basis(f, ell * d, _slot_block_rows(alg, icols))
    if not K:
        return []

    # R holds coefficient tensors over [a | i_2 .. i_k], last index fastest
    R = [{i: x for i, x in enumerate(v) if x} for v in K]
    if n >= 3:
        span_k = Subspace.span(f, ell * d, K)
    for k in range(3, n + 1):
        spect = d ** (k - 2)
        # per spectator J, the rows of s -> (sum_m s[m, w] R_m[a, J]) keyed
        # a*d + w, with R_m[a, J] at index a*spect + J of R_m
        ops = defaultdict(lambda: defaultdict(dict))
        for m, Rm in enumerate(R):
            for idx, val in Rm.items():
                a, J = divmod(idx, spect)
                op = ops[J]
                for w in range(d):
                    op[a * d + w][m * d + w] = val
        rows = []
        for J in sorted(ops):
            rows += span_k.preimage_rows(ops[J])
        new_r = []
        for s in kernel_basis(f, len(R) * d, rows):
            t = {}
            for key, sval in enumerate(s):
                if sval:
                    m, w = divmod(key, d)
                    # entry a * spect + J of R_m moves to (a*spect + J)*d + w
                    for idx, val in R[m].items():
                        i = idx * d + w
                        t[i] = t.get(i, 0) + sval * val
            new_r.append(f.sparse(t))
        R = new_r
        if not R:
            return []

    # canonical coefficient basis, then materialize value tensors
    spect = d ** (n - 1)
    # per Lie basis index, the nonzero (input, component, int) of its columns
    scols = [[(i1, t, x) for i1, col in enumerate(cols)
              for t, x in enumerate(col) if x] for cols in icols]
    maps = []
    for scale, row in rref(f, R, ell * spect)[0]:
        # the value at rank i1 * spect + J, times scale * den
        vals = defaultdict(lambda: [0] * d)
        for idx, c in row.items():
            al, J = divmod(idx, spect)
            for i1, t, x in scols[al]:
                vals[i1 * spect + J][t] += c * x
        maps.append(MultilinearMap.from_ints(
            f, n, d, {_rank_digits(rank, d, n): tuple(vec)
                      for rank, vec in vals.items()}, scale * den))
    return maps
