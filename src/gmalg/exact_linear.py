"""Exact linear algebra over the rationals and odd prime fields.

Three parts: the fields (`FieldSpec`), one elimination loop (`_kernel`),
and `Subspace`, a subspace held by its canonical basis. Scalars are
`fractions.Fraction` over the rationals and canonical int residues over
GF(p). A scalar enters the loop only through `_int_row`, and a rational
becomes an int only through `int_scaled` (multiply by the LCM of the
denominators), which the integer paths of the multilinear code share.

`_kernel` shrinks a running basis of the solution space one row at a time
and touches only nonzero entries: each surviving vector is a sparse
{column: int} map, and a coordinate-major index of the same entries gives a
row's products with every survivor at the cost of the entries it meets.
The field decides only how a vector is updated: fraction-free with content
division over q, which keeps entries primitive, and v - f * pivot mod p
over GF(p). Both outputs are read off that basis. `kernel_basis` returns
its vectors dense, primitive int vectors over q and residues over GF(p).
`rref` reads the canonical reduced row echelon form off it, one entry per
kernel vector and eliminated column, as sparse int rows: each is an RREF
row times a positive scale of its own, 1 over GF(p).

A `Subspace` stores the `rref` of a spanning set as dense field scalars,
so equality is plain entrywise comparison; `Subspace.span` is the one place
`rref` rows become Fractions, each int over its row's scale. Membership has
one test, `Subspace.contains`: a vector lies in the subspace exactly when
every row of its `annihilator`, the `kernel_basis` of the basis, has a zero
dot product with the vector's ints. A condition "A x lies in S" has
one writer, `Subspace.preimage_rows`: S's annihilator rows composed with
the rows of A, whose joint kernel is the preimage of S under A.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatchError
from .records import record

Scalar = Fraction | int

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin to the bases above decides primality exactly below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017). The bound itself,
# 399165290221 * 798330580441, is a strong pseudoprime to all twelve.
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class FieldSpec:
    """Rationals when `p` is None, otherwise GF(p) for an odd prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if self.p == 2:
                raise ValueError("characteristic 2 is not supported (need 2 invertible)")
            if self.p >= _MR_BOUND:
                raise ValueError(f"{self.p} is too large: primality is decided "
                                 f"exactly only below {_MR_BOUND}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    # -- identification ----------------------------------------------------

    @property
    def name(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"

    @staticmethod
    def from_name(text: str) -> "FieldSpec":
        if not isinstance(text, str):
            raise ValueError(f"field descriptor {text!r} is not a string")
        t = text.strip().lower()
        if t in ("q", "qq", "rationals"):
            return FieldSpec()
        # decimal digits only: int() would also take '1_0_1' or ' 101'
        if t.startswith("gf:") and t[3:].isascii() and t[3:].isdigit():
            return FieldSpec(int(t[3:]))
        raise ValueError(f"unknown field descriptor {text!r} (use 'q' or 'gf:P')")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec()

    # -- scalar construction ----------------------------------------------

    def of(self, value) -> Scalar:
        """Coerce an int, Fraction or 'num/den' string into a field scalar."""
        if self.p is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} into the rationals")
        if isinstance(value, str):
            value = int(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"{value} is undefined in GF({self.p})")
            return value.numerator * pow(value.denominator, self.p - 2, self.p) % self.p
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    # -- vectors -------------------------------------------------------------

    def vec_zero(self, n: int) -> list:
        z = self.zero
        return [z] * n

    def vec_add(self, u, v):
        if self.p is None:
            return [a + b for a, b in zip(u, v)]
        p = self.p
        return [(a + b) % p for a, b in zip(u, v)]

    def vec_sub(self, u, v):
        if self.p is None:
            return [a - b for a, b in zip(u, v)]
        p = self.p
        return [(a - b) % p for a, b in zip(u, v)]

    def vec_scale(self, c, u):
        if self.p is None:
            return [c * a for a in u]
        p = self.p
        return [c * a % p for a in u]

    def combine(self, coeffs, vecs, n: int) -> list:
        """The length-n linear combination sum_i coeffs[i] * vecs[i]."""
        out = self.vec_zero(n)
        for c, vec in zip(coeffs, vecs):
            if c:
                for i, a in enumerate(vec):
                    if a:
                        out[i] += c * a
        return out if self.p is None else [x % self.p for x in out]

    def unit(self, n: int, i: int) -> list:
        """Coordinate vector of the i-th basis element of an n-space."""
        v = self.vec_zero(n)
        v[i] = self.one
        return v

    def sparse(self, row: dict) -> dict:
        """A sparse row with its values reduced into the field, zeros dropped."""
        if self.p is None:
            return {k: v for k, v in row.items() if v}
        p = self.p
        return {k: v % p for k, v in row.items() if v % p}


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------


def int_scaled(values: Sequence) -> list[int]:
    """Ints or Fractions times the LCM of their denominators, as ints.

    All values are scaled by the same positive factor, so a row keeps its
    kernel and its row space and a table or a map keeps its zero pattern.
    Ints and residues (denominator 1) come back as they are.
    """
    den = lcm(1, *(c.denominator for c in values))
    if den == 1:
        return [c.numerator for c in values]
    return [c.numerator * (den // c.denominator) for c in values]


def _int_row(field: FieldSpec, row) -> list[tuple[int, int]]:
    """The nonzero (column, int) entries of a dict or dense row.

    The only place a scalar enters the int core. An entry that is not an
    int (or, over q, a Fraction) is coerced by `FieldSpec.of`, with its
    refusals. A GF(p) row then holds int residues; a rational row with a
    non-int entry is `int_scaled`, which keeps its kernel and its row space.
    """
    items = row.items() if isinstance(row, dict) else enumerate(row)
    p = field.p
    if p is not None:
        return [(i, r) for i, c in items
                if (r := c % p if type(c) is int else field.of(c))]
    pairs, rational = [], False
    for i, c in items:
        if type(c) is not int:
            if type(c) is not Fraction:
                c = field.of(c)
            rational = True
        if c:
            pairs.append((i, c))
    if not rational or not pairs:
        return pairs
    cols, vals = zip(*pairs)
    return list(zip(cols, int_scaled(vals)))


def _kernel(field: FieldSpec, ncols: int, rows) -> tuple[dict, list]:
    """The running basis of the joint kernel of `rows` and the eliminated
    columns: ({free column: vector}, [pivot columns in elimination order]).

    Maintains a basis of the running solution space and shrinks it one
    constraint at a time, touching only nonzero entries, so cost scales with
    the nonzeros the rows meet rather than with the (possibly huge) number
    of rows. Every basis vector starts as a unit vector and keeps a nonzero
    entry at its own (free) column, where all the others are 0. It is stored
    as a sparse {column: int} map keyed by its free column, and a
    coordinate-major index, index[column] = {free column: int}, holds the
    same entries. Both are created for a column when a row first touches
    it: a column no row touches stays free with its unit vector, which the
    map leaves out. A row's products with all surviving vectors then cost
    the index entries at the row's nonzero columns; most rows of a tall
    system are dependent and cost only that. An independent row takes the
    vector with the lowest free column among those with a nonzero product
    as pivot, drops it, and updates the others with a nonzero product, each
    at the cost of its support and the pivot's.

    Over q the vectors are combined fraction-free (yt * v - ys * pivot) and
    divided by their content, so each is a primitive int vector; over GF(p)
    an update is v - (ys / yt) * pivot mod p, so each vector holds residues
    with a 1 at its free column.
    """
    p = field.p
    vecs = {}
    index = [None] * ncols
    pivots = []
    for row in rows:
        items = _int_row(field, row)
        if not items:
            continue
        y = {}
        for i, c in items:
            col = index[i]
            if col is None:
                col = index[i] = {i: 1}
                vecs[i] = {i: 1}
            for s, a in col.items():
                y[s] = y.get(s, 0) + c * a
        if p is not None:
            y = {s: ys % p for s, ys in y.items() if ys % p}
        elif not all(y.values()):
            y = {s: ys for s, ys in y.items() if ys}
        if not y:
            continue
        pivot = min(y)
        pivots.append(pivot)
        yt = y.pop(pivot)
        base = vecs.pop(pivot)
        for i in base:
            del index[i][pivot]
        if p is None:
            for s, ys in y.items():
                old = vecs[s]
                v = {i: yt * a for i, a in old.items()}
                for i, b in base.items():
                    a = v.get(i, 0) - ys * b
                    if a:
                        v[i] = a
                    else:
                        del v[i]
                g = gcd(*v.values())
                if g > 1:
                    v = {i: a // g for i, a in v.items()}
                for i in old.keys() - v.keys():
                    del index[i][s]
                for i, a in v.items():
                    index[i][s] = a
                vecs[s] = v
        else:
            inv = pow(yt, p - 2, p)
            for s, ys in y.items():
                f = ys * inv % p
                v = vecs[s]
                for i, b in base.items():
                    a = (v.get(i, 0) - f * b) % p
                    if a:
                        v[i] = index[i][s] = a
                    else:
                        del v[i], index[i][s]
        if len(pivots) == ncols:
            break
    return vecs, pivots


def kernel_basis(field: FieldSpec, ncols: int, rows) -> list[list[int]]:
    """Exact basis of the joint kernel of `rows` (dicts or dense sequences).

    The vectors of `_kernel`, dense, in order of their free columns, with
    the unit vector of each column no row touched: primitive int vectors
    over q, residues with a 1 at the free column over GF(p).
    """
    vecs, pivots = _kernel(field, ncols, rows)
    eliminated = set(pivots)
    out = []
    for s in range(ncols):
        if s not in eliminated:
            dense = [0] * ncols
            for i, a in vecs.get(s, {s: 1}).items():
                dense[i] = a
            out.append(dense)
    return out


def rref(field: FieldSpec, rows, ncols: int):
    """Canonical RREF rows (zero rows dropped) and their pivot columns.

    Read off the running basis of `_kernel`. Its pivots are the columns the
    loop eliminated, and the row of pivot pc is 1 at pc and -v_s[pc] / v_s[s]
    at each free column s, for the kernel vector v_s of s. A column no row
    touched is free, and its unit vector adds nothing. Each row comes back
    as a sparse int row (scale, {column: int}), the RREF row times
    scale > 0: scale is the LCM of the v_s[s] in the row, so the row holds
    scale at its pivot; over GF(p) every v_s[s] is 1, so scale is 1 and the
    row holds residues.

    This is the RREF. Reduce an independent row against the RREF of the
    rows before it: the result vanishes on the eliminated columns, and its
    entry at a free column s is the row's product with v_s divided by
    v_s[s]. So its leading column is the lowest free column with a nonzero
    product, the one the loop eliminates, and the eliminated set is exactly
    the set of leading columns of the row space. The rows read off are
    orthogonal to every kernel vector (v_s is 0 on the other free columns),
    so they lie in the row space; they are the identity on the eliminated
    set, and the only such basis of the row space is its RREF.
    """
    vecs, pivots = _kernel(field, ncols, rows)
    pivots.sort()
    # per pivot, the (free column s, v_s[pivot], v_s[s]) of its row
    terms = {pc: [] for pc in pivots}
    for s, v in vecs.items():
        t = v[s]
        for i, a in v.items():
            if i != s:
                terms[i].append((s, a, t))
    out = []
    for pc, row in terms.items():
        scale = lcm(*(t for _, _, t in row))
        out.append((scale, field.sparse(
            {pc: scale} | {s: -a * (scale // t) for s, a, t in row})))
    return out, pivots


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------


@record
class Subspace:
    """Linear subspace in canonical (RREF basis) form.

    Two subspaces are equal iff their canonical bases agree entrywise, so
    record equality (field by field) is the subspace equality test.
    """

    field: FieldSpec
    ambient_dim: int
    basis: tuple

    @classmethod
    def span(cls, field: FieldSpec, ambient_dim: int, vectors) -> "Subspace":
        vecs = list(vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector length {len(v)} != ambient {ambient_dim}")
        p, basis = field.p, []
        for scale, row in rref(field, vecs, ambient_dim)[0]:
            dense = [field.zero] * ambient_dim
            for i, x in row.items():
                dense[i] = Fraction(x, scale) if p is None else x
            basis.append(tuple(dense))
        return cls(field, ambient_dim, tuple(basis))

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivot_columns(self) -> tuple:
        cols = []
        for row in self.basis:
            cols.append(next(j for j, x in enumerate(row) if x))
        return tuple(cols)

    @cached_property
    def annihilator(self) -> tuple:
        """Int rows whose joint kernel is this subspace, as sparse (index,
        int) pairs: the `kernel_basis` vectors of the basis, primitive ints
        over q and residues over GF(p)."""
        return tuple(tuple((i, a) for i, a in enumerate(row) if a)
                     for row in kernel_basis(self.field, self.ambient_dim, self.basis))

    def contains(self, vec) -> bool:
        """True when every annihilator row kills `vec`.

        The vector enters as the ints of `_int_row`, which keep each dot
        product's zero pattern; over GF(p) a product is zero when p divides
        it.
        """
        if len(vec) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(vec)} != ambient {self.ambient_dim}")
        p, v = self.field.p, dict(_int_row(self.field, vec))
        for row in self.annihilator:
            x = sum(a * v.get(i, 0) for i, a in row)
            if x and (p is None or x % p):
                return False
        return True

    def preimage_rows(self, op_rows) -> list:
        """Rows whose joint kernel is {x : A x lies in this subspace}.

        A is given by its output-indexed rows, op_rows[k] = {u: coefficient},
        the shape `operator_rows` returns. For each annihilator row a, in
        order, the row is sum_k a_k op_rows[k]; a row with no entry is
        dropped. Any nonzero multiple of A, such as the int rows of a rational
        map cleared of denominators, gives rows with the same joint kernel.
        """
        rows = []
        for a in self.annihilator:
            row = {}
            for k, a_k in a:
                for u, c in op_rows[k].items():
                    row[u] = row.get(u, 0) + a_k * c
            if row:
                rows.append(row)
        return rows

    def coordinates_of(self, vec):
        """Coefficients of `vec` on the basis rows, or None if outside.

        The basis is the identity on its pivot columns, so the coefficients
        of a member are its entries there.
        """
        if not self.contains(vec):
            return None
        return [self.field.of(vec[pc]) for pc in self.pivot_columns]
