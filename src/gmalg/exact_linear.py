"""Exact linear algebra over the rationals and odd prime fields.

Scalars are `fractions.Fraction` over the rationals and canonical int
residues over GF(p). Elimination over the rationals is fraction-free
(Bareiss) on integer rows to keep entry growth polynomial; subspaces are
stored in reduced row echelon form so equality is plain entrywise
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError, FieldMismatchError

Scalar = Union[Fraction, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
class FieldSpec:
    """Rationals when `p` is None, otherwise GF(p) for an odd prime p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            if self.p == 2:
                raise ValueError("characteristic 2 is not supported (need 2 invertible)")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    # -- identification ----------------------------------------------------

    @property
    def name(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"

    @staticmethod
    def from_name(text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("q", "qq", "rationals"):
            return FieldSpec()
        if t.startswith("gf:"):
            return FieldSpec(int(t[3:]))
        raise ValueError(f"unknown field descriptor {text!r} (use 'q' or 'gf:P')")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec()

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        return FieldSpec(p)

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
            if value.denominator != 1:
                num = value.numerator % self.p
                return num * pow(value.denominator, self.p - 2, self.p) % self.p
            value = value.numerator
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

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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

    def vec_is_zero(self, u) -> bool:
        return all(not a for a in u)

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
# elimination cores
# ---------------------------------------------------------------------------


def _int_rows(rows: Iterable[Sequence[Scalar]]) -> list[list[int]]:
    """Scale rational rows to primitive integer rows (kernel/rank safe)."""
    out = []
    for row in rows:
        fr = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = lcm(den, x.denominator)
        ints = [int(x * den) for x in fr]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _rref_q(rows, ncols):
    """Reduced row echelon form over the rationals, fraction-free forward pass."""
    m = _int_rows(rows)
    pivots: list[int] = []
    pr = 0
    prev = 1
    for pc in range(ncols):
        piv_row = None
        for r in range(pr, len(m)):
            if m[r][pc]:
                piv_row = r
                break
        if piv_row is None:
            continue
        m[pr], m[piv_row] = m[piv_row], m[pr]
        piv = m[pr][pc]
        top = m[pr]
        # Every row below is rescaled even when its factor is zero; the
        # exact divisibility of the Bareiss step depends on it.
        for r in range(pr + 1, len(m)):
            row = m[r]
            f = row[pc]
            m[r] = [(piv * row[j] - f * top[j]) // prev for j in range(ncols)]
        prev = piv
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    out = []
    for r in range(pr):
        piv = m[r][pivots[r]]
        out.append([Fraction(x, piv) for x in m[r]])
    for r in range(pr - 1, -1, -1):
        prow = out[r]
        pc = pivots[r]
        for r2 in range(r):
            f = out[r2][pc]
            if f:
                out[r2] = [a - f * b for a, b in zip(out[r2], prow)]
    return out, pivots


def _rref_gf(rows, ncols, p):
    m = [[int(x) % p for x in row] for row in rows]
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        piv_row = None
        for r in range(pr, len(m)):
            if m[r][pc]:
                piv_row = r
                break
        if piv_row is None:
            continue
        m[pr], m[piv_row] = m[piv_row], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        m[pr] = [x * inv % p for x in m[pr]]
        top = m[pr]
        for r in range(len(m)):
            if r != pr and m[r][pc]:
                f = m[r][pc]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], top)]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m[:pr], pivots


def rref(field: FieldSpec, rows, ncols: int):
    """Canonical RREF rows (zero rows dropped) and their pivot columns."""
    if field.p is None:
        return _rref_q(rows, ncols)
    return _rref_gf(rows, ncols, field.p)


def kernel_basis(field: FieldSpec, ncols: int, rows) -> list[list[Scalar]]:
    """Exact basis of the joint kernel of `rows` (dicts or dense sequences).

    Maintains a basis of the running solution space and shrinks it one
    constraint at a time, so cost scales with ncols * solution dimension
    rather than with the (possibly huge) number of rows.
    """
    if field.p is None:
        return _kernel_basis_int(ncols, rows)
    return _kernel_basis_gf(ncols, rows, field.p)


def _kernel_basis_int(ncols, rows):
    cols = []
    for i in range(ncols):
        v = [0] * ncols
        v[i] = 1
        cols.append(v)
    for raw in rows:
        items = _int_row_items(raw)
        if not items:
            continue
        y = [sum(c * col[i] for i, c in items) for col in cols]
        pivot = next((t for t, val in enumerate(y) if val), None)
        if pivot is None:
            continue
        yt = y[pivot]
        base = cols[pivot]
        for s, ys in enumerate(y):
            if s != pivot and ys:
                col = cols[s]
                new = [yt * a - ys * b for a, b in zip(col, base)]
                g = 0
                for v in new:
                    g = gcd(g, v)
                if g > 1:
                    new = [v // g for v in new]
                cols[s] = new
        del cols[pivot]
        if not cols:
            break
    return [[Fraction(v) for v in col] for col in cols]


def _int_row_items(row) -> list[tuple[int, int]]:
    if isinstance(row, dict):
        items = sorted(row.items())
    else:
        items = [(i, c) for i, c in enumerate(row) if c]
    if any(isinstance(c, Fraction) and c.denominator != 1 for _, c in items):
        den = 1
        for _, c in items:
            den = lcm(den, Fraction(c).denominator)
        items = [(i, int(Fraction(c) * den)) for i, c in items]
    else:
        items = [(i, int(c)) for i, c in items]
    return [(i, c) for i, c in items if c]


def _kernel_basis_gf(ncols, rows, p):
    cols = []
    for i in range(ncols):
        v = [0] * ncols
        v[i] = 1
        cols.append(v)
    for raw in rows:
        if isinstance(raw, dict):
            items = [(i, int(c) % p) for i, c in sorted(raw.items())]
        else:
            items = [(i, int(c) % p) for i, c in enumerate(raw)]
        items = [(i, c) for i, c in items if c]
        if not items:
            continue
        y = [sum(c * col[i] for i, c in items) % p for col in cols]
        pivot = next((t for t, val in enumerate(y) if val), None)
        if pivot is None:
            continue
        inv = pow(y[pivot], p - 2, p)
        base = cols[pivot]
        for s, ys in enumerate(y):
            if s != pivot and ys:
                f = ys * inv % p
                cols[s] = [(a - f * b) % p for a, b in zip(cols[s], base)]
        del cols[pivot]
        if not cols:
            break
    return cols


# ---------------------------------------------------------------------------
# public value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a FieldSpec."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        data = tuple(tuple(field.of(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatchError("ragged rows")
        return cls(field, nrows, ncols, data)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(
            field, n, n,
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
        )

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int):
        return self.entries[i]

    def apply(self, vec) -> tuple:
        """Matrix-vector product m @ v."""
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vec)} != cols {self.cols}")
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero
            for a, x in zip(row, vec):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    def rank(self) -> int:
        _, pivots = rref(self.field, self.entries, self.cols)
        return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace in canonical (RREF basis) form.

    Two subspaces are equal iff their canonical bases agree entrywise, so
    dataclass equality is the subspace equality test.
    """

    field: FieldSpec
    ambient_dim: int
    basis: tuple

    @classmethod
    def span(cls, field: FieldSpec, ambient_dim: int, vectors) -> "Subspace":
        vecs = [[field.of(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector length {len(v)} != ambient {ambient_dim}")
        rows, _ = rref(field, vecs, ambient_dim)
        return cls(field, ambient_dim, tuple(tuple(r) for r in rows))

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

    @property
    def free_columns(self) -> tuple:
        piv = set(self.pivot_columns)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    def reduce(self, vec) -> list:
        """Residual of `vec` after elimination against the basis rows."""
        f = self.field
        v = [f.of(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        for row, pc in zip(self.basis, self.pivot_columns):
            c = v[pc]
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return self.field.vec_is_zero(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def coordinates_of(self, vec):
        """Coefficients of `vec` on the basis rows, or None if outside."""
        f = self.field
        v = [f.of(x) for x in vec]
        coeffs = []
        for row, pc in zip(self.basis, self.pivot_columns):
            c = v[pc]
            coeffs.append(c)
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        if not f.vec_is_zero(v):
            return None
        return coeffs

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient_dim,
                             list(self.basis) + list(other.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        return self.sum(other)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Solve x = sum a_i s_i = sum b_j t_j via the stacked kernel."""
        self._check_compatible(other)
        f = self.field
        s, t = self.dim, other.dim
        if s == 0 or t == 0:
            return Subspace.zero(f, self.ambient_dim)
        rows = []
        for k in range(self.ambient_dim):
            row = [self.basis[i][k] for i in range(s)]
            row += [f.neg(other.basis[j][k]) for j in range(t)]
            rows.append(row)
        combos = kernel_basis(f, s + t, rows)
        vecs = []
        for combo in combos:
            v = f.vec_zero(self.ambient_dim)
            for i in range(s):
                if combo[i]:
                    v = f.vec_add(v, f.vec_scale(combo[i], self.basis[i]))
            vecs.append(v)
        return Subspace.span(f, self.ambient_dim, vecs)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient {self.ambient_dim} != {other.ambient_dim}")


def kernel_of(m: Matrix) -> Subspace:
    """Exact null space of a matrix."""
    vecs = kernel_basis(m.field, m.cols, m.entries)
    return Subspace.span(m.field, m.cols, vecs)


def solve_particular(m: Matrix, b) -> Optional[tuple]:
    """One exact solution of m x = b (free variables zero), or None."""
    f = m.field
    bvec = [f.of(x) for x in b]
    if len(bvec) != m.rows:
        raise DimensionMismatchError(f"rhs length {len(bvec)} != rows {m.rows}")
    aug = [list(row) + [bv] for row, bv in zip(m.entries, bvec)]
    rows, pivots = rref(f, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = f.vec_zero(m.cols)
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.cols]
    return tuple(x)
