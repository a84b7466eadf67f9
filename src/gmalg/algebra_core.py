"""Finite-dimensional unital associative algebras given by structure constants."""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from itertools import product

from .errors import DimensionMismatchError, FieldMismatchError
from .exact_linear import FieldSpec, Scalar, Subspace, int_scaled
from .records import record

_MAX_VIOLATIONS = 16


@record
class BilinearTable:
    """Sparse constants of a bilinear map V_left x V_right -> V_out.

    entry(i, j) lists the (k, coeff) pairs of the image of the (i, j) basis
    pair. Stored flat at index i * right_dim + j.
    """

    left_dim: int
    right_dim: int
    out_dim: int
    entries: tuple

    @classmethod
    def from_quadruples(cls, field: FieldSpec, left_dim: int, right_dim: int,
                        out_dim: int, quads: Iterable) -> "BilinearTable":
        buckets: dict[tuple[int, int], dict[int, Scalar]] = {}
        for i, j, k, c in quads:
            if not (0 <= i < left_dim and 0 <= j < right_dim and 0 <= k < out_dim):
                raise DimensionMismatchError(
                    f"constant index ({i},{j},{k}) out of range "
                    f"({left_dim},{right_dim},{out_dim})")
            cell = buckets.setdefault((i, j), {})
            cell[k] = field.add(cell.get(k, field.zero), field.of(c))
        flat = []
        for i in range(left_dim):
            for j in range(right_dim):
                cell = buckets.get((i, j), {})
                flat.append(tuple((k, c) for k, c in sorted(cell.items()) if c))
        return cls(left_dim, right_dim, out_dim, tuple(flat))

    @classmethod
    def zero(cls, left_dim: int, right_dim: int, out_dim: int) -> "BilinearTable":
        return cls(left_dim, right_dim, out_dim,
                   tuple(() for _ in range(left_dim * right_dim)))

    def at(self, i: int, j: int) -> tuple:
        return self.entries[i * self.right_dim + j]

    @cached_property
    def int_entries(self) -> tuple:
        """`entries` with every constant `int_scaled` by one common factor.

        Over q the constants cleared of denominators; over GF(p) the
        residues themselves. Computed once per table.
        """
        scaled = iter(int_scaled([c for cell in self.entries for _, c in cell]))
        return tuple(tuple((k, next(scaled)) for k, _ in cell)
                     for cell in self.entries)

    @cached_property
    def int_view(self) -> "BilinearTable":
        """The same table on `int_entries`.

        Its `operator_rows` at an int vector are int rows, each a positive
        int multiple of the rational one, so with the same kernel.
        """
        return BilinearTable(self.left_dim, self.right_dim, self.out_dim,
                             self.int_entries)

    def apply(self, field: FieldSpec, x, y) -> list:
        """Bilinear extension to coordinate vectors."""
        out = field.vec_zero(self.out_dim)
        rd = self.right_dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            base = i * rd
            for j, yj in enumerate(y):
                if not yj:
                    continue
                w = xi * yj
                for k, c in self.entries[base + j]:
                    out[k] = out[k] + w * c
        if field.p is not None:
            p = field.p
            out = [v % p for v in out]
        return out

    def operator_rows(self, field: FieldSpec, left=None, right=None) -> list:
        """Output-indexed rows of the map in one argument, the other fixed.

        With left = x fixed, row k is {j: coefficient of b_k in T(x, b_j)};
        with right = y fixed, row k is {i: coefficient of b_k in T(b_i, y)}.
        Zero coefficients are dropped. One pass over the cells that the
        fixed vector's support touches.
        """
        rows = [{} for _ in range(self.out_dim)]
        rd = self.right_dim
        if right is None:
            for i, xi in enumerate(left):
                if xi:
                    for j in range(rd):
                        for k, c in self.entries[i * rd + j]:
                            row = rows[k]
                            row[j] = row.get(j, 0) + xi * c
        else:
            for j, yj in enumerate(right):
                if yj:
                    for i in range(self.left_dim):
                        for k, c in self.entries[i * rd + j]:
                            row = rows[k]
                            row[i] = row.get(i, 0) + c * yj
        return [field.sparse(row) for row in rows]

    def quadruples(self) -> list:
        quads = []
        for i in range(self.left_dim):
            for j in range(self.right_dim):
                for k, c in self.entries[i * self.right_dim + j]:
                    quads.append((i, j, k, c))
        return quads


@record
class StructureAlgebra:
    """Unital associative algebra with basis-indexed multiplication constants."""

    field: FieldSpec
    dim: int
    mul: BilinearTable
    unit: tuple

    def __post_init__(self):
        if (self.mul.left_dim, self.mul.right_dim, self.mul.out_dim) != (self.dim,) * 3:
            raise DimensionMismatchError("multiplication table shape != dim")
        if len(self.unit) != self.dim:
            raise DimensionMismatchError("unit coordinate length != dim")

    @classmethod
    def build(cls, field: FieldSpec, dim: int, quads: Iterable, unit) -> "StructureAlgebra":
        table = BilinearTable.from_quadruples(field, dim, dim, dim, quads)
        return cls(field, dim, table, tuple(field.of(x) for x in unit))

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> "Element":
        coords = tuple(self.field.of(x) for x in coords)
        if len(coords) != self.dim:
            raise DimensionMismatchError("coordinate length != dim")
        return Element(self, coords)

    @property
    def zero(self) -> "Element":
        return Element(self, tuple(self.field.vec_zero(self.dim)))

    @property
    def one(self) -> "Element":
        return Element(self, self.unit)

    # -- coordinate-level products (hot paths) --------------------------------

    def mul_coords(self, x, y) -> list:
        return self.mul.apply(self.field, x, y)

    def bracket_coords(self, x, y) -> list:
        f = self.field
        return f.vec_sub(self.mul_coords(x, y), self.mul_coords(y, x))

    @cached_property
    def bracket_table(self) -> BilinearTable:
        """Constants of the commutator [b_i, b_j] = b_i b_j - b_j b_i."""
        f, d = self.field, self.dim
        quads = self.mul.quadruples()
        quads += [(j, i, k, f.neg(c)) for i, j, k, c in quads]
        return BilinearTable.from_quadruples(f, d, d, d, quads)

    @cached_property
    def commutators(self) -> Subspace:
        """`commutator_span` of this algebra, computed on first use only."""
        return commutator_span(self)

    # -- element-level operations ---------------------------------------------

    def multiply(self, x: "Element", y: "Element") -> "Element":
        self._guard(x, y)
        return Element(self, tuple(self.mul_coords(x.coords, y.coords)))

    def bracket(self, x: "Element", y: "Element") -> "Element":
        self._guard(x, y)
        return Element(self, tuple(self.bracket_coords(x.coords, y.coords)))

    def _guard(self, *elements: "Element") -> None:
        for el in elements:
            if el.algebra is not self and el.algebra != self:
                raise FieldMismatchError("element belongs to a different algebra")


@record
class Element:
    """Coordinate vector in a fixed StructureAlgebra basis."""

    algebra: StructureAlgebra
    coords: tuple

    def __add__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra,
                       tuple(self.algebra.field.vec_add(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra,
                       tuple(self.algebra.field.vec_sub(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        f = self.algebra.field
        return Element(self.algebra, tuple(f.neg(c) for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Element":
        f = self.algebra.field
        return Element(self.algebra, tuple(f.vec_scale(f.of(c), self.coords)))

    def bracket(self, other: "Element") -> "Element":
        return self.algebra.bracket(self, other)

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def _same(self, other: "Element") -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise FieldMismatchError("elements of different algebras")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@record
class Violation:
    law: str
    indices: tuple
    detail: str = ""


@record
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        if self.ok:
            return "ok"
        v = self.first
        return f"{len(self.violations)} violation(s), first: {v.law} at {v.indices}"


def block_violations(field: FieldSpec, dims: dict, products: dict, units: dict,
                     laws, cap: int) -> list:
    """The violations of a law table on the basis of a block algebra.

    Blocks are named by capital letters. `dims` maps a block to its
    dimension, `products` maps each composable pair "XY" to its product
    table and the block the product lies in, and `units` maps a diagonal
    block to its unit coordinates.

    `laws` is a sequence of loops (outer, inner). `outer` names the blocks
    that the indices i and then j run over ("" for none); `inner` is a
    sequence of (block, group): k runs over the block, and each law of the
    group is checked at each k. A law is (name, pattern, detail). The
    pattern spells the factors x y z: i, j and k stand for the basis
    elements they index, and a lowercase letter for the unit of that
    block. Three factors check (x y) z = x (y z); two check the unit law
    1 y = y or x 1 = x. A violation records the indices of the basis
    factors in pattern order, and `detail` formatted with i, j and k.

    Products are taken on the sparse cells of the tables. The walk stops
    once `cap` violations are found, tested after each k, so a step that
    breaks several laws can go past the cap.
    """
    units = {b: {t: c for t, c in enumerate(u) if c} for b, u in units.items()}

    def mul(x, y):
        """x y for factors (block, basis index) or (block, {index: coeff}),
        at most one of them not a basis element."""
        (bx, u), (by, v) = x, y
        table, block = products[bx + by]
        if type(v) is not int:
            terms = ((c, table.at(u, t)) for t, c in v.items())
        elif type(u) is not int:
            terms = ((c, table.at(t, v)) for t, c in u.items())
        else:
            return block, dict(table.at(u, v))
        out = {}
        for c, cell in terms:
            for t, e in cell:
                out[t] = out.get(t, 0) + c * e
        return block, field.sparse(out)

    bad: list[Violation] = []
    for outer, inner in laws:
        for ij in product(*(range(dims[b]) for b in outer)):
            at = dict(zip("ij", ij))
            for block, group in inner:
                blocks = dict(zip("ij", outer), k=block)
                for k in range(dims[block]):
                    at["k"] = k
                    for name, pattern, detail in group:
                        xs = [(blocks[c], at[c]) if c in at
                              else (c.upper(), units[c.upper()]) for c in pattern]
                        indices = tuple(at[c] for c in pattern if c in at)
                        if len(xs) == 2:
                            holds = mul(*xs)[1] == {indices[0]: 1}
                        else:
                            x, y, z = xs
                            holds = mul(mul(x, y), z) == mul(x, mul(y, z))
                        if not holds:
                            bad.append(Violation(name, indices, detail.format(**at)))
                    if len(bad) >= cap:
                        return bad
    return bad


# One block: the unit laws, then associativity on every basis triple.
_ALGEBRA_LAWS = (
    ("", (("A", (("left-unit", "ak", ""), ("right-unit", "ka", ""))),)),
    ("AA", (("A", (("associativity", "ijk",
                    "(b{i} b{j}) b{k} != b{i} (b{j} b{k})"),)),)),
)


def validate_algebra(alg: StructureAlgebra) -> ValidationReport:
    """Check the two-sided unit law and associativity on all basis triples."""
    return ValidationReport(tuple(block_violations(
        alg.field, {"A": alg.dim}, {"AA": (alg.mul, "A")}, {"A": alg.unit},
        _ALGEBRA_LAWS, _MAX_VIOLATIONS)))


def stack_rows(blocks) -> list:
    """The nonempty rows of a sequence of row lists."""
    return [row for rows in blocks for row in rows if row]


def span_cells(field: FieldSpec, dim: int, cells) -> Subspace:
    """Span of table cells ((k, c), ...), each read as a vector of length dim."""
    vecs = []
    for cell in cells:
        if cell:
            v = field.vec_zero(dim)
            for k, c in cell:
                v[k] = c
            vecs.append(v)
    return Subspace.span(field, dim, vecs)


def commutator_span(alg: StructureAlgebra) -> Subspace:
    """Span of all basis-pair brackets [b_i, b_j]; the pairs i < j suffice."""
    d, bt = alg.dim, alg.bracket_table
    return span_cells(alg.field, d, (bt.at(i, j) for i in range(d)
                                     for j in range(i + 1, d)))


def is_commutative(alg: StructureAlgebra) -> bool:
    return alg.commutators.dim == 0

