"""Shared fixtures: corpus instances, independent oracles, fuzz machinery."""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import compress, count, product
from math import gcd

import gmalg as G
from gmalg.budget import guard_tuples, guard_unknowns
from gmalg.exact_linear import _int_row
from gmalg.fileformat import context_from_dict, context_to_dict, decode_scalar, encode_scalar
from gmalg.gma import structural_context
from gmalg.structure_analysis import core_algebra

Q = G.FieldSpec()
GF7 = G.FieldSpec(7)
GF101 = G.FieldSpec(101)


def matrix_algebra(field, n):
    """M_n on the matrix units e_ij in lexicographic order: the A corner of
    M_(n+1) split at n."""
    points = range(n + 1)
    return structural_context(field, [(i, j) for i in points for j in points], n).a


def corpus_contexts(field):
    """The five stock instances used across the acceptance criteria."""
    return [
        ("full_matrix_3", G.generate_builtin("full_matrix", field, r=3)),
        ("full_matrix_2", G.generate_builtin("full_matrix", field, r=2)),
        ("upper_2_1", G.generate_builtin("upper_triangular", field, s=2, t=1)),
        ("t2", G.generate_builtin("upper_triangular", field, s=1, t=1)),
        ("zero_pairing_2_1", G.generate_builtin("zero_pairing", field, s=2, t=1)),
    ]


def corpus_algebras(field):
    return [(name, G.assemble(ctx, validate=False))
            for name, ctx in corpus_contexts(field)]


def diagonal_context(field):
    """A = B = k x k on its two idempotents, M = k^2 acted on componentwise, N = 0.

    Z(G) = {(a, 0, 0, a)} has dimension 2, so the linking map is 2 x 2: the
    identity here, and not in general after `change_of_basis`.
    """
    k2 = G.StructureAlgebra.build(field, 2, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1])
    componentwise = [(0, 0, 0, 1), (1, 1, 1, 1)]
    return G.MoritaContext(
        a=k2, b=k2, m_dim=2, n_dim=0,
        act_am=G.BilinearTable.from_quadruples(field, 2, 2, 2, componentwise),
        act_mb=G.BilinearTable.from_quadruples(field, 2, 2, 2, componentwise),
        act_bn=G.BilinearTable.zero(2, 0, 0),
        act_na=G.BilinearTable.zero(0, 2, 0),
        pair_mn=G.BilinearTable.zero(2, 0, 2),
        pair_nm=G.BilinearTable.zero(0, 2, 2),
    )


def direct_sum(ctx1, ctx2):
    """The context whose blocks are the direct sums of those of ctx1 and
    ctx2, every table acting componentwise: A = A1 x A2, M = M1 + M2,
    N = N1 + N2, B = B1 x B2, and each product of a ctx1 part with a ctx2
    part is 0."""
    f = ctx1.field

    def table(t1, t2):
        quads = t1.quadruples() + [
            (t1.left_dim + i, t1.right_dim + j, t1.out_dim + k, c)
            for i, j, k, c in t2.quadruples()]
        return G.BilinearTable.from_quadruples(
            f, t1.left_dim + t2.left_dim, t1.right_dim + t2.right_dim,
            t1.out_dim + t2.out_dim, quads)

    def algebra(a1, a2):
        return G.StructureAlgebra(f, a1.dim + a2.dim, table(a1.mul, a2.mul),
                                  a1.unit + a2.unit)

    return G.MoritaContext(
        a=algebra(ctx1.a, ctx2.a), b=algebra(ctx1.b, ctx2.b),
        m_dim=ctx1.m_dim + ctx2.m_dim, n_dim=ctx1.n_dim + ctx2.n_dim,
        **{name: table(getattr(ctx1, name), getattr(ctx2, name))
           for name in ("act_am", "act_mb", "act_bn", "act_na",
                        "pair_mn", "pair_nm")})


def m2_plus_zp11(field):
    """The direct sum of full_matrix(2) and zero_pairing(1,1): the
    annihilator of M in N has dimension 1 of 2."""
    return direct_sum(G.generate_builtin("full_matrix", field, r=2),
                      G.generate_builtin("zero_pairing", field, s=1, t=1))


def mat_vec(field, rows, vec):
    """The product of the matrix with these rows and the column vec."""
    return field.combine(vec, list(zip(*rows)), len(rows))


def inverse(field, a):
    """The inverse of a nonzero field scalar."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    return 1 / Fraction(a) if field.p is None else pow(a, field.p - 2, field.p)


def basis_element(alg, i):
    """The i-th basis element of a structure algebra."""
    return alg.element(alg.field.unit(alg.dim, i))


def map_from_basis_function(alg, arity, fn):
    """The arity-n map on alg whose value at a basis tuple key is fn(key)."""
    guard_tuples("map materialization", alg.dim ** arity)
    entries = {key: fn(key) for key in product(range(alg.dim), repeat=arity)}
    return G.MultilinearMap.from_entries(alg.field, arity, alg.dim, entries)


def flatten(mmap):
    """Dense vector of length dim**(arity+1), tuple-major then component."""
    f, d, n = mmap.field, mmap.dim, mmap.arity
    out = f.vec_zero(d ** (n + 1))
    for key in mmap.entries:
        rank = 0
        for i in key:
            rank = rank * d + i
        base = rank * d
        for j, c in enumerate(mmap.value_at(key)):
            out[base + j] = c
    return out


def is_normalized(mmap):
    """The map is in its one value format: nonzero int tuples over a den that
    is positive and shares no prime with them all over q, and residues over
    den 1 over GF(p)."""
    vecs = mmap.entries.values()
    ints = [x for vec in vecs for x in vec]
    if not all(type(x) is int for x in ints) or not all(any(vec) for vec in vecs):
        return False
    if mmap.field.p is None:
        return mmap.den > 0 and gcd(mmap.den, *ints) == 1
    return mmap.den == 1 and all(0 <= x < mmap.field.p for x in ints)


def maps_span(field, arity, dim, maps):
    """Span of flattened maps, for comparing spaces as subspaces."""
    return G.Subspace.span(field, dim ** (arity + 1), [flatten(m) for m in maps])


def reduce(space, vec):
    """Dense residual of `vec` after elimination against the RREF basis rows
    of `space`, with the field's scalar operations: the membership oracle."""
    f = space.field
    v = [f.of(x) for x in vec]
    if len(v) != space.ambient_dim:
        raise G.DimensionMismatchError("ambient dimension mismatch")
    for row, pc in zip(space.basis, space.pivot_columns):
        c = v[pc]
        if c:
            v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
    return v


def probe_kernel_dim_by_flats(g, n):
    """The uniqueness probe's kernel dimension from the extremal maps
    themselves: the kernel of the matrix whose columns are the flattened
    kappa maps of the admissible seeds."""
    adm = G.extremal_exists(g).offdiag_annihilator
    if adm.dim == 0:
        return 0
    dm = g.context.m_dim
    flats = [flatten(G.build_extremal(g, g.embed_m(v[:dm]) + g.embed_n(v[dm:]), n))
             for v in adm.basis]
    return len(G.kernel_basis(g.field, len(flats), [list(r) for r in zip(*flats)]))


def contains_subspace(space, other) -> bool:
    return all(space.contains(row) for row in other.basis)


def condition(report, number):
    """The `CheckStatus` of condition `number` in a `HypothesisReport`."""
    for n, st in report.conditions:
        if n == number:
            return st
    raise KeyError(number)


# ---------------------------------------------------------------------------
# independent naive elimination oracle (plain FieldSpec arithmetic)
# ---------------------------------------------------------------------------


def naive_rref(field, rows, ncols):
    """Gauss-Jordan with the field's scalar operations, one entry at a time."""
    m = [[field.of(x) for x in row] for row in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        piv = None
        for r in range(pr, len(m)):
            if m[r][pc] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = inverse(field, m[pr][pc])
        m[pr] = [field.mul(x, inv) for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return [row for row in m[:pr]], pivots


def dense_kernel_basis(field, ncols, rows):
    """`kernel_basis` on a dense running basis, as an exact-equality oracle.

    The same elimination rules (lowest free column as pivot, fraction-free
    update and content division over q, v - (ys / yt) * pivot mod p over
    GF(p)) on a coordinate-major list of lists: T[i][s] is coordinate i of
    surviving vector s, and every update walks all ncols coordinates.
    """
    p = field.p
    T = [[0] * ncols for _ in range(ncols)]
    for i, Ti in enumerate(T):
        Ti[i] = 1
    for row in rows:
        items = _int_row(field, row)
        if not items:
            continue
        (i0, c0), *rest = items
        y = [c0 * a for a in T[i0]]
        for i, c in rest:
            y = [v + c * a for v, a in zip(y, T[i])]
        if p is not None:
            y = [v % p for v in y]
        # the first s with y[s] != 0
        pivot = next(compress(count(), y), None)
        if pivot is None:
            continue
        yt = y.pop(pivot)
        base = [Ti.pop(pivot) for Ti in T]
        active = [(s, ys) for s, ys in enumerate(y) if ys]
        if p is None:
            for Ti, b in zip(T, base):
                for s, ys in active:
                    Ti[s] = yt * Ti[s] - ys * b
            for s, _ in active:
                g = gcd(*(Ti[s] for Ti in T))
                if g > 1:
                    for Ti in T:
                        Ti[s] //= g
        else:
            inv = pow(yt, p - 2, p)
            active = [(s, ys * inv % p) for s, ys in active]
            for Ti, b in zip(T, base):
                if b:
                    for s, fs in active:
                        Ti[s] = (Ti[s] - fs * b) % p
        if not y:
            break
    return [list(col) for col in zip(*T)]


# ---------------------------------------------------------------------------
# oracles on the assembled algebra
# ---------------------------------------------------------------------------

PierceParts = namedtuple("PierceParts", "a m n b")


def pierce_project(g, x):
    """Split x into exe, exf, fxe, fxf, reading each in block coordinates."""
    alg = g.algebra
    ex = alg.mul_coords(g.e.coords, x.coords)
    xf__ = alg.mul_coords(x.coords, g.f.coords)
    exe = alg.mul_coords(ex, g.e.coords)
    exf = alg.mul_coords(ex, g.f.coords)
    fxe = alg.mul_coords(alg.mul_coords(g.f.coords, x.coords), g.e.coords)
    fxf = alg.mul_coords(g.f.coords, xf__)
    o = g.offsets
    da, dm, dn, db = g.context.dims
    return PierceParts(
        a=tuple(exe[0:da]),
        m=tuple(exf[o[1]:o[1] + dm]),
        n=tuple(fxe[o[2]:o[2] + dn]),
        b=tuple(fxf[o[3]:o[3] + db]),
    )


def assemble_element(g, a, m, n, b):
    """The element of G with block coordinates a, m, n and b."""
    return g.algebra.element([*a, *m, *n, *b])


def linked_image(field, cd, avec):
    """eta(avec) in B, for avec in `cd.a_part`, through the matrix a_to_b."""
    coords = mat_vec(field, cd.a_to_b, cd.a_part.coordinates_of(avec))
    return field.combine(coords, cd.b_part.basis, cd.b_part.ambient_dim)


def link_violations(g, cd):
    """The (law, a, module index) at which a.m = m.eta(a) or n.a = eta(a).n
    fails, for a over `cd.a_part.basis` and m, n over the module bases."""
    ctx, f = g.context, g.field
    _, dm, dn, _ = ctx.dims
    bad = []
    for a in cd.a_part.basis:
        b = linked_image(f, cd, a)
        for j in range(dm):
            m = f.unit(dm, j)
            if ctx.act_am.apply(f, a, m) != ctx.act_mb.apply(f, m, b):
                bad.append(("a.m", a, j))
        for j in range(dn):
            n = f.unit(dn, j)
            if ctx.act_na.apply(f, n, a) != ctx.act_bn.apply(f, b, n):
                bad.append(("n.a", a, j))
    return bad


def inner_derivation_space(alg):
    """Span of the maps ad_{b_i} : y -> [b_i, y], flattened like
    `derivation_space`."""
    d, f = alg.dim, alg.field
    vecs = []
    for i in range(d):
        flat = f.vec_zero(d * d)
        for t, row in enumerate(alg.bracket_table.operator_rows(f, left=f.unit(d, i))):
            for s, c in row.items():
                flat[t * d + s] = c
        vecs.append(flat)
    return G.Subspace.span(f, d * d, vecs)


def all_derivations_inner(alg):
    return inner_derivation_space(alg) == G.derivation_space(alg)


def lie_leibniz_rows(alg, n):
    """Rows of the law T(..[u,v]..) = [T(..u..), b_v] + [b_u, T(..v..)],
    slot by slot, for the oracle below.

    Unknowns are component-major: t*d**n + rank is the coefficient of b_t
    in T at the basis tuple of that rank (first slot most significant).
    Rows run over slot, spectator tuple, pairs u < v and the output
    component t, read off the bracket table's int view.
    """
    d, f = alg.dim, alg.field
    table = alg.bracket_table.int_view
    size = d ** n
    units = [[int(i == j) for i in range(d)] for j in range(d)]
    # by_right[v][t] = {s: [b_s, b_v]_t}, by_left[u][t] = {s: [b_u, b_s]_t}
    by_right = [table.operator_rows(f, right=e) for e in units]
    by_left = [table.operator_rows(f, left=e) for e in units]
    rows = []
    for slot in range(n):
        st = d ** (n - 1 - slot)
        for spect in range(d ** (n - 1)):
            base = (spect // st) * (st * d) + spect % st
            for u in range(d):
                for v in range(u + 1, d):
                    at_u, at_v = base + u * st, base + v * st
                    for t in range(d):
                        row = {t * size + base + w * st: c
                               for w, c in table.at(u, v)}
                        for s, c in by_right[v][t].items():
                            key = s * size + at_u
                            row[key] = row.get(key, 0) - c
                        for s, c in by_left[u][t].items():
                            key = s * size + at_v
                            row[key] = row.get(key, 0) - c
                        if row:
                            rows.append(row)
    return rows


def n_lie_derivation_space_direct(g, n):
    """Dense-kernel oracle for `n_lie_derivation_space`: one unknown per
    tensor entry, the Leibniz law of every slot at once."""
    alg = core_algebra(g)
    if n < 1:
        raise G.DimensionMismatchError("arity must be >= 1")
    d, f = alg.dim, alg.field
    nunk = d ** (n + 1)
    guard_unknowns("direct space", nunk)
    size = d ** n
    sols = G.kernel_basis(f, nunk, lie_leibniz_rows(alg, n))
    # component-major kernel vectors, reordered tuple-major like flatten()
    flat_space = G.Subspace.span(f, nunk, [
        [sol[t * size + rank] for rank in range(size) for t in range(d)]
        for sol in sols])
    maps = []
    for flat in flat_space.basis:
        entries = {}
        for rank, key in enumerate(product(range(d), repeat=n)):
            vec = flat[rank * d:(rank + 1) * d]
            if any(vec):
                entries[key] = tuple(vec)
        maps.append(G.MultilinearMap.from_entries(f, n, d, entries))
    return maps


def _dense_values(mmap):
    d, n = mmap.dim, mmap.arity
    vals = [None] * (d ** n)
    zero = mmap.field.vec_zero(d)
    for key in mmap.entries:
        rank = 0
        for i in key:
            rank = rank * d + i
        vals[rank] = list(mmap.value_at(key))
    for r in range(len(vals)):
        if vals[r] is None:
            vals[r] = zero
    return vals


def swap_identity_check(g, mmap):
    """Bracket identity every Lie biderivation satisfies, on basis 4-tuples.

    [m(x,y),[v,u]] + [m(x,v),[u,y]] = [m(u,y),[v,x]] + [m(u,v),[x,y]].

    Follows from expanding m([x,u],[y,v]) through either slot first and
    cancelling with the Jacobi identity. (A widely copied variant brackets
    the third term with [x,v]; that version already fails for the inner
    biderivation (x,y) -> [x,y], see test_multilinear.)
    """
    alg = g.algebra
    if mmap.arity != 2:
        raise G.DimensionMismatchError("identity applies to arity-2 maps")
    d, f = alg.dim, alg.field
    bt = alg.bracket_table

    def bvec(i, j):
        out = f.vec_zero(d)
        for k, c in bt.at(i, j):
            out[k] = c
        return out

    def br(x, y):
        return f.vec_sub(alg.mul_coords(x, y), alg.mul_coords(y, x))

    vals = _dense_values(mmap)
    for x in range(d):
        for y in range(d):
            m_xy = vals[x * d + y]
            for u in range(d):
                m_uy = vals[u * d + y]
                for v in range(d):
                    lhs = f.vec_add(br(m_xy, bvec(v, u)),
                                    br(vals[x * d + v], bvec(u, y)))
                    rhs = f.vec_add(br(m_uy, bvec(v, x)),
                                    br(vals[u * d + v], bvec(x, y)))
                    if lhs != rhs:
                        return G.CheckStatus("fail", witness=(x, y, u, v))
    return G.CheckStatus("pass")


# ---------------------------------------------------------------------------
# context fuzzing
# ---------------------------------------------------------------------------

_TABLE_SHAPES = (
    ("a_mul", lambda d: (d[0], d[0], d[0])),
    ("b_mul", lambda d: (d[3], d[3], d[3])),
    ("act_a_m", lambda d: (d[0], d[1], d[1])),
    ("act_m_b", lambda d: (d[1], d[3], d[1])),
    ("act_b_n", lambda d: (d[3], d[2], d[2])),
    ("act_n_a", lambda d: (d[2], d[0], d[2])),
    ("pair_mn", lambda d: (d[1], d[2], d[0])),
    ("pair_nm", lambda d: (d[2], d[1], d[3])),
)


def perturbation_sites(ctx):
    """Every dense constant slot plus the unit coordinates."""
    dims = ctx.dims
    sites = []
    for name, shape in _TABLE_SHAPES:
        li, ri, oi = shape(dims)
        for i in range(li):
            for j in range(ri):
                for k in range(oi):
                    sites.append((name, i, j, k))
    for k in range(dims[0]):
        sites.append(("a_unit", k))
    for k in range(dims[3]):
        sites.append(("b_unit", k))
    return sites


def perturb_context(ctx, site, delta=1):
    """Return a copy of ctx with one constant bumped by delta."""
    data = context_to_dict(ctx)
    f = ctx.field
    if site[0] in ("a_unit", "b_unit"):
        _, k = site
        vec = data[site[0]]
        vec[k] = encode_scalar(f, f.add(decode_scalar(f, vec[k]), f.of(delta)))
    else:
        name, i, j, k = site
        data[name] = data[name] + [[i, j, k, encode_scalar(f, f.of(delta))]]
    return context_from_dict(data)


# ---------------------------------------------------------------------------
# centrally-valued random maps
# ---------------------------------------------------------------------------


def quotient_coordinates(g):
    """Per-basis-element coordinates in G/[G, G] (vanish on commutators)."""
    alg = g.algebra
    span = G.commutator_span(alg)
    free = [j for j in range(alg.dim) if j not in span.pivot_columns]
    lam = []
    for i in range(alg.dim):
        v = alg.field.vec_zero(alg.dim)
        v[i] = alg.field.one
        res = reduce(span, v)
        lam.append([res[c] for c in free])
    return lam, len(free)


def random_central_map(g, n, rng):
    """Random map into Z(G) that kills commutator classes in every slot."""
    alg = g.algebra
    f = alg.field
    lam, qdim = quotient_coordinates(g)
    z = G.center(alg)
    if qdim == 0 or z.dim == 0:
        return G.MultilinearMap.zero(f, n, alg.dim)
    coeffs = {}
    for key in _tuples(qdim, n):
        for s in range(z.dim):
            if f.p is None:
                c = f.of(rng.randint(-4, 4))
            else:
                c = rng.randrange(f.p)
            if c:
                coeffs[key + (s,)] = c

    def fn(key):
        out = f.vec_zero(alg.dim)
        for qkey_s, c in coeffs.items():
            qkey, s = qkey_s[:-1], qkey_s[-1]
            w = c
            for slot, qi in enumerate(qkey):
                w = f.mul(w, lam[key[slot]][qi])
                if not w:
                    break
            if w:
                out = f.vec_add(out, f.vec_scale(w, z.basis[s]))
        return out

    return map_from_basis_function(alg, n, fn)


def _tuples(base, length):
    if length == 0:
        yield ()
        return
    for rest in _tuples(base, length - 1):
        for i in range(base):
            yield rest + (i,)


# ---------------------------------------------------------------------------
# seeded change of basis: dense, non-0/1 constants
# ---------------------------------------------------------------------------

# Diagonal magnitudes cycle through (1, 2, 3) starting at a fixed place per
# block, so even one-dimensional blocks are rescaled (A by 2, B by 3) and the
# constants over q carry denominators 2 and 3 whatever the seed.
_MAGNITUDE_START = {"a": 1, "m": 0, "n": 0, "b": 2}


def _block_change(field, rng, k, start):
    """Upper triangular P and its inverse for one block.

    The diagonal holds the cycled magnitudes with random signs in random
    order; one random entry above it is +-1 when k > 1.
    """
    diag = [(1, 2, 3)[(start + i) % 3] * rng.choice((1, -1)) for i in range(k)]
    rng.shuffle(diag)
    mat = [[field.of(diag[i] if i == j else 0) for j in range(k)]
           for i in range(k)]
    if k > 1:
        i, j = sorted(rng.sample(range(k), 2))
        mat[i][j] = field.of(rng.choice((1, -1)))
    inv = [[field.zero] * k for _ in range(k)]
    for col in range(k):
        for i in reversed(range(k)):
            acc = field.one if i == col else field.zero
            for j in range(i + 1, k):
                acc = field.sub(acc, field.mul(mat[i][j], inv[j][col]))
            inv[i][col] = field.mul(acc, inverse(field, mat[i][i]))
    return mat, inv


def change_of_basis(ctx, seed):
    """Rewrite ctx in a seeded block-diagonal basis of A, M, N and B.

    New basis vector i of a block is sum_j P[j][i] * (old vector j), so a
    table T : U x V -> W becomes T'(i, j) = P_W^-1 T(P_U e_i, P_V e_j) and a
    unit u becomes P^-1 u. The result is a valid context isomorphic to ctx.
    """
    f = ctx.field
    rng = random.Random(seed)
    change = {x: _block_change(f, rng, k, _MAGNITUDE_START[x])
              for x, k in zip("amnb", ctx.dims)}

    def to_new(x, vec):
        inv = change[x][1]
        out = f.vec_zero(len(inv))
        for i, row in enumerate(inv):
            for j, c in enumerate(row):
                out[i] = f.add(out[i], f.mul(c, vec[j]))
        return out

    def rewrite(table, left, right, res):
        pu, pv = change[left][0], change[right][0]

        quads = []
        for i in range(table.left_dim):
            for j in range(table.right_dim):
                old = table.apply(f, [row[i] for row in pu], [row[j] for row in pv])
                quads += [(i, j, k, c) for k, c in enumerate(to_new(res, old)) if c]
        return G.BilinearTable.from_quadruples(
            f, table.left_dim, table.right_dim, table.out_dim, quads)

    def algebra(alg, x):
        return G.StructureAlgebra(f, alg.dim, rewrite(alg.mul, x, x, x),
                                  tuple(to_new(x, alg.unit)))

    return G.MoritaContext(
        a=algebra(ctx.a, "a"), b=algebra(ctx.b, "b"),
        m_dim=ctx.m_dim, n_dim=ctx.n_dim,
        act_am=rewrite(ctx.act_am, "a", "m", "m"),
        act_mb=rewrite(ctx.act_mb, "m", "b", "m"),
        act_bn=rewrite(ctx.act_bn, "b", "n", "n"),
        act_na=rewrite(ctx.act_na, "n", "a", "n"),
        pair_mn=rewrite(ctx.pair_mn, "m", "n", "a"),
        pair_nm=rewrite(ctx.pair_nm, "n", "m", "b"),
    )
