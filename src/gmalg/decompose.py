"""Splitting an n-Lie derivation into a nested-bracket part plus a central part.

The seed element is read off the Peirce blocks: eval the map on (e, ..., e)
and keep its M block plus (-1)^n times its N block, which on a validated
context are e..f and f..e. The seed has no A or B part, and Z(G) lies in
A (+) B, so the seed is central exactly when it is zero. When the seed lies in
W = {s : [[G, G], s] = 0}, its iterated ad-brackets give an extremal
n-derivation and the remainder is checked for central values; the seed check
is `W.contains`.

A validated context fixes two more answers, read off the grading by ad e,
which is 0 on A (+) B, 1 on M and -1 on N. The admissible seeds, W's part on
M (+) N, are the solutions of the linear existence conditions, and no
nonzero admissible seed has a zero extremal map: both are proved where they
are used, in `extremal_exists` and `probe_seed_uniqueness`.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra_core import Element, stack_rows
from .budget import guard_tuples
from .errors import ExtremalPreconditionError, LieLeibnizError
from .exact_linear import Subspace, kernel_basis
from .gma import GMAlgebra
from .multilinear import (MultilinearMap, _leibniz_predicate,
                          is_centrally_valued, is_n_lie_derivation,
                          n_lie_derivation_space)
from .records import record
from .structure_analysis import VARIANTS, CheckStatus, check_hypotheses


def extract_seed(g: GMAlgebra, mmap: MultilinearMap) -> Element:
    """e m(e,...,e) f + (-1)^n f m(e,...,e) e.

    The unit laws of a validated context make e x f the M block of x and
    f x e its N block, so both are read off the coordinates.
    """
    n = mmap.arity
    value = mmap.evaluate([g.e] * n).coords
    _, lo, mid, hi = g.offsets
    n_part = g.embed_n(value[mid:hi])
    return g.embed_m(value[lo:mid]) + (-n_part if n % 2 else n_part)


def build_extremal(g: GMAlgebra, seed: Element, n: int) -> MultilinearMap:
    """Materialize (x_1, ..., x_n) -> [x_1, [x_2, ..., [x_n, seed]...]].

    Requires the seed to lie in W = `double_bracket_annihilator(g)`, that
    is to commute with the commutator span; a central seed is accepted and
    simply produces the zero map.
    """
    alg = g.algebra
    d, f = alg.dim, alg.field
    if not double_bracket_annihilator(g).contains(seed.coords):
        raise ExtremalPreconditionError(seed.coords)
    guard_tuples("extremal materialization", d ** n)
    layer = {(): list(seed.coords)}
    for _ in range(n):
        nxt = {}
        for key, vec in layer.items():
            # rows[k] = {i: coefficient of b_k in [vec, b_i]}
            rows = alg.bracket_table.operator_rows(f, left=vec)
            for i in range(d):
                out = [f.neg(row.get(i, f.zero)) for row in rows]
                if any(out):
                    nxt[(i,) + key] = out
        layer = nxt
    return MultilinearMap.from_entries(f, n, d, layer)


@record
class DecompositionChecks:
    seed_annihilates_commutators: bool
    central_part_is_central: CheckStatus
    exact_sum: bool
    seed_is_central: bool


@record
class Decomposition:
    seed: Element
    extremal_part: MultilinearMap
    central_part: MultilinearMap
    checks: DecompositionChecks


def decompose(g: GMAlgebra, mmap: MultilinearMap) -> Decomposition:
    """Split a verified n-Lie derivation as extremal part + remainder.

    The remainder is reported with honest check flags; nothing is assumed
    from the decomposition theorems, so a failing hypothesis simply shows up
    as a non-central remainder.
    """
    ok = is_n_lie_derivation(g, mmap)
    if not ok:
        raise LieLeibnizError(ok.witness)
    return _split(g, mmap)


def _split(g: GMAlgebra, mmap: MultilinearMap) -> Decomposition:
    """The split of `decompose`, for a map already checked to satisfy the law."""
    n = mmap.arity
    seed = extract_seed(g, mmap)
    try:
        extremal = build_extremal(g, seed, n)
        annihilates = True
    except ExtremalPreconditionError:
        extremal = MultilinearMap.zero(g.field, n, g.dim)
        annihilates = False
    central_part = mmap.sub(extremal)
    checks = DecompositionChecks(
        seed_annihilates_commutators=annihilates,
        central_part_is_central=is_centrally_valued(g, central_part),
        exact_sum=extremal.add(central_part) == mmap,
        seed_is_central=seed.is_zero,
    )
    return Decomposition(seed, extremal, central_part, checks)


# ---------------------------------------------------------------------------
# existence of nonzero extremal maps
# ---------------------------------------------------------------------------


@record
class ExtremalExistence:
    """The off-diagonal seeds of nonzero extremal maps, with a witness.

    annihilator is W = {x in G : [[G, G], x] = 0}; offdiag_annihilator is
    its projection to M (+) N coordinates, which on a validated context is
    W meet M (+) N. solution is the same subspace: the solutions of the
    linear existence conditions, as `extremal_exists` proves.
    """

    exists: bool
    witness: tuple | None
    solution: Subspace
    annihilator: Subspace
    offdiag_annihilator: Subspace


def extremal_exists(g: GMAlgebra) -> ExtremalExistence:
    """The off-diagonal seeds m0 + n0 of a nonzero extremal map.

    The linear conditions are [A,A] m0 = 0 = n0 [A,A], m0 [B,B] = 0 =
    [B,B] n0 and m0 N = N m0 = M n0 = n0 M = 0. On a validated context they
    cut out W's projection to M (+) N, so that projection is the solution:

    - M and N lie in [G, G], since [e, m] = m and [e, n] = -n. For c in
      [A,A], [B,B], M or N the bracket [c, m0 + n0] has its parts in
      different blocks, and it vanishes exactly when the conditions on c
      hold. [G, G] is spanned by [A,A], [B,B], M, N and the [m, n], and a
      seed that commutes with M and N commutes with every [m, n] by the
      Jacobi identity. So the solutions are W meet M (+) N.
    - W is ad e-stable, because [G, G] is, and (ad e)^2 is the projection
      of G onto M (+) N. So W's projection to M (+) N lies in W, and it is
      W meet M (+) N.

    The witness is the first basis vector of that subspace.
    """
    annihilator = double_bracket_annihilator(g)
    lo, hi = g.offsets[1], g.offsets[3]
    offdiag = Subspace.span(g.field, hi - lo, [list(v[lo:hi])
                                               for v in annihilator.basis])
    witness = None
    if offdiag.dim:
        vec, dm = offdiag.basis[0], g.context.m_dim
        witness = (g.embed_m(vec[:dm]), g.embed_n(vec[dm:]))
    return ExtremalExistence(offdiag.dim > 0, witness, offdiag,
                             annihilator, offdiag)


@lru_cache(maxsize=None)
def double_bracket_annihilator(g: GMAlgebra) -> Subspace:
    """Brute force {x : [c, x] = 0 for all c in the commutator span}."""
    alg = g.algebra
    d, f = alg.dim, alg.field
    span = alg.commutators
    rows = stack_rows(alg.bracket_table.operator_rows(f, left=cvec)
                      for cvec in span.basis)
    return Subspace.span(f, d, kernel_basis(f, d, rows))


# ---------------------------------------------------------------------------
# uniqueness probe and corpus verification
# ---------------------------------------------------------------------------


@record
class UniquenessProbe:
    """Kernel of seed -> extremal map on the admissible off-diagonal space.

    A nonzero kernel would exhibit distinct seeds with identical extremal
    maps. On a validated context the kernel is 0 (`probe_seed_uniqueness`).
    """

    admissible_dim: int
    kernel_dim: int

    @property
    def unique_on_probe(self) -> bool:
        return self.kernel_dim == 0


def probe_seed_uniqueness(g: GMAlgebra, n: int) -> UniquenessProbe:
    """The admissible seeds s with kappa_s = 0: on a validated context, 0.

    kappa_s = [x_1, [x_2, ..., [x_n, s]...]] vanishes for all x exactly when
    s lies in Z_n, the n-th term of the upper central series. Then
    kappa_s(e, ..., e) = (ad e)^n s = 0. ad e is 1 on M and -1 on N, so an
    admissible seed m0 + n0 gives m0 + (-1)^n n0 = 0, that is m0 = n0 = 0.
    The admissible seeds are `extremal_exists`' offdiag_annihilator.
    """
    return UniquenessProbe(extremal_exists(g).offdiag_annihilator.dim, 0)


@record
class VerificationReport:
    arity: int
    space_dim: int
    hypothesis_reports: tuple  # (HypothesisReport, ...)
    theorem_applicable: bool
    verdicts: tuple  # ((Decomposition, triangular seed form or None), ...)
    uniqueness: UniquenessProbe
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_decomposition(g: GMAlgebra, n: int) -> VerificationReport:
    """Decompose every basis element of the n-Lie derivation space.

    One pass of the Leibniz predicate checks the whole space first, and each
    map is then split. exact-sum is asserted unconditionally; seed-annihilation
    and central remainders are asserted only when one hypothesis set fully
    passes. The triangular seed form f T(e, ..., e) e = 0 is recorded as a
    pass whenever the context has N = 0: f G e is the N block, so the form
    holds there on every map.
    """
    reports = tuple(check_hypotheses(g, v) for v in VARIANTS)
    applicable = any(r.all_pass for r in reports)
    space = n_lie_derivation_space(g, n)
    for ok in _leibniz_predicate(g, space, lie=True):
        if not ok:
            raise LieLeibnizError(ok.witness)
    tri_ok = True if g.context.n_dim == 0 else None
    verdicts = []
    failures = []
    for idx, mmap in enumerate(space):
        dec = _split(g, mmap)
        if not dec.checks.exact_sum:
            failures.append(f"element {idx}: parts do not sum back")
        if applicable:
            if not dec.checks.seed_annihilates_commutators:
                failures.append(
                    f"element {idx}: seed fails double-bracket annihilation")
            if not dec.checks.central_part_is_central.ok:
                failures.append(f"element {idx}: remainder not centrally valued")
        verdicts.append((dec, tri_ok))
    uniq = probe_seed_uniqueness(g, n)
    return VerificationReport(
        arity=n,
        space_dim=len(space),
        hypothesis_reports=reports,
        theorem_applicable=applicable,
        verdicts=tuple(verdicts),
        uniqueness=uniq,
        failures=tuple(failures),
    )
