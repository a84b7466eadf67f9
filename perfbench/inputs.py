"""Seeded inputs: a random block-diagonal change of basis of a spec file.

The benchmark builds stock contexts with `gmalg gen` and then rewrites each
block (A, M, N, B) in a new basis chosen from the seed. The program only ever
sees the rewritten spec. Every invariant the benchmark checks (space
dimensions, hypothesis verdicts, theorem applicability, uniqueness-probe
dimensions) is unchanged by such a change of basis, while the structure
constants change and, over q, get denominators.

Each change-of-basis matrix P is upper triangular. Its diagonal holds the
magnitudes 1, 2, 3, 1, 2, 3, ... with random signs in random order, and one
random entry above the diagonal is +-1. det P is the product of the diagonal,
so P is invertible over q and modulo every prime above 3 (in particular 101);
the inverses bring denominators 2 and 3 into the constants. The fixed
magnitudes and the single off-diagonal entry keep the tables sparse and the
size of the constants the same for every seed, so a seeded instance costs
about as much as the stock one whatever the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

DIAGONAL = (1, 2, 3)

# spec key -> (left block, right block, output block)
TABLES = {
    "a_mul": ("a", "a", "a"),
    "b_mul": ("b", "b", "b"),
    "act_a_m": ("a", "m", "m"),
    "act_m_b": ("m", "b", "m"),
    "act_b_n": ("b", "n", "n"),
    "act_n_a": ("n", "a", "n"),
    "pair_mn": ("m", "n", "a"),
    "pair_nm": ("n", "m", "b"),
}


def random_change(rng: random.Random, k: int) -> list:
    """A k x k upper triangular integer matrix as in the module docstring."""
    diag = [DIAGONAL[i % 3] * rng.choice((1, -1)) for i in range(k)]
    rng.shuffle(diag)
    mat = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
    if k > 1:
        i, j = sorted(rng.sample(range(k), 2))
        mat[i][j] = rng.choice((-1, 1))
    return mat


def inverse(mat: list) -> list:
    """Exact inverse over q by Gauss-Jordan elimination."""
    k = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(mat)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _decode(field: str, raw) -> Fraction:
    return Fraction(raw) if field == "q" else Fraction(int(raw))


def _encode(field: str, value: Fraction):
    if field == "q":
        return str(value)
    p = int(field.split(":", 1)[1])
    return value.numerator * pow(value.denominator, -1, p) % p


def change_basis(spec: dict, seed) -> dict:
    """Rewrite a gma-spec/1 document in a seeded block-diagonal basis.

    New basis vector i of block X is sum_j P_X[j][i] * (old basis vector j),
    so a table T : U x V -> W becomes
    T'(i, j) = P_W^-1 * sum_{a,b} P_U[a][i] P_V[b][j] T(a, b).
    """
    field = spec["field"]
    rng = random.Random(f"{seed}")
    dims = {x: spec["blocks"][f"{x}_dim"] for x in "amnb"}
    change = {x: random_change(rng, dims[x]) for x in "amnb"}
    back = {x: inverse(change[x]) for x in "amnb"}

    out = dict(spec)
    for key, (left, right, res) in TABLES.items():
        old = {}
        for i, j, k, c in spec.get(key, []):
            old.setdefault((i, j), []).append((k, _decode(field, c)))
        pu, pv, inv_w = change[left], change[right], back[res]
        quads = []
        for i in range(dims[left]):
            for j in range(dims[right]):
                image = [Fraction(0)] * dims[res]
                for (a, b), cell in old.items():
                    w = pu[a][i] * pv[b][j]
                    if w:
                        for k, c in cell:
                            image[k] += w * c
                if not any(image):
                    continue
                for k in range(dims[res]):
                    c = sum(inv_w[k][t] * image[t] for t in range(dims[res]))
                    if c and (field == "q" or _encode(field, c)):
                        quads.append([i, j, k, _encode(field, c)])
        out[key] = quads
    for unit, x in (("a_unit", "a"), ("b_unit", "b")):
        old = [_decode(field, c) for c in spec[unit]]
        out[unit] = [_encode(field, sum(back[x][k][t] * old[t]
                                        for t in range(dims[x])))
                     for k in range(dims[x])]
    return out
