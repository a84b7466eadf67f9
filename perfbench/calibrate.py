"""Fixed pure-Python reference work that measures how fast the machine is now.

run.py starts this script as a fresh process before every pass, the way it
starts `gmalg`: the same interpreter start, much the same standard-library
imports, and exact `Fraction` arithmetic over a sparse bilinear table. It
never imports `gmalg`, so a change to the program cannot change its time.
"""

import argparse  # noqa: F401  (the stdlib modules a gmalg process imports)
import dataclasses  # noqa: F401
import hashlib
import itertools
import json
import random
import tempfile  # noqa: F401
from fractions import Fraction

ROUNDS = 40


def main() -> None:
    rng = random.Random(0)
    d = 12
    table = {}
    for i, j in itertools.product(range(d), repeat=2):
        table[i, j] = tuple((k, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                            for k in rng.sample(range(d), 3))
    vecs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(ROUNDS)]
    total = [Fraction(0)] * d
    for x, y in zip(vecs, reversed(vecs)):
        out = [Fraction(0)] * d
        for (i, j), cell in table.items():
            w = x[i] * y[j]
            if w:
                for k, c in cell:
                    out[k] += w * c
        total = [a + b for a, b in zip(total, out)]
    text = json.dumps([str(t) for t in total], sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    main()
