"""Loader fuzzing: a mutated spec or map document loads or is refused.

Each example starts from a stock spec or map document, as `gen` and
`derivations` write them, and applies one to three mutations: a value
anywhere in the tree (the root included) replaced by arbitrary JSON, or
deleted. `context_from_dict` and `map_from_dict` must then either load
or raise `SpecFileError` / `BudgetExceededError`; any other exception is
a crash that the CLI would print as a traceback.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import gmalg as G
from gmalg.fileformat import context_from_dict, context_to_dict, map_from_dict, map_to_dict

from helpers import GF101, Q


def stock_documents():
    docs = []
    for field, kind, kw in [(Q, "full_matrix", dict(r=2)),
                            (GF101, "zero_pairing", dict(s=1, t=1))]:
        ctx = G.generate_builtin(kind, field, **kw)
        docs.append(("spec", context_to_dict(ctx), None))
        g = G.assemble(ctx, validate=False)
        mmap = G.n_lie_derivation_space(g, 3)[0]
        docs.append(("map", map_to_dict(mmap), (field, g.algebra.dim)))
    return docs


STOCK = stock_documents()

# Near misses (small ints, scalar strings, field names, formats) and
# arbitrary JSON, in equal parts.
NEAR = st.integers(-3, 3) | st.sampled_from([10 ** 6, 10 ** 30, "0", "-3", "1/2",
                                             "1/0", "q", "gf:7", "gf:101", "gf:9",
                                             "gma-spec/1", "gma-map/1"])
LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(LEAVES, lambda kids: (st.lists(kids, max_size=4)
                                          | st.dictionaries(st.text(max_size=6),
                                                            kids, max_size=4)),
                    max_leaves=8)
VALUES = NEAR | JSON


def paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, prefix + (key,))


def mutate(data, doc):
    # the root last: hypothesis leans towards the first choices
    path = data.draw(st.sampled_from(list(paths(doc))[::-1]))
    delete = bool(path) and data.draw(st.booleans())
    value = None if delete else data.draw(VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_load_or_are_refused(data):
    kind, stock, instance = data.draw(st.sampled_from(STOCK))
    doc = copy.deepcopy(stock)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    try:
        if kind == "spec":
            context_from_dict(doc)
        else:
            map_from_dict(doc, *instance)
    except (G.SpecFileError, G.BudgetExceededError):
        pass
