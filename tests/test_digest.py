"""Pinned behaviour digest of both embedding engines.

One SHA-256 over the JSON of (verdict, witness, ops, branches) for every
(instance, engine) of a seeded corpus built from `generators` alone: banded
weak orders with planted and NO four-element patterns, triangle stacks of
the hardness construction against I_2, and small random pairs.  A change
that claims the same behaviour must leave the digest as it is; a change
that alters witnesses or the `ops`/`branches` accounting on purpose records
the new digest and says why.
"""

import hashlib
import json
import random

import numpy as np

import posetmc as pm

DIGEST = "384122c99be621ce86eb7123e4159cd2c9fd42f06030ce22123c34f968809b08"

# Four-element shapes with no induced copy in a weak order of width 3: the
# antichain is too wide, and the others are not weak orders themselves.
_NO_SHAPES = {
    "antichain": [],
    "N": [(0, 2), (1, 2), (1, 3)],
    "2+2": [(0, 1), (2, 3)],
    "3+1": [(0, 1), (1, 2)],
    "2+1+1": [(0, 1)],
}


def _relabel(leq: np.ndarray, perm) -> pm.Poset:
    return pm.Poset(leq[np.ix_(perm, perm)])


def _corpus():
    """(name, pattern, host, expected verdict or None) in a fixed order."""
    rng = random.Random(1302)
    for n in (24, 41, 60):
        host = pm.banded_poset(n, 3, band=1, offsets=rng.sample((0, 1, 2), 3))
        for t in range(3):
            elements = rng.sample(range(n), 4)
            yield f"banded{n}/planted{t}", pm.Poset(host.leq[np.ix_(elements, elements)]), host, True
        for shape, arcs in _NO_SHAPES.items():
            perm = rng.sample(range(4), 4)
            yield f"banded{n}/{shape}", _relabel(pm.close_and_validate(4, arcs).leq, perm), host, False
    i2 = pm.independent_poset(2)
    triangle = ((0, 1), (0, 2), (1, 2))
    graphs = {"triangle": triangle, **{f"triangle-{e}": [x for x in triangle if x != e] for e in triangle}}
    for name, edges in graphs.items():
        yield f"graph/{name}", i2, pm.poset_of_graph(pm.SimpleGraph.from_edges(3, edges)), None
    for stack in (("triangle", "triangle"), ("triangle", "triangle-(0, 1)"), ("triangle",) * 3):
        parts = [(pm.poset_of_graph(pm.SimpleGraph.from_edges(3, graphs[g])), 2) for g in stack]
        host, _ = pm.or_compose(parts)
        yield f"stack/{'+'.join(stack)}", i2, host, None
    for t in range(40):
        q = pm.random_poset(rng.randint(1, 5), rng.uniform(0.0, 1.0), rng.randrange(2**30))
        p = pm.random_poset(rng.randint(1, 12), rng.uniform(0.0, 1.0), rng.randrange(2**30))
        yield f"random{t}", _relabel(q.leq, rng.sample(range(q.n), q.n)), p, None


def _records():
    out = []
    for name, pattern, host, expected in _corpus():
        for engine, embed in (("clique", pm.embed_via_clique), ("csp", pm.embed_via_csp)):
            c = pm.OpCounter()
            e = embed(pattern, host, c)
            if expected is not None:
                assert (e is not None) == expected, name
            witness = None if e is None else [int(x) for x in e]
            out.append([name, engine, e is not None, witness, c.ops, c.branches])
    return out


def test_behaviour_digest_pinned():
    records = _records()
    assert len(records) == 2 * (3 * (3 + len(_NO_SHAPES)) + 4 + 3 + 40)
    assert sum(r[2] for r in records) > 0 and not all(r[2] for r in records)
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
