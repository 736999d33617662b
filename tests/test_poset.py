import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetmc as pm
from posetmc.poset import DENSE_BYTES_PER_CELL, cover_pairs
from conftest import antichain, chain, diamond


def test_close_transitivity_forced():
    p = pm.close_and_validate(3, [(0, 1), (1, 2)])
    assert p.leq[0, 2]


def test_close_two_cycle_rejected():
    with pytest.raises(pm.AntisymmetryViolation) as exc:
        pm.close_and_validate(2, [(0, 1), (1, 0)])
    assert 0 in exc.value.cycle and 1 in exc.value.cycle


def test_close_singleton_reflexive_only():
    p = pm.close_and_validate(1, [])
    assert p.n == 1 and p.leq[0, 0]
    assert int(p.leq.sum()) == 1


def test_close_index_out_of_range():
    with pytest.raises(pm.IndexOutOfRange):
        pm.close_and_validate(2, [(0, 2)])


def test_relate_cases():
    c2 = chain(2)
    assert pm.relate(c2, 0, 1) is pm.Relation.LessThan
    assert pm.relate(c2, 1, 0) is pm.Relation.GreaterThan
    assert pm.relate(c2, 1, 1) is pm.Relation.Equal
    a2 = antichain(2)
    assert pm.relate(a2, 0, 1) is pm.Relation.Incomparable


def test_cover_pairs_examples():
    assert pm.cover_pairs(chain(3)) == [(0, 1), (1, 2)]
    assert pm.cover_pairs(antichain(2)) == []
    # diamond 0 < {1,2} < 3: scanned against the cover definition
    assert sorted(pm.cover_pairs(diamond())) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_cover_pairs_match_definition_on_randoms(rng):
    for _ in range(25):
        p = pm.random_poset(rng.randint(1, 9), rng.uniform(0, 1), rng.randrange(2**30))
        covers = set(pm.cover_pairs(p))
        for a in range(p.n):
            for b in range(p.n):
                strict = a != b and p.leq[a, b]
                middle = any(
                    c not in (a, b) and p.leq[a, c] and p.leq[c, b] for c in range(p.n)
                )
                assert ((a, b) in covers) == (strict and not middle)


def test_cover_roundtrip(rng):
    for _ in range(25):
        p = pm.random_poset(rng.randint(1, 10), rng.uniform(0, 1), rng.randrange(2**30))
        again = pm.close_and_validate(p.n, pm.cover_pairs(p))
        assert again == p


def test_width_independent_triple():
    p = pm.independent_poset(3)
    w, cp = pm.width_and_chain_partition(p)
    assert w == 3
    assert cp.chains == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert pm.width_and_chain_partition(p) is pm.width_and_chain_partition(p)


def test_width_single_chain():
    w, cp = pm.width_and_chain_partition(chain(6))
    assert w == 1 and len(cp.chains) == 1


def test_width_empty_poset_rejected():
    empty = pm.close_and_validate(0, [])
    with pytest.raises(pm.PreconditionViolation):
        pm.width_and_chain_partition(empty)


def test_width_matches_bruteforce_random_seeded():
    p = pm.random_poset(10, 0.35, 7)
    w, _ = pm.width_and_chain_partition(p)
    assert w == pm.brute_force_width(p)


def _assert_partition_sound(p, w, cp):
    seen = sorted(e for ch in cp.chains for e in ch)
    assert seen == list(range(p.n))
    assert len(cp.chains) == w
    for ci, ch in enumerate(cp.chains):
        for a, b in zip(ch, ch[1:]):
            assert p.leq[a, b]
        for e in ch:
            assert cp.chain_of[e] == ci
    assert len(cp.antichain) == w
    for i, a in enumerate(cp.antichain):
        for b in cp.antichain[i + 1 :]:
            assert pm.relate(p, a, b) is pm.Relation.Incomparable
    assert list(cp.chains) == sorted(cp.chains, key=min)


def test_chain_partition_soundness_and_certificate(rng):
    for _ in range(40):
        p = pm.random_poset(rng.randint(1, 12), rng.uniform(0, 1), rng.randrange(2**30))
        w, cp = pm.width_and_chain_partition(p)
        assert w == pm.brute_force_width(p)
        _assert_partition_sound(p, w, cp)


@st.composite
def index_hosts(draw):
    """Hosts of at most 16 elements from the generator families the engines meet."""
    kind = draw(st.sampled_from(["random", "banded", "graph", "stack", "union"]))

    def random_host(max_n):
        n = draw(st.integers(1, max_n))
        return pm.random_poset(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**30)))

    if kind == "random":
        return random_host(16)
    if kind == "banded":
        w = draw(st.integers(1, 4))
        n = draw(st.integers(w, 16))
        offsets = draw(st.lists(st.integers(0, 2), min_size=w, max_size=w))
        return pm.banded_poset(n, w, draw(st.integers(1, 3)), offsets)
    if kind == "graph":
        n = draw(st.integers(1, 5))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        return pm.poset_of_graph(pm.SimpleGraph.from_edges(n, draw(st.lists(pairs, max_size=8))))
    if kind == "stack":
        return pm.stack_posets([random_host(5) for _ in range(draw(st.integers(1, 3)))])
    return pm.disjoint_union(random_host(8), random_host(8))


def _matrix_intervals(mat):
    """Per-row [first, last] neighbour, contiguity asserted; empty rows (width, -1)."""
    lo, hi = [], []
    for row in mat:
        hits = np.flatnonzero(row)
        assert len(hits) == 0 or hits[-1] - hits[0] + 1 == len(hits)
        lo.append(hits[0] if len(hits) else mat.shape[1])
        hi.append(hits[-1] if len(hits) else -1)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def _slice_rule(p, cp, key):
    """The edge rule read straight off `leq` slices, intervals off the matrix."""
    ci, cj = cp.chains[key[0]], cp.chains[key[1]]
    mat = (p.leq[np.ix_(ci, cj)] == key[2]) & (p.leq[np.ix_(cj, ci)].T == key[3])
    return mat, _matrix_intervals(mat), _matrix_intervals(mat.T), bool(mat.any())


@settings(max_examples=150, deadline=None)
@given(index_hosts())
def test_pair_relation_matches_slice_rule(p):
    w, cp = pm.width_and_chain_partition(p)
    cache = {}
    for a in range(w):
        for b in range(w):
            for le in (False, True):
                for ge in (False, True):
                    key = (a, b, le, ge)
                    c = pm.OpCounter()
                    entry = pm.poset.pair_relation(cp, key, c, cache)
                    assert c.ops == len(cp.chains[a]) * len(cp.chains[b])
                    rel, _, cols, nonempty = _slice_rule(p, cp, key)
                    assert entry.rel.dtype == bool and np.array_equal(entry.rel, rel)
                    for got, want in zip(entry.col_ivals, cols):
                        assert got.dtype == np.int64 and np.array_equal(got, want)
                    assert entry.nonempty is nonempty
                    c = pm.OpCounter()
                    assert pm.poset.pair_relation(cp, key, c, cache) is entry and c.ops == 1


@settings(max_examples=100, deadline=None)
@given(index_hosts())
def test_chain_index_matches_definition(p):
    w, cp = pm.width_and_chain_partition(p)
    assert cp.above.shape == cp.below.shape == (w, p.n)
    assert not cp.above.flags.writeable and not cp.below.flags.writeable
    for b, chain_b in enumerate(cp.chains):
        for x in range(p.n):
            up = [t for t, y in enumerate(chain_b) if p.leq[x, y]]
            down = [t for t, y in enumerate(chain_b) if p.leq[y, x]]
            assert cp.above[b][x] == (up[0] if up else len(chain_b))
            assert cp.below[b][x] == (down[-1] if down else -1)


def _large_index_hosts():
    """Banded hosts of 1,600 elements whose Dilworth chains differ in length, and an antichain."""
    hosts = [pm.banded_poset(1600, w, band=1, offsets=[2 * b for b in range(w)]) for w in range(1, 7)]
    return hosts + [pm.close_and_validate(400, [])]


@pytest.mark.parametrize("p", _large_index_hosts(), ids=[*(f"banded-w{w}" for w in range(1, 7)), "antichain"])
def test_chain_index_matches_column_count_on_large_hosts(p):
    # `above` is derived from `below`; here it is counted off the columns of `leq`
    w, cp = pm.width_and_chain_partition(p)
    if 1 < w < p.n:
        assert len({len(arr) for arr in cp.arrays}) > 1
    want = np.array([len(arr) - p.leq[:, arr].sum(axis=1) for arr in cp.arrays])
    assert cp.above.shape == (w, p.n) and np.array_equal(cp.above, want)


def test_chain_index_rejects_unsorted_chain():
    with pytest.raises(pm.PosetmcError, match="does not ascend"):
        pm.ChainPartition(((1, 0),), (0, 0), (0,), chain(2).leq)


def _pairwise_embedding(q, p, e):
    """Reference: the definition, one ordered pair of pattern elements at a time."""
    if len(e) != q.n or len(set(e)) != q.n or any(not 0 <= x < p.n for x in e):
        return False
    return all(q.leq[i, j] == p.leq[e[i], e[j]] for i in range(q.n) for j in range(q.n))


def test_is_embedding_matches_pairwise_definition(rng):
    for _ in range(300):
        p = pm.random_poset(rng.randint(1, 10), rng.uniform(0, 1), rng.randrange(2**30))
        e = rng.sample(range(p.n), rng.randint(0, p.n))
        if rng.random() < 0.5:
            q = pm.Poset(p.leq[np.ix_(e, e)])
        else:
            q = pm.random_poset(len(e), rng.uniform(0, 1), rng.randrange(2**30))
        if e and rng.random() < 0.3:
            e[rng.randrange(len(e))] = rng.choice([e[0], -1, p.n])  # a repeat or out of range
        for given in (e, tuple(e), np.array(e, dtype=np.int64)):
            assert pm.is_embedding(q, p, given) is _pairwise_embedding(q, p, e)


def test_disjoint_union_examples():
    two = pm.disjoint_union(chain(1), chain(1))
    assert pm.relate(two, 0, 1) is pm.Relation.Incomparable
    a = pm.random_poset(5, 0.5, 3)
    assert pm.disjoint_union(a, pm.close_and_validate(0, [])) == a
    u = pm.disjoint_union(pm.independent_poset(2), pm.independent_poset(3))
    w, _ = pm.width_and_chain_partition(u)
    assert w == 5


def test_poset_equality_and_immutability():
    p = chain(3)
    with pytest.raises(ValueError):
        p.leq[0, 0] = False
    a = np.eye(2, dtype=bool)
    copied = pm.Poset(a)
    assert a.flags.writeable
    a[0, 1] = True
    assert not copied.leq[0, 1]


_NOT_TRANSITIVE = np.eye(3, dtype=bool)
_NOT_TRANSITIVE[0, 1] = _NOT_TRANSITIVE[1, 2] = True  # missing 0 <= 2


@pytest.mark.parametrize(
    "leq",
    [np.ones((2, 3), dtype=bool), np.zeros((2, 2), dtype=bool), _NOT_TRANSITIVE],
    ids=["non-square", "non-reflexive", "non-transitive"],
)
def test_poset_bad_matrix_is_typed_error(leq):
    with pytest.raises(pm.PosetmcError):
        pm.Poset(leq)
    if leq.shape[0] == leq.shape[1]:
        with pytest.raises(pm.PosetmcError):
            pm.Poset(leq, validate=False).validate()


@st.composite
def arc_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=10,
        )
    )
    return n, arcs


@settings(max_examples=60, deadline=None)
@given(arc_posets())
def test_closure_axioms_full_scan(case):
    n, arcs = case
    p = pm.close_and_validate(n, arcs)
    leq = p.leq
    for a in range(n):
        assert leq[a, a]
        for b in range(n):
            if a != b and leq[a, b]:
                assert not leq[b, a]
            for c in range(n):
                if leq[a, b] and leq[b, c]:
                    assert leq[a, c]


@settings(max_examples=40, deadline=None)
@given(arc_posets())
def test_width_duality_hypothesis(case):
    n, arcs = case
    p = pm.close_and_validate(n, arcs)
    w, cp = pm.width_and_chain_partition(p)
    assert w == pm.brute_force_width(p)
    _assert_partition_sound(p, w, cp)


def _squaring_closure(n, arcs):
    """Reference closure by repeated boolean squaring; None when antisymmetry fails."""
    leq = np.eye(n, dtype=bool)
    for u, v in arcs:
        leq[u, v] = True
    while True:
        nxt = leq | (leq.astype(np.int64) @ leq.astype(np.int64) > 0)
        if np.array_equal(nxt, leq):
            break
        leq = nxt
    both = leq & leq.T
    np.fill_diagonal(both, False)
    return None if both.any() else leq


@st.composite
def any_arcs(draw):
    """Arcs in any orientation, with self-arcs, duplicates and cycles."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(arc, max_size=3 * n))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=4)) if arcs else []
    return n, arcs


@settings(max_examples=300, deadline=None)
@given(any_arcs())
def test_closure_matches_squaring_reference(case):
    n, arcs = case
    want = _squaring_closure(n, arcs)
    if want is None:
        with pytest.raises(pm.AntisymmetryViolation) as exc:
            pm.close_and_validate(n, arcs)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and len(set(cycle)) >= 2
        assert all(pair in arcs for pair in zip(cycle, cycle[1:]))
    else:
        p = pm.close_and_validate(n, arcs)
        assert p.leq.dtype == bool and p.leq.shape == (n, n)
        assert p.leq.flags.c_contiguous and not p.leq.flags.writeable
        assert p.leq.tobytes() == want.tobytes()


def test_random_poset_is_the_closure_of_its_draws(rng):
    for _ in range(40):
        n, density, seed = rng.randint(0, 14), rng.uniform(0, 1), rng.randrange(2**30)
        draws = random.Random(seed)
        arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if draws.random() < density]
        leq = pm.random_poset(n, density, seed).leq
        assert leq.flags.c_contiguous and leq.tobytes() == _squaring_closure(n, arcs).tobytes()


def test_large_banded_host_survives_text_roundtrip():
    host = pm.banded_poset(1600, 3, band=1)
    assert pm.parse_poset_text(pm.format_poset_text(host)) == host


def test_poset_text_roundtrip(rng):
    for _ in range(10):
        p = pm.random_poset(rng.randint(1, 9), rng.uniform(0, 1), rng.randrange(2**30))
        text = pm.format_poset_text(p, name="t")
        assert pm.parse_poset_text(text) == p


def test_poset_text_leq_synonym_and_comments():
    text = "# a comment\nposet t\nelements 3\nleq 0 1\ncover 1 2  # tail comment\n"
    p = pm.parse_poset_text(text)
    assert p.leq[0, 2]


def test_poset_text_elements_over_memory_is_error():
    # about 9 TB for the bool matrix alone; rejected before anything is allocated
    with pytest.raises(pm.FormatError, match="3000000 elements"):
        pm.parse_poset_text("poset t\nelements 3000000\n")


def test_dense_cap_matches_write_back_peak():
    # the held relation and `cover_pairs` at a modest size; the cap's factor
    # must cover the measured peak per cell and be no whole byte above it
    n = 400
    leq = pm.banded_poset(n, 3, band=1).leq
    tracemalloc.start()
    try:
        cover_pairs(pm.Poset(leq, validate=False))  # Poset copies leq: the held relation
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert DENSE_BYTES_PER_CELL - 1 < peak / (n * n) <= DENSE_BYTES_PER_CELL


def _peak_per_cell(build, n):
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n)


_BANDED_400 = pm.banded_poset(400, 3, band=1).leq
_STACK_PARTS = [pm.banded_poset(100, 2, band=1) for _ in range(4)]
_PATH_GRAPH = pm.SimpleGraph.from_edges(133, [(v, v + 1) for v in range(132)])
_BANDED_TEXT = pm.format_poset_text(pm.banded_poset(1600, 3, band=1))


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: pm.banded_poset(400, 3, band=1), 400),
        (lambda: pm.poset_of_graph(_PATH_GRAPH), 399),
        (lambda: pm.stack_posets(_STACK_PARTS), 400),
        (lambda: pm.random_poset(400, 0.5, 7), 400),
        (lambda: pm.random_poset(400, 1.0, 7), 400),
        (lambda: pm.parse_poset_text(_BANDED_TEXT), 1600),  # O(n) text terms are small here
        (lambda: pm.Poset(_BANDED_400), 400),
    ],
    ids=["banded", "poset_of_graph", "stack", "random-0.5", "random-1.0", "load", "validate"],
)
def test_guarded_builders_fit_the_dense_cap(build, n):
    # every builder behind `_check_dense_fits`, and the validating constructor,
    # at sizes far below the cap
    assert _peak_per_cell(build, n) <= DENSE_BYTES_PER_CELL


def _matmul_covers(leq):
    """Reference: the covers read off the float32 product of the strict relation."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    inbetween = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    return [(int(a), int(b)) for a, b in np.argwhere(strict & ~inbetween)]


def _matmul_validate(leq):
    """Reference: validation with the transitivity check as a float32 product."""
    if len(leq) == 0:
        return
    if not leq.diagonal().all():
        raise pm.PreconditionViolation("relation is not reflexive")
    sym = leq & leq.T
    np.fill_diagonal(sym, False)
    if sym.any():
        a, b = map(int, np.argwhere(sym)[0])
        raise pm.AntisymmetryViolation([a, b, a])
    if (((leq.astype(np.float32) @ leq.astype(np.float32)) > 0.5) & ~leq).any():
        raise pm.PreconditionViolation("relation is not transitive")


def _outcome(check, leq):
    try:
        check(leq)
    except pm.PosetmcError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def flipped_posets(draw):
    """Posets of at most nine elements with up to three cells flipped."""
    n = draw(st.integers(0, 9))
    leq = pm.random_poset(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**30))).leq.copy()
    if n:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            leq[a, b] = not leq[a, b]
    return leq


def _complete_bipartite(half):
    leq = np.eye(2 * half, dtype=bool)
    leq[:half, half:] = True
    return leq


@settings(max_examples=400, deadline=None)
@given(flipped_posets())
@example(np.zeros((0, 0), dtype=bool))
@example(np.ones((1, 1), dtype=bool))
@example(_complete_bipartite(5))
def test_bitset_kernel_matches_float_product(leq):
    want = _outcome(_matmul_validate, leq)
    assert _outcome(pm.Poset, leq) == want
    if want is None:
        assert pm.cover_pairs(pm.Poset(leq)) == _matmul_covers(leq)


def _reflexive_relations(max_n):
    """Every reflexive relation on at most max_n points, as a bool matrix."""
    for n in range(max_n + 1):
        cells = [(a, b) for a in range(n) for b in range(n) if a != b]
        for bits in range(1 << len(cells)):
            leq = np.eye(n, dtype=bool)
            for k, (a, b) in enumerate(cells):
                leq[a, b] = bool(bits >> k & 1)
            yield leq


def _is_partial_order(leq):
    n = len(leq)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    antisymmetric = not any(leq[a, b] and leq[b, a] for a, b in pairs)
    return antisymmetric and all(leq[a, c] or not (leq[a, b] and leq[b, c]) for a, b in pairs for c in range(n))


def test_walk_decides_partial_order():
    # the rank lemma without its antisymmetry premise, on every reflexive
    # relation of at most four points: the walk alone validates a poset
    relations = orders = 0
    for leq in _reflexive_relations(4):
        want = _is_partial_order(leq)
        assert pm.poset._hasse(leq)[2] is want
        assert _outcome(pm.Poset, leq) == _outcome(_matmul_validate, leq)
        relations, orders = relations + 1, orders + want
    assert (relations, orders) == (4166, 243)


def test_poset_text_errors():
    with pytest.raises(pm.FormatError):
        pm.parse_poset_text("poset t\ncover 0 1\n")  # no elements line
    with pytest.raises(pm.FormatError):
        pm.parse_poset_text("poset t\nelements 2\nfrob 0 1\n")
    with pytest.raises(pm.FormatError):
        pm.parse_poset_text("poset t\nelements 2\ncover 0 5\n")
