"""Finite posets: queries, width and chain partitions, the edge rule that
turns a compatibility function into the relations both embedding engines
solve, and the text format that poset and graph files share.

Elements are dense 0-based indices.  The order relation is stored as a dense
n-by-n boolean matrix `leq` with leq[a, b] == True iff a <= b.  Posets are
immutable after construction and safe to share between threads; the chain
partition memoized on a poset, and the chain index it carries (per element
and chain, the positions of the least element above and the greatest element
below), are pure functions of `leq`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AntisymmetryViolation, FormatError, IndexOutOfRange
from .errors import PosetmcError, PreconditionViolation
from .instrument import OpCounter


class Relation(Enum):
    LessThan = "<"
    GreaterThan = ">"
    Equal = "="
    Incomparable = "||"


class Poset:
    """A finite poset on {0, .., n-1} backed by a read-only copy of a boolean matrix."""

    __slots__ = ("n", "leq", "_chains")

    def __init__(self, leq: np.ndarray, validate: bool = True):
        leq = np.array(leq, dtype=bool, order="C")
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise PreconditionViolation(f"leq must be square, got shape {leq.shape}")
        self.n = int(leq.shape[0])
        self.leq = leq
        self.leq.flags.writeable = False
        self._chains: tuple[int, ChainPartition] | None = None
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check reflexivity, antisymmetry and transitivity; raise if violated.

        After the diagonal, one read of `leq`: the order walk of `_hasse`
        decides whether a reflexive relation is a partial order.  Only when
        it is not does the transposed read run, to name the first pair
        a != b with a <= b <= a (AntisymmetryViolation) if there is one.
        """
        leq = self.leq
        if not leq.diagonal().all():
            raise PreconditionViolation("relation is not reflexive")
        if _hasse(leq)[2]:
            return
        twins = leq & leq.T
        np.fill_diagonal(twins, False)
        if twins.any():
            a, b = divmod(int(twins.argmax()), self.n)
            raise AntisymmetryViolation([a, b, a])
        raise PreconditionViolation("relation is not transitive")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and bool(np.array_equal(self.leq, other.leq))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.leq.tobytes()))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={cover_pairs(self)})"


@dataclass(frozen=True)
class ChainPartition:
    """A partition of a poset into width-many chains plus an antichain certificate.

    Chains are sorted by their minimum element index; each chain lists its
    elements in ascending order, which construction checks against `leq`.
    `arrays` holds the chains again as read-only int64 arrays.  The chain
    index is two read-only w-by-n int64 arrays: `above[b][x]` is the position
    on chain b of the least element >= x (len(chain b) if there is none), and
    `below[b][x]` the position of the greatest element <= x (-1 if none).
    So x <= chains[b][t] iff t >= above[b][x], and chains[b][t] <= x iff
    t <= below[b][x].

    Construction reads `leq` once, in the rows of each chain: below[b][x] is
    the count of chain b's elements <= x, less one.  In a partial order,
    chain b ascends iff below[b] reads 0, 1, .. along it.  For x at position s on chain a,
    x <= c_t iff below[a][c_t] >= s, and below[a] never decreases along
    chain b, so above[b][x] is the count of t with below[a][c_t] < s.
    """

    chains: tuple[tuple[int, ...], ...]
    chain_of: tuple[int, ...]
    antichain: tuple[int, ...]
    leq: InitVar[np.ndarray]
    arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    above: np.ndarray = field(init=False, repr=False, compare=False)
    below: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, leq: np.ndarray) -> None:
        arrays = tuple(np.array(chain, dtype=np.int64) for chain in self.chains)
        below = np.array([leq[arr, :].sum(axis=0) - 1 for arr in arrays], dtype=np.int64)
        for b, arr in enumerate(arrays):
            if not np.array_equal(below[b][arr], np.arange(len(arr))):
                raise PosetmcError(f"internal error: chain {arr.tolist()} does not ascend")
        # x sits at position below[a][x] on its chain a.  Shifted by a(n + 1),
        # row a of below[:, chain b] lies after rows < a and before rows > a,
        # so one sorted search per chain b counts the t with below[a][c_t] < s.
        a = np.array(self.chain_of, dtype=np.int64)
        shift = (len(leq) + 1) * np.arange(len(arrays))[:, None]
        keys = shift[a, 0] + below[a, np.arange(len(leq))]
        above = np.array([np.searchsorted((below[:, arr] + shift).ravel(), keys) - len(arr) * a for arr in arrays])
        for arr in (*arrays, above, below):
            arr.flags.writeable = False
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "above", above)
        object.__setattr__(self, "below", below)


def _bitrows(m: np.ndarray) -> list[int]:
    """Row i of a bool matrix as the Python int with bit j set iff m[i, j]."""
    packed = np.packbits(m, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(bitsets: list[int], n: int) -> np.ndarray:
    """The n-by-n bool matrix whose row i holds the bits of bitsets[i]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in bitsets), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _hasse(leq: np.ndarray) -> tuple[list[int], list[list[int]], bool]:
    """Covers over ranks, and whether a reflexive `leq` is a partial order.

    Ranks sort elements by down-set size, a linear extension of a partial
    order.  Above each x the walk puts the least rank c of the strict up-set
    S(x) not yet reached into above[rank of x] and reaches up(c), until all
    of S(x) is reached; each step reaches the c it takes, so the walk ends on
    any reflexive relation.  In a partial order it takes exactly x's covers,
    at most width of them: an element between x and c ranks lower, so it is
    taken or reaches c.

    Rank lemma: a reflexive `leq` is a partial order iff the reach equals
    S(x) at every x.  "Only if": each c taken is above x and not below it,
    so up(c) lies in S(x).  "If": each up(c) taken lies in S(x), so x is not
    in up(c) and |up(c)| < |up(x)|.  Induction on |up(x)| then gives
    up(y) within S(x) for every y in S(x): y lies in some up(c) taken, and
    either y = c or y is in S(c), whose up-sets lie in S(c).  So `leq` is
    transitive, and no y in S(x) has x in up(y), which is antisymmetry.
    """
    order = np.argsort(leq.sum(axis=0), kind="stable")
    up = _bitrows(leq[np.ix_(order, order)])
    above, transitive = [], True
    for r, bits in enumerate(up):
        strict = bits & ~(1 << r)
        left, reach, covers = strict, 0, []
        while left:
            c = (left & -left).bit_length() - 1
            covers.append(c)
            reach |= up[c]
            left &= ~up[c]
        above.append(covers)
        transitive = transitive and reach == strict
    return order.tolist(), above, transitive


def _check_index(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise IndexOutOfRange(f"element {i} outside [0, {n})")


def close_and_validate(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Reflexive-transitive closure of the given arcs, validated as a poset.

    Self-arcs and duplicate arcs are dropped.  Kahn's algorithm orders the
    elements along the arcs; in reverse order, each element's up-set is a
    Python-int bitset, itself plus the union of its successors' up-sets, and
    the bitsets unpack into the rows of `leq`.  Raises IndexOutOfRange for
    indices outside [0, n) and AntisymmetryViolation, naming a cycle of input
    arcs written in <= order, when the arcs leave some elements unordered.
    """
    succ: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        _check_index(u, n)
        _check_index(v, n)
        if u != v:
            succ[u].add(v)
    indegree = [0] * n
    for out in succ:
        for v in out:
            indegree[v] += 1
    order = [x for x in range(n) if not indegree[x]]
    for x in order:  # grows while it is read
        for v in succ[x]:
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    if len(order) < n:
        raise AntisymmetryViolation(_cycle_among(succ, set(range(n)).difference(order)))
    up = [0] * n
    for x in reversed(order):
        bits = 1 << x
        for v in succ[x]:
            bits |= up[v]
        up[x] = bits
    return Poset(_unpack(up, n), validate=False)


def _cycle_among(succ: list[set[int]], left: set[int]) -> list[int]:
    """A cycle of arcs through the elements Kahn's algorithm left unordered.

    Each of them keeps a predecessor among them, so walking back from one
    repeats an element; the walk between the repeats, reversed, is the cycle.
    """
    pred: dict[int, int] = {}
    for u in left:
        for v in succ[u]:
            if v in left:
                pred.setdefault(v, u)
    walk = [min(left)]
    seen = {walk[0]: 0}
    while (x := pred[walk[-1]]) not in seen:
        seen[x] = len(walk)
        walk.append(x)
    return [x, *reversed(walk[seen[x]:])]


def relate(p: Poset, a: int, b: int) -> Relation:
    """Classify the ordered pair (a, b) as Equal/LessThan/GreaterThan/Incomparable."""
    _check_index(a, p.n)
    _check_index(b, p.n)
    if a == b:
        return Relation.Equal
    ab = bool(p.leq[a, b])
    ba = bool(p.leq[b, a])
    if ab:
        return Relation.LessThan
    if ba:
        return Relation.GreaterThan
    return Relation.Incomparable


def cover_pairs(p: Poset) -> list[tuple[int, int]]:
    """The Hasse diagram: pairs (a, b) with a < b and nothing strictly between."""
    order, above, _ = _hasse(p.leq)
    return sorted((order[r], order[c]) for r, covers in enumerate(above) for c in covers)


def disjoint_union(a: Poset, b: Poset) -> Poset:
    """Side-by-side union; b's elements are shifted by a.n, no cross pairs."""
    n = a.n + b.n
    leq = np.zeros((n, n), dtype=bool)
    leq[: a.n, : a.n] = a.leq
    leq[a.n :, a.n :] = b.leq
    return Poset(leq, validate=False)


def _check_embed_inputs(q: Poset, p: Poset) -> None:
    """The rule every embedding engine applies: pattern and host are nonempty."""
    if q.n == 0:
        raise PreconditionViolation("pattern must be nonempty")
    if p.n == 0:
        raise PreconditionViolation("host must be nonempty")


def is_embedding(q: Poset, p: Poset, e: Sequence[int]) -> bool:
    """True iff e is injective and order-preserving-and-reflecting from q into p:
    the block of p.leq on e's rows and columns equals q.leq."""
    if len(e) != q.n or len(set(e)) != q.n:
        return False
    if any(not 0 <= x < p.n for x in e):
        return False
    return bool((p.leq.take(e, axis=0).take(e, axis=1) == q.leq).all())


# -- width and chain partition (Dilworth via bipartite matching) --------------
#
# Split graph: left copy of each element a, right copy of each b, with an edge
# iff a < b strictly.  A maximum matching M gives a partition into n - |M|
# chains (follow matched successor links), and n - |M| equals the width.  The
# antichain certificate comes from the complement of a minimum vertex cover.


def _max_matching(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    match_l = [-1] * n  # a -> matched b with a < b
    match_r = [-1] * n
    free_r = (1 << n) - 1
    # greedy pass: lowest free strict-upper neighbour
    for a in range(n):
        m = rows[a] & free_r
        if m:
            b = (m & -m).bit_length() - 1
            match_l[a] = b
            match_r[b] = a
            free_r ^= 1 << b
    # augmenting-path passes for the leftovers
    for a0 in range(n):
        if match_l[a0] != -1:
            continue
        visited = 0
        parent: dict[int, int] = {}
        stack: list[list[int]] = [[a0, rows[a0]]]
        end = -1
        while stack and end == -1:
            frame = stack[-1]
            rem = frame[1] & ~visited
            if not rem:
                stack.pop()
                continue
            b = (rem & -rem).bit_length() - 1
            frame[1] = rem & ~(1 << b)
            visited |= 1 << b
            parent[b] = frame[0]
            if match_r[b] == -1:
                end = b
            else:
                stack.append([match_r[b], rows[match_r[b]]])
        if end != -1:
            b = end
            while b != -1:
                a = parent[b]
                prev = match_l[a]
                match_l[a] = b
                match_r[b] = a
                b = prev
    return match_l, match_r


def _koenig_antichain(rows: list[int], match_l: list[int], match_r: list[int], n: int) -> list[int]:
    # Z = vertices reachable from unmatched left copies by alternating paths;
    # cover = (L \ Z_L) + (R & Z_R); certificate = elements with both copies uncovered.
    zl = 0
    zr = 0
    frontier = [a for a in range(n) if match_l[a] == -1]
    for a in frontier:
        zl |= 1 << a
    while frontier:
        new_r = 0
        for a in frontier:
            row = rows[a]
            if match_l[a] != -1:
                row &= ~(1 << match_l[a])
            new_r |= row
        new_r &= ~zr
        zr |= new_r
        frontier = []
        m = new_r
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            a2 = match_r[b]
            if a2 != -1 and not (zl >> a2) & 1:
                zl |= 1 << a2
                frontier.append(a2)
    return [a for a in range(n) if (zl >> a) & 1 and not (zr >> a) & 1]


def width_and_chain_partition(p: Poset) -> tuple[int, ChainPartition]:
    """Width w of the poset together with a partition into exactly w chains.

    The returned partition also carries a size-w antichain certificate, which
    is re-verified (pairwise incomparability) before returning, and the chain
    index (see `ChainPartition`).  The result is computed once per poset and
    memoized on it.
    """
    if p._chains is not None:
        return p._chains
    if p.n == 0:
        raise PreconditionViolation("width of the empty poset is not supported")
    n = p.n
    rows = [bits & ~(1 << x) for x, bits in enumerate(_bitrows(p.leq))]
    match_l, match_r = _max_matching(rows, n)
    matched = sum(1 for b in match_l if b != -1)
    w = n - matched

    heads = [a for a in range(n) if match_r[a] == -1]
    chains = []
    for h in heads:
        chain = [h]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(tuple(chain))
    if len(chains) != w:
        raise PosetmcError(f"internal error: {len(chains)} chains for width {w}")
    chains.sort(key=min)

    chain_of = [-1] * n
    for ci, chain in enumerate(chains):
        for e in chain:
            chain_of[e] = ci
    if -1 in chain_of:
        raise PosetmcError("internal error: an element lies on no chain")

    anti = _koenig_antichain(rows, match_l, match_r, n)
    if len(anti) != w:
        raise PosetmcError(f"internal error: antichain certificate of size {len(anti)} for width {w}")
    for i, a in enumerate(anti):
        for b in anti[i + 1 :]:
            if relate(p, a, b) is not Relation.Incomparable:
                raise PosetmcError(f"internal error: certificate elements {a} and {b} are comparable")
    p._chains = (w, ChainPartition(tuple(chains), tuple(chain_of), tuple(sorted(anti)), p.leq))
    return p._chains


# -- compatibility functions ----------------------------------------------------
#
# A compatibility function f maps each pattern element to a host chain.  The
# edge rule below turns f into the relations of one coloured graph, which the
# clique and CSP engines both solve (see `clique.embed_over_compat_functions`).
# Against chain b, element x is below exactly the positions >= above[b][x]
# and above exactly those <= below[b][x], so every row of a relation is an
# interval read off the chain index by array arithmetic.


def _rank_intervals(
    up: np.ndarray, down: np.ndarray, le: bool, ge: bool, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row interval [lo, hi] of the positions t < width with
    (t >= up) == le and (t <= down) == ge; empty rows get (width, -1)."""
    lo = np.maximum(up if le else 0, 0 if ge else down + 1)
    hi = np.minimum(width - 1 if le else up - 1, down if ge else width - 1)
    empty = lo > hi
    return np.where(empty, width, lo), np.where(empty, -1, hi)


class PairEntry(NamedTuple):
    """The edge rule of one pattern pair i < j under f (see `pair_relation`)."""

    rel: np.ndarray  # indexed (position on chain f[i], position on chain f[j])
    col_ivals: tuple[np.ndarray, np.ndarray]  # neighbour intervals of the columns
    nonempty: bool


def pair_relation(
    cp: ChainPartition, key: tuple[int, int, bool, bool], c: OpCounter, cache: dict | None
) -> PairEntry:
    """The edge rule for one pattern pair i < j, keyed by its only inputs.

    `key` is (a, b, i <=_Q j, j <=_Q i) with a = f[i] and b = f[j].  The
    relation keeps the host pairs (x, y), x on chain a and y on chain b, with
    x <=_P y iff i <=_Q j and y <=_P x iff j <=_Q i.  Its rows are intervals
    read off the chain index of the rows' elements against chain b; the
    column intervals kept in the entry come from that of the columns'
    elements against chain a with the two comparisons swapped.  `cache`
    memoizes entries by key; a hit counts one op, a miss one per host pair.
    """
    entry = cache.get(key) if cache is not None else None
    if entry is not None:
        c.add(1)
        return entry
    a, b, le, ge = key
    ci, cj = cp.arrays[a], cp.arrays[b]
    rows = _rank_intervals(cp.above[b][ci], cp.below[b][ci], le, ge, len(cj))
    cols = _rank_intervals(cp.above[a][cj], cp.below[a][cj], ge, le, len(ci))
    t = np.arange(len(cj))
    rel = (rows[0][:, None] <= t) & (t <= rows[1][:, None])
    entry = PairEntry(rel, cols, bool(rel.any()))
    c.add(len(ci) * len(cj))
    if cache is not None:
        cache[key] = entry
    return entry


# -- text formats ----------------------------------------------------------------
#
# Poset and graph files share one line grammar:
#
#   poset <name>         graph <name>       # optional header, at most once
#   elements <n>         vertices <n>       # count, exactly once
#   cover <u> <v>        edge <u> <v>       # pairs of 0-based ids
#
# `#` starts a comment.  In a poset file a cover means u < v and the closure
# is taken on load; `leq <u> <v>` is a synonym.


def _physical_memory() -> int:
    """Bytes of physical memory, or NumPy's index bound where that is unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


# Peak bytes per matrix cell while a poset is held and written back as text:
# its bool `leq`, then in `cover_pairs` a copy in rank order, its packed bits,
# their Python-int bitsets and the covers.  tracemalloc measures 2.85 at banded
# n = 400 and 2.27 at n = 3,200, so whole bytes round it up to 3.  The load and
# the other builders that run this check peak at 2.0 to 2.5.
DENSE_BYTES_PER_CELL = 3


def _check_dense_fits(n: int, what: str) -> None:
    """PreconditionViolation, before anything is allocated, unless a poset
    of n elements can be held and written back as text."""
    if DENSE_BYTES_PER_CELL * n * n > _physical_memory():
        raise PreconditionViolation(f"{what} do not fit a dense relation matrix")


def _parse_lines(
    text: str, header: str, count: str, pair_kinds: tuple[str, ...], noun: str, per_count: int, build: Callable
):
    """`build(n, pairs)` for a text in the shared line grammar.

    The count line's n is checked with `_check_dense_fits` for `per_count`
    poset elements each.  Every error is a FormatError, with the line number
    where one line is at fault; so are `build`'s out-of-range ids and
    precondition errors.
    """
    header_seen = False
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        try:
            if kind == header:
                if header_seen:
                    raise FormatError(f"duplicate {header!r} header")
                header_seen = True
            elif kind == count:
                if n is not None:
                    raise FormatError(f"duplicate {count!r} line")
                if len(fields) != 2 or not fields[1].isdecimal():
                    raise FormatError(f"expected '{count} <n>'")
                n = int(fields[1])
                _check_dense_fits(per_count * n, f"{n} {count}")
            elif kind in pair_kinds:
                if len(fields) != 3:
                    raise FormatError(f"expected '{kind} <u> <v>'")
                try:
                    pairs.append((int(fields[1]), int(fields[2])))
                except ValueError:
                    raise FormatError(f"non-integer {noun} id") from None
            else:
                raise FormatError(f"unknown directive {kind!r}")
        except (FormatError, PreconditionViolation) as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if n is None:
        raise FormatError(f"missing '{count} <n>' line")
    try:
        return build(n, pairs)
    except (IndexOutOfRange, PreconditionViolation) as exc:
        raise FormatError(str(exc)) from exc


def _format_lines(header: str, name: str, count: str, n: int, kind: str, pairs: Iterable) -> str:
    return f"{header} {name}\n{count} {n}\n" + "".join(f"{kind} {u} {v}\n" for u, v in pairs)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; FormatError if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def parse_poset_text(text: str) -> Poset:
    """The poset whose order is the closure of the text's cover lines."""
    return _parse_lines(text, "poset", "elements", ("cover", "leq"), "element", 1, close_and_validate)


def format_poset_text(p: Poset, name: str = "p") -> str:
    return _format_lines("poset", name, "elements", p.n, "cover", cover_pairs(p))


def load_poset(path: str) -> Poset:
    return parse_poset_text(_read_text(path))
