"""Operation counting for solver instrumentation (benchmarks, scaling tests)."""

from __future__ import annotations


class OpCounter:
    """Counts abstract elementary operations and solver branches.

    `ops` accumulates the number of elementary steps a straightforward
    (non-vectorised) implementation would perform; vectorised code paths
    add the size of the work they batch.  `branches` counts the leaves of an
    embedding solver's pruned prefix tree that it solves: compatibility
    functions whose pattern pairs all have nonempty relations.  A leaf
    recomputes only the classes whose prefix changed since the last one,
    and a prefix without a partial solution is cut with its leaves.
    """

    __slots__ = ("ops", "branches")

    def __init__(self) -> None:
        self.ops = 0
        self.branches = 0

    def add(self, n: int = 1) -> None:
        self.ops += int(n)
