"""Spans around the library's layers, installed from the benchmark's own code.

The tracer replaces module attributes that the library looks up at call time
(for example `posetmc.clique.build_colored_graph`) with wrappers that record
a span per call: name, start, end, parent span and decision id.  Spans stay
in memory and are written out when the run ends; per-layer self times are
derived from them.  A hook whose target no longer exists is recorded as
absent, so the benchmark keeps running across refactors of `src/`.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager


def _template_count(args, kwargs):
    return lambda templates: {"items": len(templates)}


def _pair_cache(args, kwargs):
    """build_colored_graph / build_csp (q, p, f, cp, counter, cache): one lookup
    per pattern pair; new entries in the cache dict are the misses."""
    cache = kwargs.get("cache", args[5] if len(args) > 5 else None)
    before = len(cache) if cache is not None else 0
    pairs = args[0].n * (args[0].n - 1) // 2

    def after(_):
        misses = pairs if cache is None else len(cache) - before
        return {"pairs": pairs, "pair_hits": pairs - misses}

    return after


def _dp_entries(args, kwargs):
    """Entries of the MinK/MaxK tables above the trivial size-1 row."""

    def after(table):
        tables = (getattr(table, "_min", None), getattr(table, "_max", None))
        if None in tables:
            return None
        return {"dp_entries": sum(len(t[i]) for t in tables for i in range(2, len(t)))}

    return after


# (layer span name, module, attribute, dict key or None, count hook or None).
# Internal calls between hooked functions of one layer nest spans of the same
# name; self times keep them from being counted twice.
HOOKS = [
    ("generators.build", "posetmc.generators", "banded_poset", None, None),
    ("generators.build", "posetmc.generators", "random_poset", None, None),
    ("generators.build", "posetmc.generators", "poset_of_graph", None, None),
    ("generators.build", "posetmc.generators", "independent_poset", None, None),
    ("generators.build", "posetmc.generators", "stack_posets", None, None),
    ("generators.build", "posetmc.generators", "or_compose", None, None),
    ("poset.load", "posetmc.poset", "parse_poset_text", None, None),
    ("logic.parse", "posetmc.logic", "parse_sentence", None, None),
    ("reduction.model_check", "posetmc.reduction", "model_check", None, None),
    ("reduction.enumerate", "posetmc.reduction", "enumerate_templates", None, _template_count),
    ("logic.eval_matrix", "posetmc.reduction", "eval_matrix", None, None),
    ("clique.embed", "posetmc.clique", "embed_via_clique", None, None),
    ("clique.embed", "posetmc.reduction", "_SOLVERS", "clique", None),
    ("csp.embed", "posetmc.csp", "embed_via_csp", None, None),
    ("csp.embed", "posetmc.reduction", "_SOLVERS", "csp", None),
    ("poset.width", "posetmc.clique", "width_and_chain_partition", None, None),
    ("poset.width", "posetmc.csp", "width_and_chain_partition", None, None),
    ("clique.build", "posetmc.clique", "build_colored_graph", None, _pair_cache),
    ("clique.solve", "posetmc.clique", "solve_multicolored_clique", None, None),
    ("clique.solve", "posetmc.clique", "compute_clique_tables", None, _dp_entries),
    ("csp.build", "posetmc.csp", "build_csp", None, _pair_cache),
    ("csp.solve", "posetmc.csp", "solve_min_closed", None, None),
    ("poset.verify", "posetmc.clique", "is_embedding", None, None),
    ("poset.verify", "posetmc.csp", "is_embedding", None, None),
]


def _hook_name(hook: tuple) -> str:
    return ".".join(hook[1:3]) + (f"[{hook[3]!r}]" if hook[3] is not None else "")


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, start, end, parent index or -1, decision id]
        self.spans: list[list] = []
        # "<span name>.<count>": totals reported by the count hooks
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.decision = "setup"
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.decision])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _iterate(self, name: str, it):
        """Time every step of a lazy result, so a generator is not timed as free."""
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[f"{name}.items"] += 1
            yield item

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            after = count(args, kwargs) if count is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, types.GeneratorType):
                return self._iterate(name, result)
            if after is not None:
                increments = after(result)
                if increments is None:
                    self._mark_absent(f"{name} count on {fn.__name__}")
                for key, value in (increments or {}).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    # -- installation --------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every hook that exists; restore the originals on exit."""
        restore = []
        for hook in HOOKS:
            name, module_name, attr, key, count = hook
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            holder = getattr(module, attr, None)
            if key is not None:
                if not isinstance(holder, dict) or key not in holder:
                    self._mark_absent(_hook_name(hook))
                    continue
                target, original = holder, holder[key]
                holder[key] = self._wrap(name, original, count)
            else:
                if not callable(holder):
                    self._mark_absent(_hook_name(hook))
                    continue
                target, key, original = module, attr, holder
                setattr(module, attr, self._wrap(name, original, count))
            restore.append((target, key, original))
        try:
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    # -- results --------------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per span name: duration minus the part covered by direct children."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] += end - start - child[i]
        return out

    def span_counts(self, first: int = 0, last: int | None = None) -> Counter:
        return Counter(s[0] for s in self.spans[first:last])

    def tested_templates(self, first: int = 0, last: int | None = None) -> int:
        """Embedding calls made by model_check, one per template tested."""
        return sum(
            1
            for name, _, _, parent, _ in self.spans[first:last]
            if name in ("clique.embed", "csp.embed")
            and parent >= 0
            and self.spans[parent][0] == "reduction.model_check"
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# absent hooks: {', '.join(self.absent) or 'none'}\n")
            fh.write("index\tname\tstart\tend\tparent\tdecision\n")
            for i, (name, start, end, parent, decision) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{decision}\n")
