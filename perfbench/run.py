"""Benchmark for posetmc: seeded decision workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload embed-banded --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run reports end-to-end metrics with nothing wrapped.  With
--trace 1 it wraps the library's layers (see tracer.py) and reports
per-layer metrics.  Times are scaled to a reference machine speed that
`speed_probe` measures alongside every decision.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md.
"""

from __future__ import annotations

import os

# One process, one decision at a time: keep BLAS and OpenMP to one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ENGINES = ("clique", "csp")
SETUP_REPS = 5
SETUP_SECONDS = 1.0
MIN_PASSES = 3
PROBE_REF_S = 0.004  # speed-probe time that defines the reference machine speed


def _load_library():
    if not (SRC / "posetmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def decide(d, engine: str, counter):
    """One library call through module attributes, so tracer hooks apply."""
    from posetmc import clique, csp, reduction

    if d.sentence is not None:
        return reduction.model_check(d.sentence, d.host, solver=engine, counter=counter)
    embed = clique.embed_via_clique if engine == "clique" else csp.embed_via_csp
    e = embed(d.pattern, d.host, counter)
    return e is not None, e


_PROBE_GRID = np.arange(3600).reshape(60, 60) % 7 < 3


def speed_probe() -> float:
    """Seconds for a fixed job that uses no posetmc code but the kind of work
    the library does: fancy-indexed NumPy boolean blocks, small reductions,
    tuple-keyed dict updates and Python loops.  Its time tracks the speed of
    a shared machine, which drifts by up to 2x over seconds to minutes."""
    start = time.perf_counter()
    acc = 0
    table: dict[tuple, int] = {}
    for i in range(200):
        rows = [(i + 3 * k) % 60 for k in range(20)]
        block = _PROBE_GRID[np.ix_(rows, rows)]
        mask = (block == block.T) & block
        acc += int(mask.any()) + int(mask.sum())
        key = (i % 9, i % 4, bool(acc & 1))
        table[key] = table.get(key, 0) + 1
        acc += sum(x for x in range(20) if x % 3)
    return time.perf_counter() - start


class Calls:
    """Every call made, with its latency and outcome; verified after timing."""

    def __init__(self) -> None:
        # (engine, decision, seconds, verdict, witness, error, pass number)
        self.records: list[tuple] = []
        self.counters: dict[str, list] = {e: [] for e in ENGINES}
        self.probes: dict[int, list[float]] = {}  # speed-probe times per pass

    def run(self, d, engine: str, pass_no: int = 0) -> float:
        from posetmc import OpCounter

        counter = OpCounter()
        start = time.perf_counter()
        try:
            verdict, witness = decide(d, engine, counter)
            error = None
        except Exception as exc:  # a raise is a failed decision, not a crashed run
            verdict, witness, error = None, None, repr(exc)
        seconds = time.perf_counter() - start
        self.records.append((engine, d, seconds, verdict, witness, error, pass_no))
        self.counters[engine].append(counter)
        return seconds

    def run_pass(self, decisions, pass_no: int = 0, tracer=None, probe: bool = False) -> float:
        """Every decision on both engines, alternating which goes first;
        with `probe`, a speed probe runs before each decision."""
        total = 0.0
        for i, d in enumerate(decisions):
            if tracer is not None:
                tracer.decision = f"pass{pass_no}:{d.index}"
            if probe:
                self.probes.setdefault(pass_no, []).append(speed_probe())
            order = ENGINES if (i + pass_no) % 2 == 0 else ENGINES[::-1]
            for engine in order:
                total += self.run(d, engine, pass_no)
        return total

    def latencies(self, engine: str, scaled: bool) -> list[float]:
        """Per decision, the median over passes of its latency; `scaled`
        multiplies each by PROBE_REF_S over the median probe of its pass."""
        runs: dict[int, list[float]] = {}
        for r in self.records:
            if r[0] == engine:
                scale = PROBE_REF_S / statistics.median(self.probes[r[6]]) if scaled else 1.0
                runs.setdefault(r[1].index, []).append(r[2] * scale)
        return [statistics.median(v) for v in runs.values()]


class References:
    """Expected verdicts: by construction, from reference.json, or computed."""

    def __init__(self, workload, seed: int, decisions) -> None:
        from workloads import inputs_digest

        self.workload = workload
        self.known: dict[int, bool] = {}
        self.note = "computed"
        try:
            committed = json.loads((HERE / "reference.json").read_text()).get(workload.name, {}).get(str(seed))
        except (OSError, ValueError):
            committed = None
        if committed is not None:
            if committed["digest"] == inputs_digest(decisions):
                self.known = {i: v == "Y" for i, v in enumerate(committed["verdicts"])}
                self.note = "reference.json"
            else:
                self.note = "reference.json digest differs from these inputs; computed"

    def expect(self, d) -> bool:
        if d.expect is not None:
            return d.expect
        if d.index not in self.known:
            self.known[d.index] = self.workload.reference(d)
        return self.known[d.index]


def verify(calls: Calls, refs: References) -> tuple[int, int, list[str]]:
    from workloads import witness_ok

    failed, problems = 0, []
    for engine, d, _, verdict, witness, error, _ in calls.records:
        if error is not None:
            why = error
        elif verdict != refs.expect(d):
            why = f"verdict {verdict}, expected {not verdict}"
        elif verdict and not witness_ok(d, witness):
            why = f"witness {witness} fails the definition"
        else:
            continue
        failed += 1
        problems.append(f"{engine} decision {d.index} ({d.stratum}): {why}")
    return len(calls.records), failed, problems


def latency_stats(seconds: list[float]) -> dict:
    """Throughput, median, and the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would fall under the median, so the tail
    is then the upper median; `tail_percentile` says which one was taken.
    """
    lat = sorted(seconds)
    n = len(lat)
    rank = max(n - 11, n // 2)
    return {
        "samples": n,
        "decisions_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[rank] * 1e3,
        "tail_percentile": round(100.0 * (rank + 1) / n, 2),
    }


def setup(workload, seed: int, tracer=None, repeats=SETUP_REPS, seconds=SETUP_SECONDS):
    """Build the decision list at least `repeats` times and for at least
    `seconds`, so a set-up of a few milliseconds still gets a steady median.
    Returns the last list, every build time, and per build the tracer's
    layer self times."""
    times, layers = [], []
    while len(times) < repeats or sum(times) < seconds:
        first = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        decisions = workload.build(seed, workload.count)
        times.append(time.perf_counter() - start)
        if tracer:
            layers.append(tracer.self_times(first))
    return decisions, times, layers


def warm_up(workload, decisions) -> None:
    """Run the first decisions once per engine before any timing."""
    Calls().run_pass(decisions[: workload.warmup])


def end_to_end(decisions, seconds: float, between_passes) -> tuple[Calls, int]:
    """Passes over the whole list, both engines per decision, with a speed
    probe before each decision: at least MIN_PASSES, and more while another
    should end within `seconds`.  `between_passes` runs after every pass."""
    calls = Calls()
    start = time.perf_counter()
    passes = 0
    while True:
        calls.run_pass(decisions, pass_no=passes, probe=True)
        passes += 1
        between_passes()
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            return calls, passes


def sign_assignments(q: int) -> int:
    """Sum over set partitions of q variables into b blocks of 3^C(b, 2)."""
    stirling = [[1]]
    for n in range(1, q + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return sum(stirling[q][b] * 3 ** math.comb(b, 2) for b in range(1, q + 1))


def traced(workload, decisions, seconds: float, tracer) -> tuple[Calls, dict]:
    """Alternate untraced and traced passes over a fixed prefix until time is up.

    Counts come from the first traced pass, which always follows the same
    calls, so they repeat exactly for a seed.  Layer times are scaled by the
    speed probes of their pass, as end-to-end times are, and are medians
    over the traced passes; the overhead compares the fastest pass of each
    kind, unscaled.
    """
    subset = decisions[: workload.traced]
    calls = Calls()
    plain_totals, traced_totals, layer_times = [], [], []
    first_pass = None
    start = time.perf_counter()
    rnd = 0
    while rnd < 2 or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if rnd % 2 == 0 else (True, False):
            if not with_trace:
                plain_totals.append(calls.run_pass(subset, pass_no=rnd))
                continue
            first, counts_before = len(tracer.spans), tracer.counts.copy()
            kept = {e: len(calls.counters[e]) for e in ENGINES}
            with tracer.installed():
                traced_totals.append(calls.run_pass(subset, pass_no=rnd, tracer=tracer, probe=True))
            last = len(tracer.spans)
            scale = PROBE_REF_S / statistics.median(calls.probes[rnd])
            layer_times.append({k: v * scale for k, v in tracer.self_times(first, last).items()})
            if first_pass is None:
                counters = {e: calls.counters[e][kept[e] :] for e in ENGINES}
                first_pass = (first, last, tracer.counts - counts_before, counters)
        rnd += 1

    first, last, counts, counters = first_pass
    spans = tracer.span_counts(first, last)
    n = len(subset)
    model_checks = spans["reduction.model_check"]
    tried = sum(sign_assignments(len(d.sentence.vars)) for d in subset if d.sentence is not None) * len(ENGINES)

    def seconds_of(name):
        return statistics.median(t.get(name, 0.0) for t in layer_times)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "reduction.enumerate_s": (seconds_of("reduction.enumerate"), "s"),
        "reduction.templates": (counts["reduction.enumerate.items"], "count"),
        "reduction.templates_tested": (tracer.tested_templates(first, last), "count"),
        "reduction.template_yield": (ratio(counts["reduction.enumerate.items"], tried if model_checks else 0), "ratio"),
        "logic.eval_matrix_calls": (spans["logic.eval_matrix"], "count"),
        "logic.eval_matrix_s": (seconds_of("logic.eval_matrix"), "s"),
        "poset.width_calls": (spans["poset.width"], "count"),
        "poset.width_s": (seconds_of("poset.width"), "s"),
    }
    for engine in ENGINES:
        pairs = counts[f"{engine}.build.pairs"]
        metrics.update(
            {
                f"{engine}.build_calls": (spans[f"{engine}.build"], "count"),
                f"{engine}.branches_per_decision": (sum(c.branches for c in counters[engine]) / n, "count/decision"),
                f"{engine}.build_s": (seconds_of(f"{engine}.build"), "s"),
                f"{engine}.pair_cache_hit_ratio": (ratio(counts[f"{engine}.build.pair_hits"], pairs), "ratio"),
                f"{engine}.solve_s": (seconds_of(f"{engine}.solve"), "s"),
                f"{engine}.ops": (sum(c.ops for c in counters[engine]), "count"),
            }
        )
    metrics["clique.dp_entries"] = (counts["clique.solve.dp_entries"], "count")
    metrics["poset.verify_s"] = (seconds_of("poset.verify"), "s")
    metrics["trace.overhead_frac"] = (min(traced_totals) / min(plain_totals) - 1.0, "ratio")
    return calls, metrics


def run_workload(args) -> int:
    _load_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setup_probe = statistics.median(speed_probe() for _ in range(5))
    if tracer:
        with tracer.installed():
            decisions, setup_times, setup_layers = setup(workload, args.seed, tracer)
    else:
        decisions, setup_times, setup_layers = setup(workload, args.seed)
    refs = References(workload, args.seed, decisions)
    warm_up(workload, decisions)

    detail = {"workload": workload.name, "seed": args.seed, "references": refs.note}
    if tracer:
        calls, layer_metrics = traced(workload, decisions, args.seconds, tracer)
        for layer, name in (("poset.load", "poset.load_s"), ("generators.build", "generators.build_s"), ("logic.parse", "logic.parse_s")):
            median = statistics.median(t.get(layer, 0.0) for t in setup_layers)
            layer_metrics[name] = (median * PROBE_REF_S / setup_probe, "s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}.tsv")
        detail["absent_hooks"] = tracer.absent
        detail["traced_decisions"] = workload.traced
        metrics = layer_metrics
    else:
        # Set-up repetitions are spread over the run and each block is scaled
        # by the probe run just before it, as the decisions are.
        setup_scaled = [t * PROBE_REF_S / setup_probe for t in setup_times]

        def more_setups():
            probe = statistics.median(speed_probe() for _ in range(3))
            times = setup(workload, args.seed, repeats=1, seconds=SETUP_SECONDS / 10)[1]
            setup_times.extend(times)
            setup_scaled.extend(t * PROBE_REF_S / probe for t in times)

        calls, passes = end_to_end(decisions, args.seconds, more_setups)
        probe_s = statistics.median(t for times in calls.probes.values() for t in times)
        detail["passes"] = passes
        detail["setup_runs"] = len(setup_times)
        detail["probe_ms"] = probe_s * 1e3
        metrics = {}
        for engine in ENGINES:
            stats = latency_stats(calls.latencies(engine, scaled=True))
            raw = latency_stats(calls.latencies(engine, scaled=False))
            detail[engine] = {k: stats[k] for k in ("samples", "tail_percentile")}
            detail[engine]["unscaled"] = {k: raw[k] for k in ("decisions_per_s", "latency_p50_ms", "latency_tail_ms")}
            metrics[f"{engine}.decisions_per_s"] = (stats["decisions_per_s"], "1/s")
            metrics[f"{engine}.latency_p50_ms"] = (stats["latency_p50_ms"], "ms")
            metrics[f"{engine}.latency_tail_ms"] = (stats["latency_tail_ms"], "ms")
        detail["setup_s_unscaled"] = statistics.median(setup_times)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    attempted, failed, problems = verify(calls, refs)
    verdicts = Counter(refs.expect(d) for d in {id(r[1]): r[1] for r in calls.records}.values())
    detail["failed_frac"] = failed / attempted
    detail["decisions_yes_no"] = [verdicts[True], verdicts[False]]
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:15s} {name:34s} {value:14.6g} {unit}")
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    _load_library()
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="embed-banded, check-q5, embed-hardness or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
