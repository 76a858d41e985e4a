"""End-to-end cluster benchmark: open-loop SmallBank against a full Cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sb-eov --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced runs of the workload for ``--seconds`` wall
seconds and reports the end-to-end metrics.  The seed makes ``PARTS``
independent inputs; the ``sim_*`` metrics are medians over one run of each
(deterministic per seed), the wall ones medians over every run, timed in
reference seconds that discount the host's drifting speed (``speed.py``).
``--trace 1`` makes untraced runs for the timing baseline, then one traced
run, and reports the per-layer metrics (see ``layers.py``).  Every run is
checked for correctness; the last line of output is one JSON object, and
the exit code is nonzero if any check failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no program source under {SRC}")
sys.path.insert(0, str(SRC))

# The program's modules are importable only from here on.
from layers import (PER_LAYER_UNITS, Tracer, layer_metrics,  # noqa: E402
                    percentile)
from load import TOTAL_MONEY, WORKLOADS, build_cluster  # noqa: E402
from speed import timed  # noqa: E402

#: Input parts per seed; the ``sim_*`` metrics are medians over them.
PARTS = 3
#: Set-ups timed on their own, besides the one in every run.
EXTRA_SETUPS = 8
#: A traced run costs about this many untraced runs of wall time.
TRACED_RUN_COST = 1.6
#: End-to-end metric units, in output order.
END_TO_END = {
    "sim_tps": "tx/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_outage_ms": "ms",
    "wall_tx_per_s": "tx/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One cluster run: its timings and what the benchmark observed."""

    #: Which input part of the benchmark seed the run drove.
    part: int
    #: Set-up time in reference seconds (see ``speed.py``).
    setup_s: float
    #: Wall seconds of ``Cluster.run``, and the same in reference seconds.
    wall_s: float
    reference_s: float
    offered: int
    executed: int
    #: Deterministic per seed: the ``sim_*`` metrics and the log digest.
    sim: Dict[str, float]
    log_digest: str
    problems: List[str]
    info: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Traced runs only, for ``selfcheck.py``: per executed tx id, its
    #: latency and its (mempool, order, execute) stage waits, in seconds.
    latencies: Dict[int, float] = field(default_factory=dict)
    stage_waits: Dict[int, Tuple[float, float, float]] = field(
        default_factory=dict)


def longest_outage(dues: List[float], executed: List[float]) -> float:
    """Longest interval with a transaction due and no execution.

    ``executed[i]`` is when transaction ``i`` (due at ``dues[i]``) first
    executed.  Only executed transactions are passed in: one that never
    executes counts as failed instead, so the measure ends at the last
    execution rather than at the end of the run.
    """
    order = sorted(range(len(dues)), key=executed.__getitem__)
    earliest_due = [0.0] * len(order)
    running = math.inf
    for rank in range(len(order) - 1, -1, -1):
        running = min(running, dues[order[rank]])
        earliest_due[rank] = running
    longest, previous = 0.0, 0.0
    for rank, i in enumerate(order):
        longest = max(longest, executed[i] - max(previous, earliest_due[rank]))
        previous = executed[i]
    return longest


def check_cluster(workload, cluster, streams, first_exec) -> List[str]:
    """The correctness gate; returns what failed (empty when correct)."""
    problems = []
    if not cluster.logs_prefix_consistent():
        problems.append("commit logs are not prefix-consistent")
    by_length: Dict[int, set] = {}
    for length, checksum in cluster.state_checksums().values():
        by_length.setdefault(length, set()).add(checksum)
    if any(len(sums) > 1 for sums in by_length.values()):
        problems.append("live replicas diverge at equal log lengths")
    for replica in cluster.live_replicas():
        money = sum(value for _, value in replica.store.scan())
        if money != TOTAL_MONEY:
            problems.append(f"replica {replica.id} holds {money} money, "
                            f"expected {TOTAL_MONEY}")
    last_fault = workload.crash_at or 0.0
    for shard, stream in enumerate(streams):
        if not any(first_exec.get(tx.tx_id, -1.0) > last_fault
                   for tx in stream):
            problems.append(f"shard {shard} executed nothing after "
                            f"t={last_fault}s")
    return problems


def run_once(workload, seed: str, part: int, tracer=None) -> Run:
    """Build a cluster, run it for the workload's horizon, measure it."""
    gc.collect()
    with timed() as setup:
        cluster, sources = build_cluster(workload, seed)
    if tracer is None:
        with timed() as timing:
            result = cluster.run(workload.horizon)
        wall, reference = timing.wall_s, timing.reference_s
    else:
        started = perf_counter()
        with tracer.installed(cluster):
            result = cluster.run(workload.horizon)
        wall = reference = perf_counter() - started

    streams = [source.transactions for source in sources]
    first_exec = {sample.tx_id: sample.executed_at
                  for sample in cluster.metrics.executions}
    latency: Dict[int, float] = {}
    shard_outages = []
    for stream in streams:
        done = [tx for tx in stream if tx.tx_id in first_exec]
        shard_outages.append(longest_outage(
            [tx.submitted_at for tx in done],
            [first_exec[tx.tx_id] for tx in done]))
        for tx in done:
            latency[tx.tx_id] = first_exec[tx.tx_id] - tx.submitted_at
    latencies = sorted(latency.values())
    offered = sum(len(stream) for stream in streams)
    in_window = sum(1 for t in first_exec.values() if t <= workload.window)
    sim = {
        "sim_tps": in_window / workload.window,
        "sim_latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "sim_latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "sim_outage_ms": 1000 * max(shard_outages),
    }
    log = cluster.replicas[0].commit_log.digests()
    info = {
        "latency_samples": len(latencies),
        "repo_p50_latency_ms": 1000 * result.p50_latency,
        "repo_p99_latency_ms": 1000 * result.p99_latency,
        "client_late_p99_ms": 1000 * percentile(sorted(
            pulled - tx.submitted_at for source in sources
            for tx, pulled in zip(source.transactions, source.pulled_at)),
            0.99),
    }
    run = Run(part=part, setup_s=setup.reference_s, wall_s=wall,
              reference_s=reference, offered=offered,
              executed=len(latencies), sim=sim,
              log_digest=hashlib.blake2b("".join(log).encode(),
                                         digest_size=16).hexdigest(),
              problems=check_cluster(workload, cluster, streams,
                                     first_exec),
              info=info)
    if tracer is not None:
        run.layers, run.stage_waits = layer_metrics(
            workload, tracer, cluster, result, sources, first_exec, wall)
        run.latencies = latency
    return run


def part_seed(seed: int, part: int) -> str:
    """The input seed of part ``part`` of benchmark seed ``seed``."""
    return f"{seed}.{part}"


def measure(workload, seed: int, seconds: float,
            trace: bool) -> Tuple[List[Run], Optional[Run], List[float]]:
    """Untraced runs for ``seconds``, then the traced run if asked.

    Run ``k`` drives input part ``k mod PARTS`` of the seed.  Untraced,
    the first ``PARTS`` runs always happen, so the ``sim_*`` medians never
    depend on how many runs fit.  Traced, one untraced run of part 0 is
    enough and the traced run (of part 0) reserves its time.  Also returns
    the set-up times: ``EXTRA_SETUPS`` builds of their own plus every run's.
    """
    started = perf_counter()
    setups = []
    for k in range(EXTRA_SETUPS):
        gc.collect()
        with timed() as setup:
            build_cluster(workload, part_seed(seed, k % PARTS))
        setups.append(setup.reference_s)
    runs: List[Run] = []
    while True:
        part = len(runs) % PARTS
        runs.append(run_once(workload, part_seed(seed, part), part))
        elapsed = perf_counter() - started
        per_run = elapsed / len(runs)
        reserve = TRACED_RUN_COST * per_run if trace else 0.0
        if len(runs) >= (1 if trace else PARTS) \
                and elapsed + per_run + reserve > seconds:
            break
    setups.extend(run.setup_s for run in runs)
    traced = None
    if trace:
        tracer = Tracer()
        traced = run_once(workload, part_seed(seed, 0), 0, tracer)
        traced.layers["trace.overhead_s"] = traced.wall_s - statistics.median(
            run.wall_s for run in runs if run.part == 0)
        tracer.write_spans(ROOT / ".perfbench"
                           / f"spans-{workload.name}-seed{seed}.json")
    return runs, traced, setups


def summarise(runs: List[Run], traced: Optional[Run],
              setups: List[float]) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics plus every problem found across the runs."""
    every = runs + ([traced] if traced else [])
    problems = [problem for run in every for problem in run.problems]
    first: Dict[int, Run] = {}
    for run in every:
        reference = first.setdefault(run.part, run)
        if (run.sim, run.log_digest) != (reference.sim,
                                         reference.log_digest):
            problems.append("a repeated run of the same input diverged "
                            "(sim metrics or commit-log digest)")
    metrics = {name: statistics.median(run.sim[name]
                                       for run in first.values())
               for name in runs[0].sim}
    metrics["wall_tx_per_s"] = statistics.median(
        run.executed / run.reference_s for run in runs)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return metrics, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runs, traced, setups = measure(workload, args.seed, args.seconds,
                                   bool(args.trace))
    e2e, problems = summarise(runs, traced, setups)
    every = runs + ([traced] if traced else [])
    attempted = sum(run.offered for run in every)
    failed = (attempted if problems
              else sum(run.offered - run.executed for run in every))
    ref = runs[0]
    print(f"workload {workload.name}: {workload.n_replicas} replicas, "
          f"engine={workload.engine}, cross={workload.cross_ratio:.0%}, "
          f"{workload.rate:,.0f} tx/s offered for {workload.window} s "
          f"+ {workload.drain} s drain, seed {args.seed}, "
          f"{len(runs)} untraced run(s)")
    print(f"  offered {ref.offered}, executed {ref.executed}, "
          f"commit-log digest {ref.log_digest}")
    for name, value in ref.info.items():
        print(f"  info {name} = {value:.6g}")
    print("  info wall_s per run = "
          + " ".join(f"{run.wall_s:.3f}" for run in runs))
    print("  info host slowdown per run = "
          + " ".join(f"{run.wall_s / run.reference_s:.3f}" for run in runs))
    print("  info wall_tx_per_s before normalising = "
          f"{statistics.median(r.executed / r.wall_s for r in runs):.6g}")
    for problem in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {problem}")
    if traced is None:
        metrics = {name: (e2e[name], unit)
                   for name, unit in END_TO_END.items()}
    else:
        metrics = {name: (traced.layers[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
