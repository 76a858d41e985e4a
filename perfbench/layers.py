"""Per-layer attribution for one traced cluster run.

The benchmark wraps each layer's public functions from the outside, at the
name the caller looks up: a class attribute for methods, the importing
module's global for functions imported by name (``repro.core.replica``
imports ``validate_block``, ``repro.dag.types`` imports ``digest_of``).
Every wrapped call is one span (name, start, end, parent span); spans stay
in memory until the run ends.  A span's self time, reported as
``<span>.self_s``, is its duration minus the time its child spans cover.
Wall time no span covers is the DES kernel plus process bodies (the CE
executor pool's generators have no public function in front of them) and
is reported as ``other.self_s``.

The wrappers only observe: they never schedule simulated events, so a
traced run reproduces the untraced run's commit log exactly (``run.py``
checks this on every traced run).
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.ce.controller import ConcurrencyController
from repro.ce.runner import CERunner
from repro.core import cross_shard, replica
from repro.crypto import digest as crypto_digest
from repro.crypto import keys as crypto_keys
from repro.dag import store as dag_store
from repro.dag import tusk
from repro.dag import types as dag_types
from repro.metrics.collector import MetricsCollector
from repro.storage import kvstore

#: Every per-layer metric and its unit, in output order.
PER_LAYER_UNITS = {
    "dag.advance.calls": "count",
    "dag.commits": "count",
    "dag.delivered": "count",
    "dag.causal_history.calls": "count",
    "dag.causal_history.vertices": "count",
    "dag.vertices_walked_per_commit": "vertices",
    "dag.vertices_walked_per_commit.first_half": "vertices",
    "dag.vertices_walked_per_commit.second_half": "vertices",
    "dag.advance.self_s": "s",
    "dag.causal_history.self_s": "s",
    "dag.insert.self_s": "s",
    "crypto.digest.calls": "count",
    "crypto.encode.bytes": "bytes",
    "crypto.sign.calls": "count",
    "crypto.verify.calls": "count",
    "crypto.digest.self_s": "s",
    "crypto.sign.self_s": "s",
    "crypto.verify.self_s": "s",
    "ce.controller.ops": "count",
    "ce.controller.self_s": "s",
    "ce.batches": "count",
    "ce.batch_txs_mean": "tx",
    "ce.preplay.sim_ms": "ms",
    "ce.re_executions": "count",
    "ce.useful_ratio": "ratio",
    "ce.path_queries": "count",
    "ce.index_rebuilds": "count",
    "validation.blocks": "count",
    "validation.entries": "count",
    "validation.self_s": "s",
    "validation.failures": "count",
    "validation.sim_ms": "ms",
    "cross_shard.txs": "count",
    "cross_shard.self_s": "s",
    "cross_shard.longest_lane": "tx",
    "cross_shard.sim_ms": "ms",
    "replica.blocks.normal": "count",
    "replica.blocks.skip": "count",
    "replica.blocks.cross": "count",
    "replica.blocks.shift": "count",
    "replica.skip_share": "ratio",
    "replica.reconfigurations": "count",
    "replica.dropped_txs": "count",
    "sim.events": "count",
    "sim.network.messages": "count",
    "sim.network.messages_per_tx": "msg/tx",
    "storage.apply_batch.calls": "count",
    "storage.writes": "count",
    "storage.self_s": "s",
    "stage.mempool_ms.p50": "ms",
    "stage.mempool_ms.p99": "ms",
    "stage.order_ms.p50": "ms",
    "stage.order_ms.p99": "ms",
    "stage.execute_ms.p50": "ms",
    "stage.execute_ms.p99": "ms",
    "other.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

class Tracer:
    """Spans and counts for one run; install around ``Cluster.run``."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open spans: [index, start, child time].
        self._stack: List[list] = []
        self.self_time: Dict[str, float] = {}
        self.root_time = 0.0
        self.counts: Dict[str, float] = {}
        #: Simulated time each tx id first appeared in a delivered block.
        self.first_commit: Dict[int, float] = {}
        #: (simulated time, vertices walked) per causal_history call and
        #: simulated time per CommitEvent, to split the run in halves.
        self.walks: List[tuple] = []
        self.commit_times: List[float] = []
        self._undo: List[Callable[[], None]] = []
        self._now: Callable[[], float] = lambda: 0.0

    # -- spans ----------------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            frame = [index, perf_counter(), 0.0]
            self.span_start.append(frame[1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.span_end[index] = end
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + duration - frame[2])
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_time += duration
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        self._patch(owner, attr,
                    self._span(name, getattr(owner, attr), after))

    # -- what each layer reports ----------------------------------------------

    def _encoded(self, data: bytes) -> bytes:
        self.count("crypto.encode.bytes", len(data))
        return data

    def _on_advance(self, _args, events) -> None:
        now = self._now()
        self.count("dag.advance.calls")
        for event in events:
            self.count("dag.commits")
            self.commit_times.append(now)
            self.count("dag.delivered", len(event.delivered))
            for vertex in event.delivered:
                block = vertex.block
                for tx in (block.preplayed_txs + block.transactions
                           + block.converted):
                    self.first_commit.setdefault(tx.tx_id, now)

    def _on_causal_history(self, _args, history) -> None:
        self.count("dag.causal_history.calls")
        self.count("dag.causal_history.vertices", len(history))
        self.walks.append((self._now(), len(history)))

    def _on_batch(self, batch) -> None:
        result = batch.value
        self.count("ce.batches")
        self.count("ce.batch_txs", len(result.committed))
        self.count("ce.preplay.sim_ms", result.elapsed * 1000)
        self.count("ce.re_executions", result.re_executions)
        self.count("ce.path_queries", result.stats.path_queries)
        self.count("ce.index_rebuilds", result.stats.index_rebuilds)

    def _on_validation(self, args, outcome) -> None:
        self.count("validation.blocks")
        self.count("validation.entries", len(args[0]))
        self.count("validation.failures", not outcome.valid)
        self.count("validation.sim_ms", outcome.simulated_cost * 1000)

    def _on_apply_batch(self, args, _result) -> None:
        self.count("storage.apply_batch.calls")
        self.count("storage.writes", len(args[1]))

    def _on_cross(self, args, outcome) -> None:
        self.count("cross_shard.txs", len(args[1]))
        self.count("cross_shard.sim_ms", outcome.simulated_cost * 1000)
        self.counts["cross_shard.longest_lane"] = max(
            self.counts.get("cross_shard.longest_lane", 0),
            outcome.longest_lane)

    @contextmanager
    def installed(self, cluster):
        """Wrap every layer's public functions for the ``with`` body."""
        self._now = lambda: cluster.env.now
        counted = (lambda name: lambda _args, _result: self.count(name))
        wrap = self._wrap
        wrap(tusk.TuskConsensus, "advance", "dag.advance", self._on_advance)
        wrap(dag_store.DagStore, "causal_history", "dag.causal_history",
             self._on_causal_history)
        wrap(dag_store.DagStore, "insert", "dag.insert")
        wrap(dag_types, "digest_of", "crypto.digest",
             counted("crypto.digest.calls"))
        wrap(crypto_digest, "digest_of", "crypto.digest",
             counted("crypto.digest.calls"))
        for module in (crypto_digest, crypto_keys):
            encode = module.canonical_encode
            self._patch(module, "canonical_encode",
                        lambda value, encode=encode: self._encoded(
                            encode(value)))
        wrap(crypto_keys.KeyPair, "sign", "crypto.sign",
             counted("crypto.sign.calls"))
        wrap(crypto_keys.KeyRegistry, "verify", "crypto.verify",
             counted("crypto.verify.calls"))
        for op in ("begin", "read", "write", "finish"):
            wrap(ConcurrencyController, op, "ce.controller",
                 counted("ce.controller.ops"))
        run_batch = CERunner.run_batch

        def traced_run_batch(runner, *args, **kwargs):
            process = run_batch(runner, *args, **kwargs)
            process.callbacks.append(self._on_batch)
            return process
        self._patch(CERunner, "run_batch", traced_run_batch)
        wrap(replica, "validate_block", "validation", self._on_validation)
        for attr in ("execute", "execute_serial"):
            wrap(cross_shard.CrossShardExecutor, attr, "cross_shard",
                 self._on_cross)
        wrap(kvstore.KVStore, "apply_batch", "storage", self._on_apply_batch)
        record_commit = MetricsCollector.record_commit

        def traced_record_commit(metrics, epoch, round_number, when,
                                 kind="normal"):
            self.count(f"replica.blocks.{kind}")
            return record_commit(metrics, epoch, round_number, when, kind)
        self._patch(MetricsCollector, "record_commit", traced_record_commit)
        try:
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """All spans as Chrome trace events (microseconds from the first)."""
        base = self.span_start[0] if self.span_start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write('{"traceEvents":[')
            for i in range(len(self.span_name)):
                out.write("," if i else "")
                out.write(json.dumps({
                    "name": self._names[self.span_name[i]], "ph": "X",
                    "pid": 0, "tid": 0,
                    "ts": round((self.span_start[i] - base) * 1e6, 3),
                    "dur": round((self.span_end[i] - self.span_start[i])
                                 * 1e6, 3),
                    "args": {"id": i, "parent": self.span_parent[i]}}))
            out.write("]}\n")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list (0 when empty)."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def layer_metrics(workload, tracer, cluster, result, sources, first_exec,
                  wall: float) -> Tuple[Dict[str, float],
                                        Dict[int, Tuple[float, float, float]]]:
    """The per-layer metrics of one traced run, and per executed tx id
    its (mempool, order, execute) stage waits in seconds."""
    counts = tracer.counts
    out = {name: counts.get(name, 0) for name in PER_LAYER_UNITS}
    for span, seconds in tracer.self_time.items():
        out[f"{span}.self_s"] = seconds
    commits = max(1, out["dag.commits"])
    out["dag.vertices_walked_per_commit"] = (
        out["dag.causal_history.vertices"] / commits)
    half = workload.horizon / 2
    for label, early in (("first_half", True), ("second_half", False)):
        walked = sum(n for t, n in tracer.walks if (t < half) == early)
        commits = sum(1 for t in tracer.commit_times if (t < half) == early)
        out[f"dag.vertices_walked_per_commit.{label}"] = (
            walked / max(1, commits))
    batch_txs = counts.get("ce.batch_txs", 0)
    out["ce.batch_txs_mean"] = batch_txs / max(1, out["ce.batches"])
    out["ce.useful_ratio"] = (
        batch_txs / (batch_txs + out["ce.re_executions"])
        if batch_txs else 0.0)
    blocks = sum(out[f"replica.blocks.{kind}"]
                 for kind in ("normal", "skip", "cross", "shift"))
    out["replica.skip_share"] = out["replica.blocks.skip"] / max(1, blocks)
    out["replica.reconfigurations"] = result.reconfigurations
    out["replica.dropped_txs"] = result.dropped_transactions
    out["sim.events"] = cluster.env.events_processed
    out["sim.network.messages"] = cluster.network.messages_sent
    out["sim.network.messages_per_tx"] = (
        cluster.network.messages_sent / max(1, len(first_exec)))
    waits: Dict[int, Tuple[float, float, float]] = {}
    for source in sources:
        for tx, pulled in zip(source.transactions, source.pulled_at):
            committed = tracer.first_commit.get(tx.tx_id)
            executed = first_exec.get(tx.tx_id)
            if committed is None or executed is None:
                continue
            waits[tx.tx_id] = (pulled - tx.submitted_at, committed - pulled,
                               executed - committed)
    for column, stage in enumerate(("mempool", "order", "execute")):
        values = sorted(wait[column] for wait in waits.values())
        for label, q in (("p50", 0.50), ("p99", 0.99)):
            out[f"stage.{stage}_ms.{label}"] = 1000 * percentile(values, q)
    out["other.self_s"] = wall - tracer.root_time
    out["trace.spans"] = len(tracer.span_name)
    return out, waits
