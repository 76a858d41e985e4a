"""Self-checks of the end-to-end benchmark.

Run from the repository root::

    python3 perfbench/selfcheck.py

Four groups, each printed PASS/FAIL; the exit code is nonzero if any
fails.

* **Latency accounting** (tiny traced runs): in the per-transaction
  figures ``run_once`` reports, every offered transaction either executed
  with latency >= 0 or counts as failed, and its three stage waits
  (mempool, order, execute) sum to its latency.
* **Host-speed probe** (tiny runs): work added to every
  ``validate_block`` call, pure interpreter work or allocation churn,
  slows reference-second wall time by the same factor as raw wall time.
* **Determinism** (tiny runs): the ``sim_*`` metrics and replica 0's
  commit-log digest are identical in two processes with different
  ``PYTHONHASHSEED``, change with the benchmark seed, and are reproduced
  by a traced run, so the wrappers do not perturb the simulation.
* **Layer isolation** (one traced run of each full workload): what the
  workloads were chosen to isolate still holds.  These describe the seed
  state; if one fails, the workload no longer isolates its layer and the
  workload, not the check, needs fixing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
from typing import List, Tuple

from run import ROOT, part_seed, run_once  # puts the program on the path
from layers import Tracer  # noqa: E402
from load import WORKLOADS  # noqa: E402
from repro.core import replica  # noqa: E402

TINY = {name: dataclasses.replace(WORKLOADS[name], window=0.03, drain=0.1)
        for name in ("sb-eov", "sb-cross")}
#: A crash run long enough to reconfigure, so some transactions are lost.
TINY_CRASH = dataclasses.replace(WORKLOADS["sb-crash"], window=0.06,
                                 drain=0.3)
#: Interleaved (plain, slowed) run pairs per probe check.
PROBE_PAIRS = 8
#: How far reference seconds may miss the raw slowdown, as a share.
PROBE_TOLERANCE = 0.15


def _busy(n: int) -> None:
    """Pure interpreter work."""
    x = 0
    for i in range(n):
        x = (x * 31 + i) % 1_000_003


def _churn(n: int) -> None:
    """Allocator and garbage-collector work."""
    junk = [[i] for i in range(n)]
    del junk


def fingerprint(workload, seed: int, tracer=None) -> dict:
    run = run_once(workload, part_seed(seed, 0), 0, tracer)
    return {"sim": run.sim, "digest": run.log_digest,
            "problems": run.problems}


def latency_checks() -> List[Tuple[str, bool]]:
    """On the per-transaction figures ``run_once`` reports."""
    results = []
    for name, workload in list(TINY.items()) + [("sb-crash", TINY_CRASH)]:
        run = run_once(workload, part_seed(1, 0), 0, Tracer())
        latencies, waits = run.latencies, run.stage_waits
        results.append((
            f"{name}: {run.executed} of {run.offered} offered executed "
            f"with latency >= 0, the rest count as failed",
            0 < run.executed == len(latencies)
            and min(latencies.values()) >= 0))
        results.append((
            f"{name}: stage waits sum to each latency",
            waits.keys() == latencies.keys()
            and all(min(waits[tx]) >= 0
                    and abs(sum(waits[tx]) - latency) < 1e-9
                    for tx, latency in latencies.items())))
    return results


def probe_checks() -> List[Tuple[str, bool]]:
    """A slowdown the program causes must not be divided out as host drift.

    Each check slows every ``validate_block`` call by a fixed amount of
    work and times the slowed run against a plain one, in interleaved
    pairs.  The host's speed cancels from raw wall time only within a
    pair, so the check takes the median over pairs of
    (reference-second ratio) / (raw ratio).  It must be 1 within the
    tolerance: the probe then reads none of the added work as host
    slowdown, and a program change moves reference seconds as it moves
    raw wall time.
    """
    workload = TINY["sb-eov"]
    results = []
    for label, work, amount in (("busy loop", _busy, 20_000),
                                ("allocation churn", _churn, 8_000)):
        plain = replica.validate_block

        def slowed(*args, **kwargs):
            work(amount)
            return plain(*args, **kwargs)
        raw, kept = [], []
        for pair in range(PROBE_PAIRS):
            timed = {}
            for slow in ((False, True) if pair % 2 else (True, False)):
                replica.validate_block = slowed if slow else plain
                try:
                    timed[slow] = run_once(workload, part_seed(1, 0), 0)
                finally:
                    replica.validate_block = plain
            raw.append(timed[True].wall_s / timed[False].wall_s)
            kept.append(timed[True].reference_s / timed[False].reference_s
                        / raw[-1])
        ratio = statistics.median(kept)
        results.append((
            f"probe, {label} in validate_block: raw wall x"
            f"{statistics.median(raw):.2f}, reference seconds keep "
            f"{ratio:.3f} of it",
            statistics.median(raw) > 1.5
            and abs(ratio - 1) <= PROBE_TOLERANCE))
    return results


def determinism_checks() -> List[Tuple[str, bool]]:
    results = []
    for name, workload in TINY.items():
        runs = []
        for hash_seed, seed in (("1", 1), ("2", 1), ("1", 2)):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, __file__, "--fingerprint", name, str(seed)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=170)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        results.append((f"{name}: identical under two PYTHONHASHSEEDs",
                        runs[0] == runs[1] and not runs[0]["problems"]))
        results.append((f"{name}: another benchmark seed changes the run",
                        runs[0]["sim"] != runs[2]["sim"]
                        and runs[0]["digest"] != runs[2]["digest"]))
        traced = fingerprint(workload, 1, Tracer())
        results.append((f"{name}: traced run reproduces the untraced run",
                        traced == runs[0]))
    return results


def isolation_checks() -> List[Tuple[str, bool]]:
    layers = {}
    for name, workload in WORKLOADS.items():
        layers[name] = run_once(workload, part_seed(1, 0), 0,
                                Tracer()).layers
    ce_counts = ("ce.controller.ops", "ce.batches", "ce.preplay.sim_ms",
                 "ce.re_executions", "ce.path_queries", "ce.index_rebuilds")
    tusk = layers["tusk-serial-long"]
    return [
        ("tusk-serial-long: every ce.* count is 0",
         all(tusk[name] == 0 for name in ce_counts)),
        ("sb-eov: cross_shard.txs is 0",
         layers["sb-eov"]["cross_shard.txs"] == 0),
        (f"sb-cross: replica.skip_share "
         f"{layers['sb-cross']['replica.skip_share']:.3f} > 0.5",
         layers["sb-cross"]["replica.skip_share"] > 0.5),
        (f"tusk-serial-long: vertices walked per commit rise "
         f"({tusk['dag.vertices_walked_per_commit.first_half']:.0f} -> "
         f"{tusk['dag.vertices_walked_per_commit.second_half']:.0f})",
         tusk["dag.vertices_walked_per_commit.first_half"]
         < tusk["dag.vertices_walked_per_commit.second_half"]),
        (f"sb-crash: {layers['sb-crash']['replica.reconfigurations']:.0f} "
         f"reconfigurations >= 1",
         layers["sb-crash"]["replica.reconfigurations"] >= 1),
    ]


def main() -> int:
    if sys.argv[1:2] == ["--fingerprint"]:
        print(json.dumps(fingerprint(TINY[sys.argv[2]], int(sys.argv[3]))))
        return 0
    failed = 0
    for group in (latency_checks, probe_checks, determinism_checks,
                  isolation_checks):
        for label, ok in group():
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
