"""Workloads and the open-loop client of the end-to-end benchmark.

Each shard gets one client stream generated here, from the benchmark's
seed, before the cluster starts.  Transaction ``i`` of a stream is due at
a fixed offered rate; whenever the shard's proposer pulls, the stream
releases every transaction whose due time has passed, whatever ``count``
the proposer asks for.  The program therefore never sets the load it is
measured under (the repo's own ``demand_factor`` source sizes each pull by
the round rate, so a faster consensus would also offer more load).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional

from repro.contracts import smallbank
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.txn import Transaction
from repro.workloads.smallbank_workload import WorkloadConfig

#: SmallBank shape shared by every workload (the paper's defaults).
ACCOUNTS = 1000
THETA = 0.85
READ_PROBABILITY = 0.5
PAYMENT_MAX = 50
#: Every account starts with 10,000 checking + 10,000 savings.
TOTAL_MONEY = ACCOUNTS * 20_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix: cluster shape plus the open-loop offer."""

    name: str
    n_replicas: int
    engine: str
    cross_ratio: float
    #: Offered transactions per simulated second, whole cluster.
    rate: float
    #: Simulated seconds during which transactions fall due.
    window: float
    #: Load-free simulated seconds after the window for the backlog.
    drain: float
    #: Crash-stop the last replica at this share of the window.
    crash_share: Optional[float] = None

    @property
    def crash_at(self) -> Optional[float]:
        if self.crash_share is None:
            return None
        return self.crash_share * self.window

    @property
    def horizon(self) -> float:
        return self.window + self.drain


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sb-eov", n_replicas=4, engine="ce", cross_ratio=0.0,
             rate=60_000, window=0.2, drain=0.1),
    Workload("sb-cross", n_replicas=8, engine="ce", cross_ratio=0.6,
             rate=40_000, window=0.2, drain=0.15),
    Workload("tusk-serial-long", n_replicas=4, engine="serial",
             cross_ratio=0.05, rate=50_000, window=0.6, drain=0.1),
    Workload("sb-crash", n_replicas=4, engine="ce", cross_ratio=0.0,
             rate=40_000, window=0.4, drain=0.4, crash_share=0.25),
)}


class _Zipf:
    """Ranks in ``[0, n)`` with Zipfian skew ``THETA``; rank 0 is hottest."""

    def __init__(self, n: int, rng: random.Random) -> None:
        self._rng = rng
        self._cdf = list(accumulate(1.0 / (k ** THETA)
                                    for k in range(1, n + 1)))

    def sample(self) -> int:
        u = self._rng.random() * self._cdf[-1]
        return min(bisect_right(self._cdf, u), len(self._cdf) - 1)


def generate_stream(workload: Workload, seed: str,
                    shard: int) -> List[Transaction]:
    """Shard ``shard``'s transactions in due order, ``submitted_at`` = due.

    Shard ``s`` owns the accounts congruent to ``s`` modulo the shard
    count (``repro.core.shards.ShardMap``); tx ids stride by the replica
    count so shards never collide.
    """
    n = workload.n_replicas
    rng = random.Random(f"perfbench:{seed}:{shard}")
    populations = [len(range(s, ACCOUNTS, n)) for s in range(n)]
    zipf = [_Zipf(p, rng) for p in populations]
    per_shard_rate = workload.rate / n
    phase = rng.random()
    out: List[Transaction] = []
    for i in range(int(workload.window * per_shard_rate)):
        due = (i + phase) / per_shard_rate
        tx_id = shard + i * n
        src = shard + zipf[shard].sample() * n
        if rng.random() < workload.cross_ratio and n > 1:
            other = rng.randrange(n - 1)
            other += other >= shard
            dst = other + zipf[other].sample() * n
        elif rng.random() < READ_PROBABILITY:
            out.append(Transaction(tx_id, smallbank.GET_BALANCE, (src,),
                                   (shard,), submitted_at=due))
            continue
        else:
            dst = src
            while dst == src:
                dst = shard + zipf[shard].sample() * n
        amount = rng.randint(1, PAYMENT_MAX)
        out.append(Transaction(tx_id, smallbank.SEND_PAYMENT,
                               (src, dst, amount),
                               (src % n, dst % n), submitted_at=due))
    return out


class OpenLoopSource:
    """One shard's client: releases every transaction already due."""

    def __init__(self, transactions: List[Transaction]) -> None:
        self.transactions = transactions
        self._dues = [tx.submitted_at for tx in transactions]
        self._next = 0
        #: Simulated time each released transaction was pulled, in order.
        self.pulled_at: List[float] = []

    def batch(self, count: int, now: float) -> List[Transaction]:
        start = self._next
        stop = bisect_right(self._dues, now, lo=start)
        self._next = stop
        self.pulled_at.extend([now] * (stop - start))
        return self.transactions[start:stop]


def build_cluster(workload: Workload, seed: str):
    """A fresh cluster driven by freshly generated client streams.

    Every knob stays at its default except the traffic that defines the
    workload.  Returns ``(cluster, sources)`` with ``sources[shard]``.
    """
    streams = [generate_stream(workload, seed, shard)
               for shard in range(workload.n_replicas)]
    sources = [OpenLoopSource(stream) for stream in streams]
    config = ThunderboltConfig(n_replicas=workload.n_replicas,
                               engine=workload.engine)
    crash = workload.crash_at
    cluster = Cluster(
        config, WorkloadConfig(accounts=ACCOUNTS, theta=THETA,
                               read_probability=READ_PROBABILITY),
        crash_replicas=() if crash is None else (workload.n_replicas - 1,),
        crash_at=0.0 if crash is None else crash,
        source_factory=lambda _cluster, shard: sources[shard])
    return cluster, sources
