"""The benchmark's workloads: one pass of each, timed from outside the calls.

Both cluster the same ``vlad_like`` table into k = n/10 clusters, the ratio
of the paper's Tab. 2. Sizes and round counts are cut from Tab. 2's bench
scale (n=2e4, k=2000, tau=6, 12 iterations): Spark orchestration, not
arithmetic, sets the cost at this scale (a pass costs about the same at
n=1000 as at n=2000), and the whole benchmark, about 50 runs of a fresh
Spark process each, must finish within an hour on 4 cores.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

# Called through their modules so that the tracer's wrappers are seen.
from repro.baselines import closure
from repro.common.result import ClusterRun
from repro.core import bkm, gkmeans, knn_graph

#: the shared input: vlad_like(n, d), k = n/10, recall on n_queries samples
DATA = dict(n=1000, d=64, k=100, n_queries=500)

#: per-workload parameters, passed as ``experiments.harness.run_method``
#: passes them
PARAMS = {
    "tab2_gk": dict(kappa=20, xi=50, tau=2, iters=3),
    "bkm_closure": dict(iters=3),
}


@dataclass
class Pass:
    """Outcome of one pass of a workload.

    ``runs`` maps each clustering method to its result; the first one is the
    workload's headline (its E is ``final_E``).
    """

    runs: dict[str, ClusterRun]
    total_s: float
    graph_build_s: float | None = None
    graph: object = None  # (id, nbr, dist) DataFrame for tab2_gk
    graph_history: list = field(default_factory=list)

    @property
    def final_E(self) -> float:
        return next(iter(self.runs.values())).final_E

    @property
    def init_s(self) -> float:
        return sum(r.init_s for r in self.runs.values())

    @property
    def iter_s(self) -> float:
        return sum(r.iter_s for r in self.runs.values())

    @property
    def iterations(self) -> int:
        """Move steps run (each history's last row is the final E)."""
        return sum(len(r.history) - 1 for r in self.runs.values())


def run_pass(spark, feats, workload: str, k: int, params: dict, seed: int) -> Pass:
    """Run ``workload`` once on the checkpointed ``feats``."""
    t0 = time.perf_counter()
    if workload == "tab2_gk":
        graph, ghist = knn_graph.build_knn_graph(
            spark, feats, params["kappa"], xi=params["xi"], tau=params["tau"],
            seed=seed,
        )
        t1 = time.perf_counter()
        run = gkmeans.gk_means(
            spark, feats, k, graph, mode="boost", iters=params["iters"],
            seed=seed, track_candidates=True,
        )
        return Pass(runs={"gkmeans": run}, total_s=time.perf_counter() - t0,
                    graph_build_s=t1 - t0, graph=graph, graph_history=ghist)
    if workload == "bkm_closure":
        runs = {
            "bkm": bkm.boost_kmeans(spark, feats, k, iters=params["iters"], seed=seed),
            "closure": closure.closure_kmeans(spark, feats, k, iters=params["iters"],
                                              seed=seed),
        }
        return Pass(runs=runs, total_s=time.perf_counter() - t0)
    raise ValueError(f"unknown workload {workload!r}")
