"""Output checks for one pass; every failure is a message, none raises.

A pass fails if any check returns a message; the failed share of passes is
the ``runs_ok`` metric's complement and the result line's ``failed``.
"""
from __future__ import annotations

import numpy as np

from repro.common.stats import centroids_from_stats, cluster_stats, distortion
from repro.core.metrics import graph_recall

#: final E of each method, and top-1 graph recall, recorded when the
#: benchmark was defined: medians over seeds 1-5 at the scale in
#: ``workloads``. A pass whose E is higher, or whose recall is lower, by more
#: than the tolerance fails. Over those seeds E came within 2.5 % of its
#: median and recall within 0.02; the tolerances leave room for other seeds.
REFERENCE = {
    "tab2_gk": {"gkmeans": 8.6737, "graph_recall": 0.984},
    "bkm_closure": {"bkm": 8.6838, "closure": 9.2697},
}
E_REL_TOL = 0.06
RECALL_ABS_TOL = 0.05
#: ``ClusterRun.final_E`` is (sum ||x||^2 - I) / n; recomputing it as a
#: mean of squared distances differs only by rounding
E_RECOMPUTE_REL_TOL = 1e-6


def check_labels(labels, n: int, k: int) -> list[str]:
    """Every id 0..n-1 has exactly one label, and every label is in [0, k)."""
    ids = labels["id"].to_numpy(dtype=np.int64)
    lab = labels["label"].to_numpy(dtype=np.int64)
    errors = []
    if len(ids) != n or len(np.unique(ids)) != n:
        errors.append(f"{len(ids)} label rows for {len(np.unique(ids))} ids, want {n}")
    if len(ids) and (ids.min() != 0 or ids.max() != n - 1):
        errors.append(f"ids span [{ids.min()}, {ids.max()}], want [0, {n - 1}]")
    if len(lab) and (lab.min() < 0 or lab.max() >= k):
        errors.append(f"labels span [{lab.min()}, {lab.max()}], want [0, {k})")
    return errors


def check_distortion(state, k: int, final_E: float) -> list[str]:
    """``final_E`` equals ``stats.distortion`` recomputed from the state."""
    counts, sums = cluster_stats(state, k)
    C, _ = centroids_from_stats(counts, sums)
    recomputed = distortion(state, C)
    if abs(recomputed - final_E) > E_RECOMPUTE_REL_TOL * max(1.0, abs(final_E)):
        return [f"final_E {final_E!r} but recomputed distortion {recomputed!r}"]
    return []


def check_graph(edges, n: int, kappa: int) -> list[str]:
    """No self-loops or duplicate pairs, at most kappa neighbours, all ids."""
    src = edges["id"].to_numpy(dtype=np.int64)
    nbr = edges["nbr"].to_numpy(dtype=np.int64)
    errors = []
    if np.any(src == nbr):
        errors.append(f"{int(np.sum(src == nbr))} self-loops")
    pairs = src * n + nbr
    if len(np.unique(pairs)) != len(pairs):
        errors.append(f"{len(pairs) - len(np.unique(pairs))} duplicate (id, nbr) pairs")
    degree = np.bincount(src, minlength=n)
    if degree.max(initial=0) > kappa:
        errors.append(f"an id has {degree.max()} neighbours, more than kappa={kappa}")
    if len(degree) != n or np.any(degree == 0):
        errors.append(f"{int(np.sum(degree[:n] == 0))} ids without neighbours "
                      f"or ids outside [0, {n})")
    return errors


def check_split(p) -> list[str]:
    """The program's own Tab.-2 split fits in the wall time taken around it."""
    inside = p.init_s + p.iter_s + (p.graph_build_s or 0.0)
    if inside > p.total_s:
        return [f"init_s + iter_s (+ graph build) = {inside:.3f} s exceeds the "
                f"{p.total_s:.3f} s measured around the calls"]
    return []


def check_reference(workload: str, method: str, value: float) -> list[str]:
    """E is no higher, and recall no lower, than recorded, within tolerance."""
    ref = REFERENCE[workload][method]
    if method == "graph_recall":
        if value < ref - RECALL_ABS_TOL:
            return [f"graph_recall {value:.4f} below reference {ref:.4f} "
                    f"by more than {RECALL_ABS_TOL}"]
    elif value > ref * (1 + E_REL_TOL):
        return [f"{method} E {value:.6f} above reference {ref:.6f} "
                f"by more than {E_REL_TOL:.0%}"]
    return []


def check_pass(p, workload: str, n: int, k: int, params: dict,
               truth) -> tuple[list[str], float | None]:
    """All checks for one pass; returns (errors, graph recall or None)."""
    errors = check_split(p)
    for method, run in p.runs.items():
        errors += [f"{method}: {e}" for e in
                   check_labels(run.state.select("id", "label").toPandas(), n, k)]
        errors += [f"{method}: {e}" for e in check_distortion(run.state, k, run.final_E)]
        errors += check_reference(workload, method, run.final_E)
    recall = None
    if p.graph is not None:
        errors += check_graph(p.graph.select("id", "nbr").toPandas(), n, params["kappa"])
        recall = graph_recall(p.graph, truth)
        errors += check_reference(workload, "graph_recall", recall)
    return errors, recall
