"""Uniform result record for every clustering method in the reproduction.

All methods (Lloyd, BKM, Mini-Batch, closure k-means, GK-means) return a
:class:`ClusterRun` so the experiment harnesses can time/compare them
identically.  ``history`` rows carry *algorithm* seconds only — the
distortion bookkeeping itself is free on the shared driver
(``core.iterate``) via the identity ``E = (sum ||x||^2 - I) / n`` and
excluded from timings for Mini-Batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame


@dataclass
class ClusterRun:
    """Outcome of one clustering run.

    state: (id, features, label) DataFrame, labels in [0, k).
    history: per-iteration dicts {iter, elapsed, E} with ``elapsed`` the
        cumulative algorithm seconds when that iteration finished.
    init_s / iter_s: wall seconds split as the paper's Tab. 2 does.
    extra: method-specific diagnostics (e.g. graph recall, mean candidates).
    """

    state: DataFrame
    k: int
    history: list[dict] = field(default_factory=list)
    init_s: float = 0.0
    iter_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.init_s + self.iter_s

    @property
    def final_E(self) -> float:
        if not self.history:
            raise ValueError("run has no history")
        return self.history[-1]["E"]
