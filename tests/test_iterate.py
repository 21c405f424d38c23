"""Tests for the shared iteration driver (``core.iterate``)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.common.kernels import boost_best_move_full
from repro.common.stats import sum_sq_norms
from repro.core import iterate
from repro.core.two_means import STATE_SCHEMA

# d=1, k=2: one batch boost step over all clusters lowers I here, from
# 41.333 to 41.300 (every point's move gains I against frozen statistics,
# but the moves together lose it)
X = np.array([0.0, 2.0, 5.0, 4.0, 2.0, 2.0, 2.0])
LABELS = np.array([1, 0, 1, 0, 0, 0, 1])


def _objective(labels):
    return sum(X[labels == r].sum() ** 2 / (labels == r).sum() for r in (0, 1))


class TestBestState:
    def test_driver_keeps_the_state_entering_the_step(self, spark):
        counts = np.bincount(LABELS, minlength=2)
        sums = np.array([[X[LABELS == r].sum()] for r in (0, 1)])
        tgt, delta = boost_best_move_full(X[:, None], LABELS, sums, counts)
        moved = np.where(delta > 0, tgt, LABELS)
        assert moved.tolist() == [0, 1, 0, 1, 1, 1, 1]
        assert _objective(moved) < _objective(LABELS)

        pdf = pd.DataFrame({"id": range(len(X)), "features": [[x] for x in X],
                            "label": LABELS})
        state = spark.createDataFrame(pdf, STATE_SCHEMA).localCheckpoint(eager=True)
        S, n = sum_sq_norms(state)
        run = iterate.run(lambda: state, 2, (S, n), rule="boost", iters=5,
                          rel_tol=1e-9)
        got = run.state.toPandas().sort_values("id")["label"].tolist()
        assert got == LABELS.tolist()
        assert len(run.history) == 1
        assert run.final_E == pytest.approx((S - _objective(LABELS)) / n, rel=1e-12)


class TestPreconditions:
    def test_k_exceeds_n_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="exceeds"):
            iterate.run(lambda: None, 601, sum_sq_norms(feats_small),
                        rule="nearest", iters=1, rel_tol=1e-9)

    def test_unknown_rule_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="unknown rule"):
            iterate.run(lambda: None, 2, sum_sq_norms(feats_small),
                        rule="x", iters=1, rel_tol=1e-9)
