"""Tests for batch boost k-means (BKM)."""
from __future__ import annotations

import pytest

from repro.baselines.lloyd import lloyd_kmeans
from repro.core.bkm import boost_kmeans
from repro.core.iterate import random_partition


class TestRandomPartition:
    def test_k_clusters_roughly_balanced(self, spark, feats_mid):
        state = random_partition(feats_mid, 10, seed=1)
        sizes = state.groupBy("label").count().toPandas()
        assert len(sizes) == 10
        assert sizes["count"].min() > 100  # 2000/10 = 200 expected

    def test_deterministic(self, spark, feats_small):
        a = random_partition(feats_small, 5, seed=2).toPandas()
        b = random_partition(feats_small, 5, seed=2).toPandas()
        m = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert (m["label_a"] == m["label_b"]).all()


class TestBoostKMeans:
    def test_distortion_decreases_from_random(self, spark, feats_mid):
        run = boost_kmeans(spark, feats_mid, 12, iters=8, seed=0, init="random")
        E = [h["E"] for h in run.history]
        assert E[-1] < E[0]
        assert E[-1] < 0.7 * E[0]  # random init leaves big headroom

    def test_default_2m_init_beats_random_init(self, spark, feats_mid):
        """Why the batch adaptation defaults to the 2M-tree init."""
        tree = boost_kmeans(spark, feats_mid, 24, iters=8, seed=0)
        rand = boost_kmeans(spark, feats_mid, 24, iters=8, seed=0, init="random")
        assert tree.final_E <= rand.final_E * 1.02

    def test_quality_at_least_lloyd(self, spark, feats_mid):
        """The paper's claim: BKM converges to a better local optimum."""
        bkm = boost_kmeans(spark, feats_mid, 16, iters=12, seed=1)
        llo = lloyd_kmeans(spark, feats_mid, 16, iters=12, seed=1)
        assert bkm.final_E <= llo.final_E * 1.05

    def test_labels_stay_in_range(self, spark, feats_small):
        run = boost_kmeans(spark, feats_small, 6, iters=4, seed=2)
        lab = run.state.select("label").distinct().toPandas()["label"]
        assert lab.min() >= 0 and lab.max() < 6

    def test_2m_init_supported(self, spark, feats_small):
        run = boost_kmeans(spark, feats_small, 8, iters=3, seed=3, init="2m")
        assert run.final_E < run.history[0]["E"] * 1.01

    def test_bad_init_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="unknown init"):
            boost_kmeans(spark, feats_small, 4, iters=1, init="nope")

    def test_k_exceeds_n_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="exceeds"):
            boost_kmeans(spark, feats_small.limit(3), 10, iters=1)

    def test_no_lost_points(self, spark, feats_small):
        run = boost_kmeans(spark, feats_small, 5, iters=3, seed=4)
        assert run.state.count() == feats_small.count()
