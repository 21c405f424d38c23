"""Tests for the two-means tree (Alg. 1)."""
from __future__ import annotations

import pytest

from repro.common.stats import centroids_from_stats, cluster_stats, distortion
from repro.core.two_means import two_means_tree


class TestTwoMeansTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 50])
    def test_exactly_k_clusters(self, spark, feats_small, k):
        state = two_means_tree(spark, feats_small, k, seed=1)
        labels = state.select("label").distinct().toPandas()["label"]
        assert sorted(labels) == list(range(k))

    @pytest.mark.parametrize("k", [2, 8, 24])
    def test_balanced_sizes(self, spark, feats_small, k):
        """Alg. 1's equal-size adjustment: sizes within 2x of each other."""
        state = two_means_tree(spark, feats_small, k, seed=2)
        sizes = state.groupBy("label").count().toPandas()["count"]
        assert sizes.max() <= 2 * sizes.min() + 1

    def test_covers_all_points_once(self, spark, feats_small):
        state = two_means_tree(spark, feats_small, 10, seed=3)
        ids = state.select("id").toPandas()["id"]
        assert len(ids) == feats_small.count()
        assert ids.is_unique

    def test_deterministic(self, spark, feats_small):
        a = two_means_tree(spark, feats_small, 6, seed=9).toPandas()
        b = two_means_tree(spark, feats_small, 6, seed=9).toPandas()
        merged = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert (merged["label_a"] == merged["label_b"]).all()

    def test_independent_of_partitioning(self, spark, feats_small):
        """Same data and seed on 3 and on 7 input partitions: same labels."""
        a = two_means_tree(spark, feats_small.repartition(3), 12, seed=1).toPandas()
        b = two_means_tree(spark, feats_small.repartition(7), 12, seed=1).toPandas()
        merged = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert len(merged) == feats_small.count()
        assert (merged["label_a"] == merged["label_b"]).all()

    def test_seed_matters(self, spark, feats_small):
        a = two_means_tree(spark, feats_small, 8, seed=1).toPandas()
        b = two_means_tree(spark, feats_small, 8, seed=2).toPandas()
        merged = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert (merged["label_a"] != merged["label_b"]).any()

    def test_better_than_random_partition(self, spark, feats_mid):
        """Spatial bisection must beat a random partition on distortion."""
        from repro.core.iterate import random_partition

        def own_distortion(state):
            C, _ = centroids_from_stats(*cluster_stats(state, k))
            return distortion(state, C)

        k = 16
        tree = two_means_tree(spark, feats_mid, k, seed=4)
        rand = random_partition(feats_mid, k, seed=4)
        assert own_distortion(tree) < 0.8 * own_distortion(rand)

    def test_k_equals_n(self, spark, feats_small):
        n = feats_small.count()
        state = two_means_tree(spark, feats_small.limit(16), 16, seed=5)
        sizes = state.groupBy("label").count().toPandas()["count"]
        assert (sizes == 1).all()

    def test_k_too_large_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="exceeds"):
            two_means_tree(spark, feats_small.limit(5), 6, seed=0)

    def test_k_below_one_raises(self, spark, feats_small):
        with pytest.raises(ValueError):
            two_means_tree(spark, feats_small, 0, seed=0)

    def test_separated_modes_recovered(self, spark):
        """With k = #modes, well-separated GMM modes map ~1:1 to clusters."""
        from repro import synth_data as sd

        feats = sd.feature_dataset(
            spark, n=400, d=6, n_modes=4, sigma=0.15, center_scale=8.0, seed=8
        ).localCheckpoint(eager=True)
        state = two_means_tree(spark, feats, 4, seed=6)
        joined = state.join(feats.select("id", "mode"), on="id").toPandas()
        # each cluster should be dominated by a single true mode
        purity = (
            joined.groupby("label")["mode"]
            .agg(lambda s: s.value_counts().iloc[0] / len(s))
            .min()
        )
        assert purity > 0.85
