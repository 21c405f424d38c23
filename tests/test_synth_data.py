"""Tests for the synthetic datasets (provided TPC-H-lite + our feature GMMs)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import synth_data as sd
from repro.common.vectors import to_matrix


class TestFeatureDataset:
    def test_schema(self, spark):
        df = sd.feature_dataset(spark, n=50, d=4, n_modes=3, seed=1)
        assert df.columns == ["id", "features", "mode"]
        row = df.first()
        assert len(row["features"]) == 4

    def test_row_count_and_ids(self, spark):
        df = sd.feature_dataset(spark, n=123, d=3, n_modes=4, seed=2)
        pdf = df.toPandas().sort_values("id")
        assert len(pdf) == 123
        assert pdf["id"].tolist() == list(range(123))

    @pytest.mark.parametrize("parts", [2, 5, 16])
    def test_partition_independence(self, spark, parts):
        """Same (seed, id) -> same features, whatever the partitioning."""
        a = sd.feature_dataset(
            spark, n=80, d=5, n_modes=3, seed=3, num_partitions=parts
        ).toPandas().sort_values("id").reset_index(drop=True)
        b = sd.feature_dataset(
            spark, n=80, d=5, n_modes=3, seed=3, num_partitions=3
        ).toPandas().sort_values("id").reset_index(drop=True)
        np.testing.assert_allclose(to_matrix(a["features"]), to_matrix(b["features"]))
        np.testing.assert_array_equal(a["mode"], b["mode"])

    def test_seed_changes_data(self, spark):
        a = sd.feature_dataset(spark, n=30, d=4, n_modes=2, seed=1).toPandas()
        b = sd.feature_dataset(spark, n=30, d=4, n_modes=2, seed=2).toPandas()
        assert not np.allclose(
            to_matrix(a.sort_values("id")["features"]),
            to_matrix(b.sort_values("id")["features"]),
        )

    def test_modes_cluster_geometry(self, spark):
        """Points of one mode must be nearer their own mode mean."""
        pdf = sd.feature_dataset(
            spark, n=400, d=8, n_modes=4, sigma=0.2, seed=5
        ).toPandas()
        X = to_matrix(pdf["features"])
        modes = pdf["mode"].to_numpy()
        centers = np.stack([X[modes == m].mean(0) for m in range(4)])
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(-1)
        assert (d2.argmin(1) == modes).mean() > 0.95

    def test_mode_weights_skew(self, spark):
        w = np.array([0.8, 0.1, 0.1])
        pdf = sd.feature_dataset(
            spark, n=2000, d=2, n_modes=3, mode_weights=w, seed=6
        ).toPandas()
        freq = pdf["mode"].value_counts(normalize=True)
        assert freq.loc[0] > 0.7

    @pytest.mark.parametrize("bad", [dict(n=0, d=2, n_modes=1),
                                     dict(n=5, d=0, n_modes=1),
                                     dict(n=5, d=2, n_modes=0)])
    def test_invalid_params(self, spark, bad):
        with pytest.raises(ValueError):
            sd.feature_dataset(spark, **bad)


class TestNamedDatasets:
    @pytest.mark.parametrize(
        "gen,default_d",
        [(sd.sift_like, 128), (sd.vlad_like, 64), (sd.glove_like, 100),
         (sd.gist_like, 192)],
    )
    def test_default_dims(self, spark, gen, default_d):
        df = gen(spark, n=40)
        assert len(df.first()["features"]) == default_d
        assert df.count() == 40

    @pytest.mark.parametrize(
        "gen", [sd.sift_like, sd.vlad_like, sd.glove_like, sd.gist_like]
    )
    def test_deterministic(self, spark, gen):
        a = gen(spark, n=30, d=8).toPandas().sort_values("id")
        b = gen(spark, n=30, d=8).toPandas().sort_values("id")
        np.testing.assert_allclose(
            to_matrix(a["features"]), to_matrix(b["features"])
        )

    def test_glove_mode_sizes_powerlaw(self, spark):
        pdf = sd.glove_like(spark, n=5000, d=4).toPandas()
        counts = pdf["mode"].value_counts()
        assert counts.iloc[0] > 3 * counts.iloc[len(counts) // 2]

