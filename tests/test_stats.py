"""Tests for distributed cluster statistics — including DuckDB oracle
checks for every query-shaped computation (sizes, distortion)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.common import stats as S
from repro.common.kernels import assign_nearest
from repro.common.vectors import to_matrix
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def labeled_state(spark, feats_small):
    """feats_small with a deterministic 7-cluster random label column."""
    from repro.core.iterate import random_partition

    df = random_partition(feats_small, 7, seed=5).localCheckpoint(eager=True)
    df.count()
    return df


class TestClusterStats:
    def test_counts_match_groupby_oracle(self, spark, labeled_state):
        """Spark per-cluster sizes == DuckDB GROUP BY over the same rows."""
        counts, _ = S.cluster_stats(labeled_state, 7)
        got = spark.createDataFrame(
            pd.DataFrame({"label": range(7), "cnt": counts.astype("int64")})
        )
        labels_pdf = labeled_state.select("id", "label").toPandas()
        assert_equivalent(
            got,
            "SELECT label, count(*) AS cnt FROM t GROUP BY label",
            t=labels_pdf,
        )

    def test_sums_match_pandas(self, labeled_state):
        counts, sums = S.cluster_stats(labeled_state, 7)
        pdf = labeled_state.toPandas()
        X = to_matrix(pdf["features"])
        lab = pdf["label"].to_numpy()
        for r in range(7):
            np.testing.assert_allclose(sums[r], X[lab == r].sum(0), rtol=1e-9)
            assert counts[r] == (lab == r).sum()

    def test_total_count_is_n(self, labeled_state):
        counts, _ = S.cluster_stats(labeled_state, 7)
        assert counts.sum() == labeled_state.count()

    def test_empty_cluster_rows_zero(self, spark, feats_small):
        state = feats_small.select("id", "features").withColumn(
            "label", F.lit(3).cast("long")
        )
        counts, sums = S.cluster_stats(state, 5)
        assert counts[3] == feats_small.count()
        for r in (0, 1, 2, 4):
            assert counts[r] == 0 and np.allclose(sums[r], 0)

    def test_label_out_of_range_raises(self, spark, feats_small):
        state = feats_small.select("id", "features").withColumn(
            "label", F.lit(9).cast("long")
        )
        with pytest.raises(ValueError, match="labels outside"):
            S.cluster_stats(state, 5)


class TestCentroids:
    def test_centroids_are_means(self, labeled_state):
        counts, sums = S.cluster_stats(labeled_state, 7)
        C, mask = S.centroids_from_stats(counts, sums)
        pdf = labeled_state.toPandas()
        X, lab = to_matrix(pdf["features"]), pdf["label"].to_numpy()
        for r in range(7):
            if mask[r]:
                np.testing.assert_allclose(C[r], X[lab == r].mean(0), rtol=1e-9)

    def test_empty_mask(self):
        C, mask = S.centroids_from_stats(
            np.array([2, 0]), np.array([[2.0, 4.0], [0.0, 0.0]])
        )
        assert mask.tolist() == [True, False]
        np.testing.assert_allclose(C[0], [1.0, 2.0])


class TestDistortionIdentity:
    def test_E_equals_S_minus_I_over_n(self, labeled_state):
        """The identity E=(S-I)/n that makes boost-method tracking free."""
        k = 7
        counts, sums = S.cluster_stats(labeled_state, k)
        I = S.objective_from_stats(counts, sums)
        sq, n = S.sum_sq_norms(labeled_state)
        C, _ = S.centroids_from_stats(counts, sums)
        direct = S.distortion(labeled_state, C)
        assert direct == pytest.approx((sq - I) / n, rel=1e-9)

    def test_distortion_oracle_sql(self, spark, feats_small):
        """E for a 2-d slice checked against DuckDB arithmetic."""
        pdf = feats_small.limit(100).toPandas()
        X = to_matrix(pdf["features"])[:, :2]
        lab = np.arange(len(pdf)) % 3
        flat = pd.DataFrame(
            {"id": pdf["id"], "x0": X[:, 0], "x1": X[:, 1], "label": lab}
        )
        C = np.stack([X[lab == r].mean(0) for r in range(3)])
        cent = pd.DataFrame(
            {"label": range(3), "c0": C[:, 0], "c1": C[:, 1]}
        )
        state = spark.createDataFrame(flat).select(
            "id", F.array("x0", "x1").alias("features"),
            F.col("label").cast("long").alias("label"),
        )
        E = S.distortion(state, C)
        got = spark.createDataFrame(pd.DataFrame({"e": [E]}))
        assert_equivalent(
            got,
            """SELECT avg((t.x0-c.c0)*(t.x0-c.c0) + (t.x1-c.c1)*(t.x1-c.c1)) AS e
               FROM t JOIN c USING (label)""",
            t=flat, c=cent,
        )

    def test_distortion_zero_when_points_are_centroids(self, spark):
        pdf = pd.DataFrame(
            {"id": [0, 1], "features": [[1.0, 1.0], [2.0, 2.0]],
             "label": [0, 1]}
        )
        state = spark.createDataFrame(pdf)
        C = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert S.distortion(state, C) == pytest.approx(0.0)


class TestSumSqNorms:
    def test_matches_numpy(self, feats_small):
        sq, n = S.sum_sq_norms(feats_small)
        X = to_matrix(feats_small.toPandas()["features"])
        assert n == len(X)
        assert sq == pytest.approx(float((X**2).sum()), rel=1e-9)

    def test_assignment_distortion_consistency(self, spark, feats_small):
        """distortion(assign(C), C) equals numpy's min-distance mean."""
        from repro.baselines.lloyd import assign_to_centroids

        rng = np.random.default_rng(3)
        C = rng.standard_normal((4, 12))
        state = assign_to_centroids(feats_small, C)
        E = S.distortion(state, C)
        X = to_matrix(feats_small.toPandas()["features"])
        _, dmin = assign_nearest(X, C)
        assert E == pytest.approx(dmin.mean(), rel=1e-9)
