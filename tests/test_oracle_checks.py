"""Extra DuckDB oracle checks for query-shaped Spark computations used
throughout the reproduction (joins, aggregations, windows)."""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.core.iterate import random_partition
from repro.oracle import assert_equivalent


class TestProvidedOracle:
    def test_feature_join_aggregate(self, spark, feats_small):
        """Oracle wiring end to end: features ⋈ partition labels, grouped."""
        pts = feats_small.select("id", "mode", F.col("features")[0].alias("x0"))
        lab = random_partition(feats_small, 6, seed=5).select("id", "label")
        got = (
            pts.join(lab, on="id")
            .groupBy("label", "mode")
            .agg(F.count("*").alias("cnt"), F.round(F.sum("x0"), 6).alias("s"))
        )
        assert_equivalent(
            got,
            """SELECT l.label, p.mode, count(*) AS cnt, round(sum(p.x0), 6) AS s
               FROM p JOIN l USING (id)
               GROUP BY l.label, p.mode""",
            p=pts, l=lab,
        )


class TestGraphQueriesOracle:
    def test_top_kappa_window_matches_sql(self, spark, feats_small):
        """The Alg.-3 merge (groupBy-min + row_number window) vs DuckDB."""
        from repro.core.knn_graph import random_graph, top_kappa
        from repro.baselines.nn_descent import edge_distances

        g = edge_distances(
            feats_small, random_graph(spark, feats_small, 8, seed=3)
        )
        got = top_kappa(g, 3).select("id", "nbr", F.round("dist", 6).alias("dist"))
        gpdf = g.toPandas()
        assert_equivalent(
            got,
            """WITH dedup AS (
                   SELECT id, nbr, min(dist) AS dist FROM g GROUP BY id, nbr
               ), ranked AS (
                   SELECT id, nbr, round(dist, 6) AS dist,
                          row_number() OVER (PARTITION BY id
                                             ORDER BY dist, nbr) AS rk
                   FROM dedup
               )
               SELECT id, nbr, dist FROM ranked WHERE rk <= 3""",
            g=gpdf,
        )

    def test_two_hop_expansion_matches_sql(self, spark, feats_small):
        """NN-Descent's neighbour-of-neighbour join vs DuckDB."""
        from repro.core.knn_graph import random_graph

        B = random_graph(spark, feats_small.limit(60), 3, seed=4).select("id", "nbr")
        got = (
            B.alias("a")
            .join(B.alias("b"), F.col("a.nbr") == F.col("b.id"))
            .select(F.col("a.id").alias("id"), F.col("b.nbr").alias("nbr"))
            .filter(F.col("id") != F.col("nbr"))
            .distinct()
        )
        bp = B.toPandas()
        assert_equivalent(
            got,
            """SELECT DISTINCT a.id AS id, b.nbr AS nbr
               FROM b a JOIN b b ON a.nbr = b.id
               WHERE a.id <> b.nbr""",
            b=bp,
        )

    def test_closure_candidates_match_sql(self, spark, feats_small):
        """Closure k-means' candidates, the neighbour-label query over the
        cell-mate table, vs the closure rule itself in DuckDB: every label
        present in one of the point's cells (two joins)."""
        from repro.baselines.closure import build_rp_trees, cell_mates
        from repro.core.iterate import candidate_labels

        cells = build_rp_trees(spark, feats_small, n_trees=2, leaf_size=20, seed=5)
        lab = random_partition(feats_small, 6, seed=5).select("id", "label")
        got = candidate_labels(lab, cell_mates(cells)).select(
            "id", F.size("cands").alias("n_cand")
        )
        assert_equivalent(
            got,
            """WITH cl AS (
                   SELECT DISTINCT c.tree, c.cell, l.label
                   FROM cells c JOIN lab l USING (id)
               )
               SELECT c.id, count(DISTINCT cl.label) AS n_cand
               FROM cells c JOIN cl ON c.tree = cl.tree AND c.cell = cl.cell
               GROUP BY c.id""",
            cells=cells.toPandas(), lab=lab.toPandas(),
        )
