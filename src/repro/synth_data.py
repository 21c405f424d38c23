"""Synthetic feature datasets for the GK-means reproduction.

Stand-ins for the paper's SIFT1M / VLAD10M / GloVe1M / GIST1M (DESIGN.md
§4).  Each is a Gaussian mixture: mode centres drawn once on the driver,
every point = centre(mode_of(id)) + sigma * hash_normal(id).  Generation
runs distributedly via mapInPandas over spark.range(n) and is a pure
function of (seed, id) — see repro.common.vectors — so any partitioning
yields the same dataset.  The true mode id is kept as a column: it is
ground truth for tests, and harnesses simply ignore it.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

FEATURE_SCHEMA = "id long, features array<double>, mode int"


def feature_dataset(
    spark: SparkSession,
    *,
    n: int,
    d: int,
    n_modes: int,
    sigma: float = 0.4,
    center_scale: float = 1.0,
    mode_weights: np.ndarray | None = None,
    seed: int = 0,
    num_partitions: int | None = None,
) -> DataFrame:
    """Gaussian-mixture feature table: (id, features array<double>, mode).

    ``mode_weights`` (optional, length ``n_modes``) skews the mode sizes
    (power-law weights make GloVe-like "hard" data).  Deterministic in
    ``seed`` independent of partitioning.
    """
    if n_modes < 1 or n < 1 or d < 1:
        raise ValueError(f"need n, d, n_modes >= 1, got {n=} {d=} {n_modes=}")
    from repro.common import vectors as V

    g = np.random.default_rng(seed)
    centers = g.standard_normal((n_modes, d)) * center_scale
    weights = None
    if mode_weights is not None:
        w = np.asarray(mode_weights, dtype=np.float64)
        if w.shape != (n_modes,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("mode_weights must be non-negative, length n_modes")
        weights = w / w.sum()

    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy(dtype=np.int64)
            if weights is None:
                modes = V.hash_choice(ids, n_modes, seed + 101)
            else:
                modes = V.weighted_hash_choice(ids, weights, seed + 101)
            feats = centers[modes] + sigma * V.hash_normals(ids, d, seed + 202)
            yield pd.DataFrame(
                {
                    "id": ids,
                    "features": V.matrix_to_column(feats),
                    "mode": modes.astype(np.int32),
                }
            )

    parts = num_partitions or max(2, min(64, n // 2000 + 1))
    return spark.range(0, n, numPartitions=parts).mapInPandas(gen, FEATURE_SCHEMA)


def sift_like(spark: SparkSession, *, n: int, d: int = 128, seed: int = 7) -> DataFrame:
    """SIFT-style local descriptors: many well-separated modes, low noise."""
    return feature_dataset(
        spark, n=n, d=d, n_modes=max(16, n // 200), sigma=0.35, seed=seed
    )


def vlad_like(spark: SparkSession, *, n: int, d: int = 64, seed: int = 11) -> DataFrame:
    """VLAD-style aggregated descriptors (paper: 512-d; scaled, DESIGN.md §4)."""
    return feature_dataset(
        spark, n=n, d=d, n_modes=max(16, n // 100), sigma=0.4, seed=seed
    )


def glove_like(spark: SparkSession, *, n: int, d: int = 100, seed: int = 13) -> DataFrame:
    """GloVe-style word vectors: power-law mode sizes + heavier noise (harder)."""
    n_modes = max(16, n // 300)
    w = 1.0 / np.arange(1, n_modes + 1, dtype=np.float64) ** 1.2
    return feature_dataset(
        spark, n=n, d=d, n_modes=n_modes, sigma=0.6, mode_weights=w, seed=seed
    )


def gist_like(spark: SparkSession, *, n: int, d: int = 192, seed: int = 17) -> DataFrame:
    """GIST-style global descriptors (paper: 960-d; scaled, DESIGN.md §4)."""
    return feature_dataset(
        spark, n=n, d=d, n_modes=max(16, n // 150), sigma=0.5, seed=seed
    )
