"""The repository benchmark: one workload, one seed, one fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tab2_gk --seed 1 --seconds 10 --trace 0

The run starts a local Spark session with one task slot per core, generates
``vlad_like`` from the seed and computes the exact-KNN ground truth (three
times: ``setup_s`` counts the start of Spark and the median of the three),
then runs passes of the workload until ``--seconds`` have gone by (at least
one), checking each pass's outputs. There is no warm-up pass: each job of
``jobs/`` is a fresh process too, so its users pay JIT compilation and the
first plans' code generation on every run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, medians over
the passes. ``--trace 1`` runs an untraced, a traced and an untraced pass and
prints the per-layer metrics: span self times and Spark counters per layer,
the kernel replay and the tracing overhead. Either way the last line of
standard output is the JSON result; provenance, per-pass figures and spans
go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
DRIVER_MEMORY = "1g"


def process_age_s() -> float:
    """Seconds since this process started, from /proc."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _ppids() -> dict[int, int]:
    out = {}
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                out[int(p.name)] = int((p / "stat").read_text().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
    return out


def descendants(pid: int) -> set[int]:
    """Every live process below ``pid``: the JVM and its Python workers."""
    children: dict[int, list[int]] = {}
    for child, parent in _ppids().items():
        children.setdefault(parent, []).append(child)
    found, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in found:
                found.add(c)
                todo.append(c)
    return found


def peak_rss_mb() -> dict[str, float]:
    """VmHWM in MB of this process, the driver JVM and the JVM's Python workers.

    Returns the three sums by kind, their ``total`` and the worker count.
    """
    out = {"driver": 0.0, "jvm": 0.0, "workers": 0.0, "n_workers": 0}
    for pid in descendants(os.getpid()) | {os.getpid()}:
        try:
            comm = Path(f"/proc/{pid}/comm").read_text().strip()
            status = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue  # ended while we looked
        hwm = next((int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")), 0) / 1024.0
        kind = ("driver" if pid == os.getpid() else "jvm" if comm == "java"
                else "workers")
        out[kind] += hwm
        out["n_workers"] += kind == "workers"
    out["total"] = out["driver"] + out["jvm"] + out["workers"]
    return out


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded in this process."""
    import ctypes

    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in Path(path).name.lower():
            lib = ctypes.CDLL(path)
            for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    return int(fn())
    return None


def start_spark(slots: int):
    """Local Spark with ``slots`` task slots; temporary files stay under OUT."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # inherited by the JVM's Python workers
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{slots}]", f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(slots))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM and its Python workers have exited."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits at EOF on its stdin
        proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.1)


def provenance(spark, workload: str, seed: int, slots: int, blas_driver) -> dict:
    import numpy
    import pandas
    import pyarrow

    mem_kb = next(int(line.split()[1]) for line in
                  Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal:"))
    sc = spark.sparkContext
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024), "spark_master": sc.master,
        "task_slots": slots, "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": DRIVER_MEMORY,
        "spark": spark.version, "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__, "pandas": pandas.__version__,
        "python": sys.version.split()[0],
        "openblas_threads_driver": blas_driver,
        "openblas_threads_workers": os.environ.get(
            "OPENBLAS_NUM_THREADS", "unset (OpenBLAS default, one per core)"),
    }


def make_inputs(spark, n: int, d: int, n_queries: int, seed: int):
    """Checkpointed ``vlad_like`` features and, for ``n_queries`` > 0, the
    exact nearest neighbour of that many sampled points."""
    from repro import synth_data
    from repro.baselines.brute_knn import exact_knn

    feats = synth_data.vlad_like(spark, n=n, d=d, seed=seed).localCheckpoint(eager=True)
    if not n_queries:
        return feats, None
    return feats, exact_knn(spark, feats, 1, n_queries=n_queries, seed=seed)


def release(p) -> None:
    for run in p.runs.values():
        run.state.unpersist()
    if p.graph is not None:
        p.graph.unpersist()


def pass_figures(p, n: int) -> dict:
    return {
        "total_s": p.total_s,
        "init_s": p.total_s - p.iter_s,
        "cluster_init_s": p.init_s,
        "cluster_iter_s": p.iter_s,
        "assign_pts_per_s": n * p.iterations / p.iter_s,
        "final_E": p.final_E,
        "E": {m: r.final_E for m, r in p.runs.items()},
        "graph_build_s": p.graph_build_s,
        "iterations": p.iterations,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # The replay of the kernels is single-threaded: OpenBLAS reads this when
    # numpy is first imported, here in the driver only. It is removed again
    # before the JVM starts, so Spark's Python workers keep their default.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import numpy as np  # noqa: F401  (loads OpenBLAS with one thread)

    blas_driver = openblas_threads()
    del os.environ["OPENBLAS_NUM_THREADS"]

    from perfbench import checks, workloads

    if args.workload not in workloads.PARAMS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.PARAMS)}", file=sys.stderr)
        return 2
    data, params = workloads.DATA, workloads.PARAMS[args.workload]
    n, k = data["n"], data["k"]
    slots = len(os.sched_getaffinity(0))
    OUT.mkdir(parents=True, exist_ok=True)

    spark = start_spark(slots)
    try:
        spark_up_s = process_age_s()
        setup_reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            feats, truth = make_inputs(spark, data["n"], data["d"], data["n_queries"],
                                       args.seed)
            setup_reps.append(time.perf_counter() - t0)
        setup_s = spark_up_s + statistics.median(setup_reps)
        prov = provenance(spark, args.workload, args.seed, slots, blas_driver)
        print("provenance " + json.dumps(prov), flush=True)

        def checked(p) -> dict:
            errors, recall = checks.check_pass(p, args.workload, n, k, params, truth)
            for e in errors:
                print(f"check failed: {e}", file=sys.stderr)
            return pass_figures(p, n) | {"graph_recall": recall, "errors": errors}

        def one_pass() -> dict:
            p = workloads.run_pass(spark, feats, args.workload, k, params, args.seed)
            fig = checked(p)
            release(p)
            return fig

        figures = []
        if args.trace == 0:
            t_start = time.perf_counter()
            while not figures or time.perf_counter() - t_start < args.seconds:
                figures.append(one_pass())
            metrics = end_to_end(figures, setup_s)
        else:
            from perfbench import trace

            # Untraced passes before and after the traced one: their mean
            # cancels the JVM's warming from pass to pass in trace.overhead_s.
            figures.append(one_pass())
            with trace.Tracer(spark, run_id=f"{args.workload}-{args.seed}") as tracer:
                p = workloads.run_pass(spark, feats, args.workload, k, params, args.seed)
            figures.append(checked(p))
            metrics = per_layer(tracer, p, figures[1], feats, args, params)
            release(p)
            figures.append(one_pass())
            untraced_s = (figures[0]["total_s"] + figures[2]["total_s"]) / 2
            metrics["trace.overhead_s"] = figures[1]["total_s"] - untraced_s
            metrics["knn_graph.build_s"] = figures[0]["graph_build_s"] or 0.0
            metrics["knn_graph.recall"] = figures[0]["graph_recall"] or 0.0
            metrics = {name: (value, trace.unit(name)) for name, value in metrics.items()}
        failed = sum(1 for f in figures if f["errors"])
        rss = peak_rss_mb()
        if args.trace == 0:
            metrics["runs_ok"] = ((len(figures) - failed) / len(figures), "fraction")
            metrics["peak_rss_mb"] = (rss["total"], "MB")
        record = {"provenance": prov, "data": data, "params": params,
                  "passes": figures, "setup_reps_s": setup_reps,
                  "spark_up_s": spark_up_s, "process_s": process_age_s(),
                  "peak_rss_mb": rss}
        if args.trace:
            print(f"note: {', '.join(trace.LAZY)} return lazy DataFrames; the "
                  "work of their plans is charged to the span that runs them",
                  flush=True)
            record |= {"lazy": trace.LAZY, "moves": trace.MOVES,
                       "spans": [s.as_dict() for s in tracer.spans]}
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
    finally:
        stop_spark(spark)

    result = {
        "correct": failed == 0,
        "attempted": len(figures),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(figures: list[dict], setup_s: float) -> dict:
    med = {key: statistics.median(f[key] for f in figures)
           for key in ("total_s", "init_s", "cluster_init_s", "cluster_iter_s",
                       "assign_pts_per_s", "final_E")}
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (med["total_s"], "s"),
        "init_s": (med["init_s"], "s"),
        "cluster_init_s": (med["cluster_init_s"], "s"),
        "cluster_iter_s": (med["cluster_iter_s"], "s"),
        "assign_pts_per_s": (med["assign_pts_per_s"], "1/s"),
        "final_E": (med["final_E"], "sq_dist"),
    }


def per_layer(tracer, p, traced: dict, feats, args, params) -> dict[str, float]:
    """Per-layer metrics of the traced pass ``p``, with the kernel replay."""
    import numpy as np

    from perfbench import replay, trace, workloads

    summary = trace.layer_summary(tracer.spans)
    gk, bk, cl = (p.runs.get(m) for m in ("gkmeans", "bkm", "closure"))
    k = workloads.DATA["k"]
    summary["gkmeans.evals_per_point"] = gk.extra["mean_candidates"] + 1 if gk else 0.0
    summary["closure.evals_per_point"] = cl.extra["mean_candidates"] if cl else 0.0
    summary["closure.final_E"] = cl.final_E if cl else 0.0
    summary["bkm.evals_per_point"] = k if bk else 0
    summary["knn_graph.rounds"] = len(p.graph_history) - 1 if p.graph is not None else 0

    rows = feats.select("id", "features").toPandas().sort_values("id")
    X = np.stack(rows["features"].to_numpy())

    def labels(run):
        lab = run.state.select("id", "label").toPandas().sort_values("id")
        return lab["label"].to_numpy(dtype=np.int64)

    kern = dict.fromkeys(
        (f"kernels.{f}_{u}" for f in replay.FUNCTIONS for u in ("s", "gflop", "mb")), 0.0)
    iteration_s = 0.0
    for method, run in p.runs.items():
        edges = p.graph.select("id", "nbr").toPandas() if method == "gkmeans" else None
        part = replay.replay(method, X, labels(run), k, params, args.seed,
                             len(run.history) - 1, edges=edges, closure_extra=run.extra)
        iteration_s += part[f"kernels.{replay.ITERATION_KERNEL[method]}_s"]
        for key, value in part.items():
            kern[key] += value
    summary.update(kern)
    summary["kernels.share"] = iteration_s / traced["cluster_iter_s"]

    # traced total_s = sum of layer self_s + bookkeeping_s + unspanned_s
    summary["trace.bookkeeping_s"] = tracer.bookkeeping_s
    summary["trace.unspanned_s"] = (traced["total_s"] - tracer.bookkeeping_s
                                    - sum(s.self_s for s in tracer.spans))
    return summary


if __name__ == "__main__":
    sys.exit(main())
