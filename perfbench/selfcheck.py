"""Self-check of the benchmark: every workload emits every named metric.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/selfcheck.py

For each workload of BENCHMARK.json and each ``--trace`` setting it runs
``perfbench/run.py`` with ``--seconds 1`` and asserts that the last line of
output is a result whose metrics are exactly the end-to-end (``--trace 0``)
or per-layer (``--trace 1``) metrics of BENCHMARK.json, with their units,
that the outputs passed their checks, and that every end-to-end value is
finite and above 0. It also asserts that a directory holding only
BENCHMARK.json and the benchmark makes the command fail without a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[n for n in want if got.get(n, want[n]) != want[n]]}")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), (workload, name, m)
        if not trace:
            assert m["value"] > 0, (workload, name, m)
    print(f"ok: {workload} --trace {trace}: {len(got)} metrics", flush=True)


def check_refuses_without_program() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run(bare, "tab2_gk", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"
    print("ok: refuses to run without the program", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_program()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_metrics(spec, w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
