"""Quick self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at toy size (n = 2^11
ladders, one mixed signal per op, two tones) and asserts that

* each run is correct and prints exactly the metrics BENCHMARK.json names
  for it, each with its unit and a finite value;
* in traced runs the layer self times add up to the ops' wall time;
* README.md names every layer a per-layer metric belongs to;
* without a source tree next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--toy")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(out)}")
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        problems.append(f"{where}: not correct\n{proc.stdout}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metric units differ: {sorted(set(got.items()) ^ set(want.items()))}")
    values = {name: m["value"] for name, m in out["metrics"].items()}
    bad = [n for n, v in values.items() if not (isinstance(v, (int, float)) and math.isfinite(v))]
    if bad:
        problems.append(f"{where}: non-finite values {bad}")
    if trace:
        self_sum = sum(v for n, v in values.items() if n.endswith(".self_s"))
        wall = values["trace.op_wall_s"]
        if abs(self_sum - wall) > 1e-6 * wall:
            problems.append(f"{where}: layer self times sum to {self_sum}, ops took {wall}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "--workload", "grid-ladder", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (BENCH_DIR / "README.md").read_text()
    problems = [f"README.md does not name layer `{m['name'].rsplit('.', 1)[0]}`"
                for m in spec["per_layer"] if f"`{m['name'].rsplit('.', 1)[0]}" not in readme]
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(spec, w["name"], trace)
    problems += check_bare_directory()
    for p in problems:
        print(p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
