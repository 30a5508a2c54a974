"""Record the fingerprints every benchmark op is checked against.

    python3 perfbench/record_reference.py

Runs every pool op of every workload once, at full and at toy size, asserts
the properties the benchmark checks, and writes perfbench/reference.json.
Rerun it only when the benchmark's inputs change: a library change that
moves a fingerprint is a change of behaviour, not a reason to re-record.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402

CALIBRATION_SAMPLES = 51
SETUP_CALIBRATION_SAMPLES = 15


def record(workload: str, toy: bool, failures: list) -> dict:
    inputs = workloads.build_inputs(workload, run.ROOT, toy, 0, None)
    out = {}
    for op in inputs.ops:
        evals = inputs.oracle_evals[0]
        t0 = time.perf_counter()
        result = op.run()
        entry = op.fingerprint(result)
        if op.kind == "tone":
            entry["evals"] = inputs.oracle_evals[0] - evals
        if op.digest is not None:
            entry["digest"] = op.digest
        try:
            op.check(result, entry)
        except workloads.CheckFailed as exc:
            failures.append(f"{workload} {op.key}: {exc}")
        out[op.key] = entry
        print(f"{workload:13s} {'toy' if toy else 'full'} {op.key:10s} {time.perf_counter() - t0:7.3f} s",
              file=sys.stderr)
    return out


def main() -> int:
    failures: list[str] = []
    doc = {
        "tolerance_rel": workloads.REL_TOL,
        "roundoff_floor": workloads.ROUNDOFF_FLOOR,
        "environment": run.environment(),
    }
    for workload in workloads.WORKLOADS:
        doc[workload] = {size: record(workload, size == "toy", failures) for size in ("toy", "full")}
    doc["calibration_s"] = {
        w: statistics.median(workloads.calibration_sample(w) for _ in range(CALIBRATION_SAMPLES))
        for w in workloads.CALIBRATIONS
    }
    doc["calibration_s"]["setup"] = statistics.median(
        run.setup_calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
