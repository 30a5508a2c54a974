"""Run one workload of the bandcast benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-ladder --seed 1 --seconds 24 --trace 0

Run it from the root of a bandcast source tree; it puts ``src`` on the path
(the package need not be installed).  The workload runs as a single-process,
one-client closed loop over whole passes of its seed-chosen ops until about
``--seconds`` have passed, and checks every output.  The last line of
standard output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the ``end_to_end`` metrics named in
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` ones.  Lines before it,
starting with ``#``, give the same numbers for people, plus the failure share,
the 90th percentile where a run holds enough ops, and the environment.

A traced run measures one untraced half and one traced half over the same
ops, so the tracing overhead is the difference of their throughputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP read these once, when numpy loads: pin them before that.
# Nothing above imports numpy; it loads with the library in setup().  One
# thread keeps the one-client loop on one CPU: a second BLAS thread did not
# speed up the quadrature matvec here, and waiting on the other, shared CPU
# made op times vary more (coefficient of variation 6.9 % against 5.1 %).
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 3
P90_MIN_OPS = 100  # ten samples must lie beyond the 90th percentile
IMPORTS = {"bandcast": "setup.import.bandcast_s", "scipy.signal": "setup.import.scipy_signal_s",
           "scipy.integrate": "setup.import.scipy_integrate_s"}
HARNESS_KINDS = ("sweep", "robustness", "decompose", "bound-check")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-ladder", "mixed-bound", "oracle-tones"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes: n = 2^11 ladders, 1 mixed signal, 2 tones")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time fresh starts)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up


def setup(args):
    """Import the library, generate the inputs and warm up.  Returns
    (workloads module, inputs, timings)."""
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    inputs = workloads.build_inputs(args.workload, ROOT, args.toy, args.seed, reference)
    t2 = time.perf_counter()
    warm = {op.kind: op for op in workloads.build_inputs(args.workload, ROOT, True, 0, None).ops}
    for op in warm.values():
        op.run()  # warm-up: one toy-size op of each kind fills caches and first-call paths
    workloads.calibration_sample(args.workload)
    t3 = time.perf_counter()
    return workloads, inputs, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}


def setup_calibration_sample() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.special:
    start-up work of the same kind as set-up that no library change moves."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special"], cwd=ROOT,
                   check=True, timeout=170)
    return time.perf_counter() - t0


def time_fresh_setups(args, calibration_s: float) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter until it is ready, raw and
    at reference speed (scaled by a calibration start taken just before)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--toy"] if args.toy else [])
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        cal = setup_calibration_sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        raw.append(t1 - t0)
        norm.append((t1 - t0) * calibration_s / cal)
    return raw, norm


def import_breakdown() -> dict[str, float]:
    """Cumulative import times of `import bandcast` in a fresh child, from
    ``python -X importtime``.  Modules share dependencies, so each figure
    depends on import order: whichever module comes first pays for them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bandcast"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip() in IMPORTS and fields[1].strip().isdigit():
            out.setdefault(IMPORTS[fields[2].strip()], int(fields[1]) / 1e6)
    missing = set(IMPORTS.values()) - set(out)
    if missing:
        raise RuntimeError(f"importtime output lacks {sorted(missing)}")
    return out


# ---------------------------------------------------------------------------
# Measurement


def run_passes(workloads, inputs, seconds: float, tracer=None) -> dict:
    """Closed loop over whole passes of the ops until about `seconds` passed.

    Stops after the pass that brings the elapsed time nearest to `seconds`,
    so every op of a pass runs equally often.
    """
    from bandcast.errors import BandcastError

    from tracer import BENCH_OP

    run = {"lat": [], "lat_norm": [], "results": 0, "attempted": 0, "failed": 0, "errors": [],
           "by_kind": {}, "evals": -inputs.oracle_evals[0]}
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for op in inputs.ops:
            run["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.span(BENCH_OP, op.run)
                lat = time.perf_counter() - t0
                n = op.check(out, op.ref)
            except (BandcastError, workloads.CheckFailed) as exc:
                run["failed"] += 1
                run["errors"].append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            run["lat"].append(lat)
            cal = workloads.calibration_sample(inputs.workload)
            run["lat_norm"].append(lat if cal is None else lat * inputs.calibration_s / cal)
            run["results"] += n
            run["by_kind"][op.kind] = run["by_kind"].get(op.kind, 0) + n
        passes.append(time.perf_counter() - p0)
        if time.perf_counter() - start + statistics.mean(passes) / 2 >= seconds:
            break
    run["wall_s"] = time.perf_counter() - start
    run["evals"] += inputs.oracle_evals[0]
    run["results_per_s"] = run["results"] / run["wall_s"]
    run["results_per_s_norm"] = run["results"] / sum(run["lat_norm"]) if run["lat_norm"] else 0.0
    return run


def end_to_end(run: dict, setups: tuple[list[float], list[float]]) -> dict[str, float]:
    return {
        "results_per_s": run["results_per_s"],
        "op_s_p50": statistics.median(run["lat"]) if run["lat"] else float("nan"),
        "results_per_s_norm": run["results_per_s_norm"],
        "op_s_p50_norm": statistics.median(run["lat_norm"]) if run["lat_norm"] else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups[1]),
        "setup_s_raw": statistics.median(setups[0]),
    }


def per_layer(workloads, inputs, seconds: float, timings: dict) -> tuple[dict, dict, dict]:
    """Untraced half, traced half; layer metrics from the traced half."""
    from tracer import Tracer

    plain = run_passes(workloads, inputs, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workloads, inputs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    c = tracer.counts
    harness_results = sum(traced["by_kind"].get(k, 0) for k in HARNESS_KINDS)
    tones = traced["by_kind"].get("tone", 0)
    n_t = len(workloads.ORACLE_T)

    def ratio(a, b):
        return a / b if b else 0.0

    m.update({
        "transforms.signal_from_spectrum.samples": c["transforms.signal_from_spectrum.samples"],
        "engine.inverse_per_result": ratio(
            tracer.calls_within("transforms.signal_from_spectrum", "harness.op"), harness_results),
        "engine.oracle.integrand_evals": float(traced["evals"]),
        "engine.oracle.evals_per_point": ratio(traced["evals"], tones * n_t),
        "kernels.transfer_on_grid.points": c["kernels.transfer_on_grid.points"],
        "predictor.compensator.points": c["predictor.compensator.points"],
        "predictor.compensator.active_share": ratio(
            c["predictor.compensator.points"], c["kernels.transfer_on_grid.points"]),
        "signals.quadrature.nodes": c["signals.quadrature.nodes"],
        "signals.quadrature.matrix_bytes_computed": c["signals.quadrature.matrix_bytes_computed"],
        "signals.quadrature.calls_per_row": ratio(
            m["signals.integrate_against.calls"], traced["by_kind"].get("bound-check", 0)),
        "setup.inputs_s": timings["inputs_s"],
        "trace.results_per_s": traced["results_per_s"],
        "trace.results_per_s_delta": plain["results_per_s"] - traced["results_per_s"],
        "trace.overhead_share": 1.0 - traced["results_per_s"] / plain["results_per_s"],
        "trace.spans": float(tracer.span_count()),
        "trace.op_wall_s": tracer.root_durations(),
    })
    m.update(import_breakdown())
    combined = {k: plain[k] + traced[k] for k in ("attempted", "failed", "errors")}
    return m, combined, {"untraced": plain, "traced": traced}


# ---------------------------------------------------------------------------
# Environment record


def environment() -> dict:
    import numpy
    import scipy

    def command(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bandcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = command("getconf", "LEVEL3_CACHE_SIZE")
    return {
        "commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "l3_cache_bytes": int(l3) if l3 and l3.isdigit() else None,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    definition = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bandcast" / "__init__.py").is_file() or not (ROOT / "configs").is_dir() \
            or not definition.is_file():
        print(f"perfbench: {ROOT} holds no bandcast source tree (src/bandcast, configs, "
              "BENCHMARK.json); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup(args)
        print("ready", flush=True)
        return 0

    spec = json.loads(definition.read_text())
    if args.trace == 0:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        setups = time_fresh_setups(args, reference["calibration_s"]["setup"])
    workloads, inputs, timings = setup(args)
    if args.trace == 0:
        run = run_passes(workloads, inputs, args.seconds)
        values = end_to_end(run, setups)
        wanted, outcome = spec["end_to_end"], run
    else:
        values, outcome, phases = per_layer(workloads, inputs, args.seconds, timings)
        wanted = spec["per_layer"]

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} toy {args.toy}; "
          f"{len(inputs.ops)} ops per pass; notes {json.dumps(inputs.notes)}")
    for m in wanted:
        print(f"# {m['name']} = {values[m['name']]!r} {m['unit']}")
    if args.trace == 0:
        lat = run["lat"]
        print(f"# {run['results']} results in {run['wall_s']:.3f} s; op_s_p50 over {len(lat)} ops")
        for name, unit in (("results_per_s", "1/s"), ("op_s_p50", "s"), ("setup_s_raw", "s")):
            print(f"# {name} = {values[name]!r} {unit} (wall clock, not normalized)")
        if len(lat) >= P90_MIN_OPS:
            print(f"# op_s_p90 = {statistics.quantiles(lat, n=10)[8]!r} s (n = {len(lat)} ops)")
        else:
            print(f"# op_s_p90 not reported: {len(lat)} ops, {P90_MIN_OPS} needed")
        print(f"# fail_share = {run['failed'] / run['attempted']!r} ratio "
              f"({run['failed']} of {run['attempted']} ops)")
        print(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups[1])} s; raw "
              f"{', '.join(f'{s:.3f}' for s in setups[0])} s; in this process: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in timings.items()))
    else:
        print(f"# tracing overhead: {phases['untraced']['results_per_s']!r} 1/s untraced, "
              f"{phases['traced']['results_per_s']!r} 1/s traced")
    for err in outcome["errors"]:
        print(f"# FAILED {err}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
