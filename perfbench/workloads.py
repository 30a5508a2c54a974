"""Workload inputs, ops and correctness checks of the bandcast benchmark.

An op is one experiment call into the library; a result is one checked
output of it (a report row, a synthesized-and-convolved kernel, or an oracle
tone).  Every op is checked twice:

* by properties the library asserts or the paper states (monotone ladders,
  ``bound_ok``, the U-shaped robustness curve, tone eigen-relations), and
* by fingerprints: values recorded in ``reference.json`` at the commit that
  defined the benchmark, which may not drift by more than ``REL_TOL``
  relative (the tolerance of the c09 goldens).  Values that are roundoff by
  nature are gated by a property instead of by value, see ``check_*``.

Ops call the library through module attributes (``harness.run_...``), so
the tracer's wrappers see them.  Expected values the checks need are
computed while the inputs are generated, so checks never call the library.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc

from bandcast import engine, harness, kernels, predictor, signals
from bandcast.errors import BandcastError
from bandcast.grids import GridSpec

REL_TOL = 1e-9
ROUNDOFF_FLOOR = 1e-12
WORKLOADS = ("grid-ladder", "mixed-bound", "oracle-tones")


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], object]
    fingerprint: Callable[[object], object]
    check: Callable[[object, object], int]  # (output, reference) -> results
    digest: str | None = None  # identity of the generated input, if not fixed
    ref: object = None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value, ref) -> bool:
    if ref is None:  # recorded NaN (a column the op leaves empty)
        return value is None
    return value is not None and abs(value - ref) <= REL_TOL * abs(ref)


def _num(v: float):
    return None if math.isnan(v) else float(v)


# ---------------------------------------------------------------------------
# Report ops (harness.run_*), shared by grid-ladder and mixed-bound


def _report_op(kind: str, key: str, fn_name: str, cfg, check) -> Op:
    def run():
        report = getattr(harness, fn_name)(cfg)
        return report, report.to_csv()

    def fingerprint(out):
        report, _csv = out
        rows = [[r.gamma, r.err_l2, r.err_linf, _num(r.deviation_sup), _num(r.uniform_bound)]
                for r in report.rows]
        summary = {k: v for k, v in report.summary.items() if isinstance(v, dict)}
        return {"rows": rows, "summary": summary}

    return Op(kind, key, run, fingerprint, check)


def _check_rows(out, ref, value_rows: int | None = None) -> int:
    """Rows match the reference; only the first `value_rows` by value."""
    report, csv = out
    got = [[r.gamma, r.err_l2, r.err_linf, _num(r.deviation_sup), _num(r.uniform_bound)]
           for r in report.rows]
    _require(len(got) == len(ref["rows"]), f"{len(got)} rows, reference has {len(ref['rows'])}")
    _require(csv.count("\n") == len(got) + 1, "CSV row count differs from the report")
    for i, (row, want) in enumerate(zip(got, ref["rows"])):
        cols = range(5) if value_rows is None or i < value_rows else (0, 3, 4)
        for c in cols:
            _require(_close(row[c], want[c]), f"row {i} column {c}: {row[c]!r} drifted from {want[c]!r}")
    return len(got)


def check_monotone_report(out, ref) -> int:
    report, _csv = out
    _require(all(r.monotone_ok for r in report.rows), "ladder error is not monotone")
    return _check_rows(out, ref)


def check_bound_report(out, ref) -> int:
    report, _csv = out
    _require(all(r.bound_ok for r in report.rows), "uniform bound violated")
    return _check_rows(out, ref)


def check_robustness_report(out, ref) -> int:
    """U-shape by property, values up to gamma* by fingerprint.

    Past gamma* the error is dominated by roundoff amplified by the
    compensator on the out-of-band noise (3.34e5 at n = 2^16 against 2.94e5 at
    n = 2^20 for gamma = 200), so those rows must rise strictly but are not
    compared by value.
    """
    report, _csv = out
    (sid, info), = ref["summary"].items()  # the config holds one signal
    got = report.summary[sid]
    errs = [r.err_l2 for r in report.rows]
    istar = [r.gamma for r in report.rows].index(got["gamma_star"])
    _require(got["gamma_star"] == info["gamma_star"], f"gamma* {got['gamma_star']} != {info['gamma_star']}")
    _require(0 < istar < len(errs) - 1, "gamma* is not interior")
    _require(got["growth_detected"], "no regrowth past gamma*")
    _require(all(b < a for a, b in zip(errs[:istar], errs[1 : istar + 1])), "error not falling before gamma*")
    _require(all(b > a for a, b in zip(errs[istar:], errs[istar + 1 :])), "error not rising past gamma*")
    _require(_close(got["min_err_l2"], info["min_err_l2"]), "min error drifted")
    return _check_rows(out, ref, value_rows=istar + 1)


# ---------------------------------------------------------------------------
# grid-ladder: configs at n = 2^20 plus a synthesis op


LADDER_CONFIGS = (
    ("sweep", "run_convergence_sweep", check_monotone_report),
    ("robustness", "run_robustness_probe", check_robustness_report),
    ("decompose", "run_decomposition_demo", check_monotone_report),
)
SYNTH_GAMMAS = (0.5, 1.0, 2.0)
SYNTH_HORIZON = 40.0
SYNTH_TONE_TOL = 1e-5  # as c07


def _synth_op(n: int, span: float, gammas) -> Op:
    """K = 1/(p-1)^3: synthesize K_hat, convolve a tone, compare with K_hat(i w0)."""
    kernel = kernels.build_kernel([(1.0, 0.0, 3)], [1.0], 1.0)
    grid = GridSpec(n, span)
    w0 = 20 * grid.domega
    t = grid.times()
    tone = np.exp(1j * w0 * t)
    x = signals.SampledSignal(grid.t0, grid.dt, tone)
    settled = t > grid.t0 + SYNTH_HORIZON + 5.0
    preds = [predictor.PredictorTransfer(kernel, g) for g in gammas]
    expected = {p.gamma: predictor.eval_predictor_transfer(p, w0) for p in preds}

    def run():
        out = []
        for p in preds:
            synth = predictor.synthesize_time_predictor(p, grid)
            out.append((p.gamma, synth, engine.causal_convolve(synth.khat, x, SYNTH_HORIZON)))
        return out

    def fingerprint(out):
        return {repr(g): s.leakage for g, s, _y in out}

    def check(out, ref):
        for g, synth, yhat in out:
            khat = expected[g]
            err = float(np.max(np.abs(yhat.values[settled] - khat * tone[settled]))) / abs(khat)
            _require(err <= SYNTH_TONE_TOL, f"gamma {g}: causal tone error {err:.3e}")
            want = ref[repr(g)]
            if want >= ROUNDOFF_FLOOR:
                _require(_close(synth.leakage, want), f"gamma {g}: leakage drifted")
            else:  # roundoff-level leakage: gated by the floor, not by value
                _require(synth.leakage < ROUNDOFF_FLOOR, f"gamma {g}: leakage {synth.leakage:.3e}")
        return len(out)

    return Op("synth", "synth", run, fingerprint, check)


def grid_ladder_ops(root: Path, toy: bool, rng) -> list[Op]:
    n = 2**11 if toy else 2**20
    ops = []
    for name, fn_name, check in LADDER_CONFIGS:
        cfg = harness.load_config(str(root / "configs" / f"{name}.json"))
        cfg = replace(cfg, grid=GridSpec(n, 400.0 * n / 2048), outputs={})
        ops.append(_report_op(name, name, fn_name, cfg, check))
    gammas = [SYNTH_GAMMAS[i] for i in rng.permutation(len(SYNTH_GAMMAS))]
    ops.append(_synth_op(2**17, 128.0, gammas) if toy else _synth_op(2**20, 1024.0, gammas))
    turn = int(rng.integers(len(ops)))
    return ops[turn:] + ops[:turn]


# ---------------------------------------------------------------------------
# mixed-bound: uniform bound checks on random atomic-plus-density signals

MIXED_POOL_SEED = 0xC6
MIXED_POOL_PER_CLASS = 16
MIXED_KERNEL = {"omega": 1.0, "poles": [{"a": 0.5, "b": 0.8, "mult": 1, "paired": True}],
                "numerator": [0.0, 1.0]}
LADDERS = {"LOW": [2, 5, 10, 20, 50], "HIGH": [-2, -5, -10, -20, -50]}


def _random_mixed(rng, class_tag: str, single_atom: bool, omega=1.0, epsilon=0.25):
    """Random mixed spectrum of the class, drawn as in acceptance test c06."""
    if class_tag == "LOW":
        lo_w, hi_w = -(omega - epsilon), omega - epsilon
    else:
        lo_w, hi_w = omega + epsilon, 3.0 * omega
    atoms = []
    for _ in range(1 if single_atom else 4):
        w = float(rng.uniform(lo_w, hi_w))
        if class_tag == "HIGH" and rng.random() < 0.5:
            w = -w
        atoms.append((w, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    density = []
    if not single_atom:
        width = float(rng.uniform(0.1, 0.3)) * omega
        start = float(rng.uniform(lo_w, hi_w - width))
        density.append(signals.RaisedCosineBump(start, start + width, float(rng.uniform(0.5, 2.0))))
    return signals.make_mixed_signal(atoms, density, class_tag, epsilon, omega)


def mixed_pool(toy: bool) -> dict[str, list[dict]]:
    """Config documents of every pool op, keyed by op key, per class."""
    rng = np.random.default_rng(MIXED_POOL_SEED)
    pool = {"LOW": [], "HIGH": []}
    for i in range(MIXED_POOL_PER_CLASS):
        for class_tag in ("LOW", "HIGH"):
            docs = []
            for j in range(4):
                doc = signals.mixed_to_json_dict(_random_mixed(rng, class_tag, single_atom=(j == 0)))
                doc.update({"id": f"s{j}", "kind": "mixed"})
                docs.append(doc)
            if toy:  # one signal carrying atoms and a density
                docs = docs[1:2]
            pool[class_tag].append({
                "key": f"{class_tag.lower()}{i:02d}",
                "kernel": MIXED_KERNEL, "gamma_ladder": LADDERS[class_tag], "epsilon": 0.25,
                "domain": class_tag, "grid": {"n": 2048, "span": 400.0}, "signals": docs,
            })
    if toy:
        pool = {c: docs[:1] for c, docs in pool.items()}
    return pool


def doc_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def mixed_bound_ops(toy: bool, rng, whole: bool) -> list[Op]:
    """One pass: per class, one op from each consecutive pool pair (or the
    whole pool), shuffled, classes alternating from a seed-chosen start."""
    chosen = {}
    for class_tag, docs in mixed_pool(toy).items():
        picks = docs if toy or whole else [docs[2 * i + int(rng.integers(2))] for i in range(len(docs) // 2)]
        chosen[class_tag] = [picks[i] for i in rng.permutation(len(picks))]
    order = ("LOW", "HIGH") if rng.integers(2) == 0 else ("HIGH", "LOW")
    ops = []
    for pair in zip(chosen[order[0]], chosen[order[1]]):
        for doc in pair:
            cfg = harness.config_from_dict({k: v for k, v in doc.items() if k != "key"})
            op = _report_op("bound-check", doc["key"], "run_uniform_bound_check", cfg, check_bound_report)
            op.digest = doc_digest(doc)
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# oracle-tones: adaptive-quadrature oracle on pure tones

ORACLE_POOL_SEED = 0xC7
ORACLE_POOL = 384
ORACLE_STRATUM = 3
ORACLE_TOL = 1e-9
ORACLE_TONE_TOL = 1e-6  # as c07
ORACLE_T = np.linspace(-3.0, 3.0, 8)
# Oracle kernels must satisfy the oracle's own truncation premise: the kernel
# mass it drops past its upper limit stays below half the tone tolerance.
ORACLE_TAIL_MAX = 0.5 * ORACLE_TONE_TOL


def _random_kernel(rng):
    """1-2 pole groups, a in [0.3, 2.5], multiplicity 1-3, |b| < omega."""
    omega = float(rng.uniform(0.5, 2.0))
    poles = []
    for _ in range(int(rng.integers(1, 3))):
        a = float(rng.uniform(0.3, 2.5))
        mult = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            poles.append((a, 0.0, mult))
        else:
            b = float(rng.uniform(0.1, 0.85) * omega)
            poles += [(a, b, mult), (a, -b, mult)]
    degree = sum(m for (_a, _b, m) in poles)
    coeffs = [float(rng.uniform(-2, 2)) for _ in range(int(rng.integers(0, degree)) + 1)]
    return kernels.build_kernel(poles, coeffs, omega)


def oracle_tail(kernel) -> float:
    """Integral of |k(-u)| beyond the oracle's upper limit, from the residues."""
    upper = (-math.log(ORACLE_TOL) + 1.0) / kernel.min_pole_rate
    total = 0.0
    for pole, order, coeff in kernels.partial_fraction_expand(kernel).terms:
        total += abs(coeff) * gammaincc(order, pole.real * upper) / pole.real**order
    return float(total)


def oracle_pool(toy: bool) -> tuple[list[tuple], int]:
    """[(key, kernel, w0)] and the number of rejected kernel draws.

    Draws the library refuses (NumericalDegeneracy from the partial-fraction
    check) or that break the oracle's truncation premise are redrawn.
    """
    rng = np.random.default_rng(ORACLE_POOL_SEED)
    pool, rejected = [], 0
    while len(pool) < (2 if toy else ORACLE_POOL):
        kernel = _random_kernel(rng)
        w0 = float(rng.uniform(-3.0, 3.0))
        try:
            ok = oracle_tail(kernel) <= ORACLE_TAIL_MAX
        except BandcastError:
            ok = False
        if ok:
            pool.append((f"t{len(pool):03d}", kernel, w0))
        else:
            rejected += 1
    return pool, rejected


def _tone_op(key: str, kernel, w0: float, evals: list) -> Op:
    expected = kernels.eval_transfer(kernel, w0) * np.exp(1j * w0 * ORACLE_T)

    def tone(s):
        evals[0] += 1
        return cmath.exp(1j * w0 * s)

    def run():
        return engine.anticausal_convolve_oracle(kernel, tone, ORACLE_T, tol=ORACLE_TOL)

    def fingerprint(y):
        return {"y": [[v.real, v.imag] for v in y.values]}

    def check(y, ref):
        err = float(np.max(np.abs(y.values - expected)))
        _require(err <= ORACLE_TONE_TOL, f"oracle tone error {err:.3e}")
        want = np.array([complex(re, im) for re, im in ref["y"]])
        drift = float(np.max(np.abs(y.values - want)))
        _require(drift <= REL_TOL * float(np.max(np.abs(want))), f"oracle output drifted by {drift:.3e}")
        return 1

    op = Op("tone", key, run, fingerprint, check)
    op.digest = kernels.kernel_to_json(kernel) + f"|{w0!r}"
    return op


def oracle_tone_ops(toy: bool, rng, reference: dict | None, evals: list) -> tuple[list[Op], int]:
    """One pass: pool sorted by recorded integrand evaluations, cut into
    strata of ORACLE_STRATUM, one seed-chosen tone per stratum, shuffled."""
    pool, rejected = oracle_pool(toy)
    ops = [_tone_op(key, kernel, w0, evals) for key, kernel, w0 in pool]
    if not toy and reference is not None:
        ops.sort(key=lambda op: (reference[op.key]["evals"], op.key))
        ops = [ops[i + int(rng.integers(ORACLE_STRATUM))] for i in range(0, len(ops), ORACLE_STRATUM)]
    return [ops[i] for i in rng.permutation(len(ops))], rejected


# ---------------------------------------------------------------------------
# Speed calibration
#
# The host shares its CPUs with other machines: the same code runs up to a
# third slower for seconds to minutes at a time.  After every op the loop
# times a fixed look-alike of the workload's hot loop.  The look-alikes live
# here, not in the library, so no library change moves them; op time scaled
# by (recorded calibration time / calibration time now) is op time at the
# speed the reference was recorded at.


def _calibrate_mixed():
    """The dense density quadrature: exp(1j*outer(t, x)) @ f on 2048 x 160."""
    w = np.linspace(0.2, 0.5, 160)
    return np.exp(1j * np.outer(np.linspace(-200.0, 200.0, 2048), w)) @ np.cos(w)


def _calibrate_oracle():
    """quad over a Python callable doing numpy scalar work per call."""
    poles = (complex(-0.7, 0.4), complex(-0.7, -0.4))

    def integrand(u):
        tp = np.array([-u])
        acc = np.zeros_like(tp)
        for pole in poles:
            acc -= (0.5 * np.exp(pole * tp)).real
        return float(acc[0]) * cmath.exp(0.7j * u).real

    return quad(integrand, 0.0, 30.0, limit=400, epsabs=1e-12, epsrel=1e-9)


# grid-ladder has none: a look-alike of its transforms (phases, inverse FFT
# and an L2 norm on 2^20 points) did not track its op times.  Over 8 passes
# the coefficient of variation of pass time was 4.6 % raw and 6.6 % scaled.
CALIBRATIONS = {  # workload -> (look-alike, repetitions per sample)
    "mixed-bound": (_calibrate_mixed, 4),
    "oracle-tones": (_calibrate_oracle, 3),
}


def calibration_sample(workload: str) -> float | None:
    """Seconds the workload's look-alike takes now; None if it has none."""
    if workload not in CALIBRATIONS:
        return None
    fn, reps = CALIBRATIONS[workload]
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class Inputs:
    workload: str
    ops: list[Op]  # one pass, in run order
    oracle_evals: list  # integrand evaluations made by the tone callables
    notes: dict
    calibration_s: float | None  # recorded calibration sample; None if none or recording


def build_inputs(workload: str, root: Path, toy: bool, seed: int, reference: dict | None) -> Inputs:
    """Generate a workload's inputs from the seed and attach references.

    With ``reference=None`` (recording) no reference is attached and the
    pools are used whole.
    """
    rng = np.random.default_rng(seed)
    evals = [0]
    notes = {}
    size = "toy" if toy else "full"
    refs = None if reference is None else reference[workload][size]
    if workload == "grid-ladder":
        ops = grid_ladder_ops(root, toy, rng)
    elif workload == "mixed-bound":
        ops = mixed_bound_ops(toy, rng, whole=reference is None)
    elif workload == "oracle-tones":
        ops, notes["oracle_kernels_rejected"] = oracle_tone_ops(toy, rng, refs, evals)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if refs is not None:
        for op in ops:
            op.ref = refs[op.key]
            if op.digest is not None and op.ref.get("digest") != op.digest:
                raise ValueError(f"{workload} input {op.key} differs from the recorded one")
    calibration = None if reference is None else reference["calibration_s"].get(workload)
    return Inputs(workload, ops, evals, notes, calibration)
