"""Experiment harness and CLI.

Subcommands (all driven by a JSON config):

    validate    check the config without computing anything
    synth       synthesize the time-domain predictor kernel, report leakage
    sweep       gamma ladder convergence sweep (errors must decrease)
    bound-check uniform error bound on mixed atomic-plus-density signals
    robustness  sweep on a noise-perturbed signal; detect the U-shaped error
    decompose   split-predict-recombine demo on a mixed-support signal

Exit codes: 0 all asserted properties hold; 1 a property failed (machine
readable JSON record on stderr); 2 usage or configuration error.  Identical
config + seed reproduce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    error_norms,
    fourier_inverse,
    mixed_predict_ladder,
    spectral_predict_ladder,
)
from .errors import (
    BandcastError,
    BoundViolation,
    ClassMismatch,
    ConfigError,
    MonotonicityViolation,
)
from .grids import GridSpec
from .kernels import kernel_from_dict, transfer_on_grid
from .predictor import (
    DeviationGrid,
    FrequencyDomain,
    PredictorTransfer,
    deviation_norm,
    predictor_transfer_on_grid,
    synthesize_time_predictor,
)
from .signals import (
    MixedSpectrum,
    SampledSignal,
    SampledSpectrum,
    add_outofband_noise,
    cstar_norm,
    ideal_lowpass_split,
    make_bandlimited_signal,
    make_highfreq_signal,
    mixed_from_json_dict,
    signal_to_csv,
)
from .svgplot import line_plot_svg

_ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    kernel_doc: dict
    gamma_ladder: tuple[float, ...]
    epsilon: float
    domain: str
    grid: GridSpec
    seed: int
    signals: tuple[dict, ...]
    noise: dict | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def kernel(self):
        return kernel_from_dict(self.kernel_doc)


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        ladder = tuple(float(g) for g in doc["gamma_ladder"])
        grid_doc = doc.get("grid", {})
        cfg = ExperimentConfig(
            kernel_doc=doc["kernel"],
            gamma_ladder=ladder,
            epsilon=float(doc.get("epsilon", 0.0)),
            domain=doc.get("domain", "LOW"),
            grid=GridSpec(int(grid_doc.get("n", 2048)), float(grid_doc.get("span", 400.0))),
            seed=int(doc.get("seed", 0)),
            signals=tuple(doc.get("signals", [])),
            noise=doc.get("noise"),
            outputs=dict(doc.get("outputs", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return config_from_dict(doc)


def validate_config(cfg: ExperimentConfig) -> None:
    if len(cfg.gamma_ladder) == 0:
        raise ConfigError("gamma_ladder must be nonempty")
    if any(g == 0.0 or not np.isfinite(g) for g in cfg.gamma_ladder):
        raise ConfigError("gamma_ladder entries must be finite and nonzero")
    signs = {math.copysign(1.0, g) for g in cfg.gamma_ladder}
    if len(signs) != 1:
        raise ConfigError("gamma_ladder must have one sign")
    mags = [abs(g) for g in cfg.gamma_ladder]
    if any(b <= a for a, b in zip(mags, mags[1:])):
        raise ConfigError("gamma_ladder must be strictly increasing in |gamma|")
    if cfg.domain not in ("LOW", "HIGH"):
        raise ConfigError(f"domain must be LOW or HIGH, got {cfg.domain!r}")
    if (cfg.domain == "LOW") != (cfg.gamma_ladder[0] > 0):
        raise ConfigError(
            f"gamma sign {math.copysign(1, cfg.gamma_ladder[0]):+.0f} inconsistent "
            f"with domain {cfg.domain}"
        )
    if cfg.epsilon < 0:
        raise ConfigError("epsilon must be >= 0")
    kernel = cfg.kernel  # raises kernel validation errors
    if cfg.epsilon >= kernel.omega:
        raise ConfigError("epsilon must be < the kernel band constant")
    for spec in cfg.signals:
        if spec.get("kind") not in ("bandlimited", "highfreq", "mixed", "composite"):
            raise ConfigError(f"unknown signal kind in {spec!r}")
        if "id" not in spec:
            raise ConfigError(f"signal entry missing 'id': {spec!r}")
    if cfg.noise is not None:
        if float(cfg.noise.get("eta", -1)) < 0:
            raise ConfigError("noise.eta must be >= 0")
        lo, hi = cfg.noise.get("support", (0, 0))
        if not (kernel.omega < float(lo) < float(hi)):
            raise ConfigError("noise.support must lie strictly outside the band")


# ---------------------------------------------------------------------------
# Signal construction from config entries


def build_grid_signal(
    spec: dict, grid: GridSpec, omega: float
) -> tuple[SampledSignal, SampledSpectrum]:
    kind = spec["kind"]
    if kind == "composite":
        total = np.zeros(grid.n, dtype=complex)
        for part in spec["parts"]:
            sub = dict(part)
            sub.setdefault("id", spec["id"])
            lo = float(sub["support"][0])
            sub.setdefault("kind", "bandlimited" if abs(lo) < omega else "highfreq")
            _sig, sp = build_grid_signal(sub, grid, omega)
            total += sp.values
        spectrum = SampledSpectrum(grid.omega0, grid.domega, total)
        return fourier_inverse(spectrum), spectrum
    envelope = spec.get("envelope", "raised_cosine")
    if "height" in spec:
        envelope = (envelope, {"height": float(spec["height"])})
    support = tuple(float(v) for v in spec["support"])
    hermitian = bool(spec.get("hermitian", True))
    if kind == "bandlimited":
        return make_bandlimited_signal(envelope, support, grid, omega, hermitian=hermitian)
    if kind == "highfreq":
        return make_highfreq_signal(envelope, support, grid, omega, hermitian=hermitian)
    raise ConfigError(f"signal kind {kind!r} is not grid-based")


def build_mixed_signal(spec: dict, omega: float) -> MixedSpectrum:
    doc = dict(spec)
    doc.setdefault("omega", omega)
    return mixed_from_json_dict(
        {
            "atoms": doc.get("atoms", []),
            "density": doc.get("density", []),
            "class": doc["class"],
            "epsilon": doc["epsilon"],
            "omega": doc["omega"],
        }
    )


# ---------------------------------------------------------------------------
# Report structure


@dataclass(frozen=True)
class ReportRow:
    signal_id: str
    gamma: float
    err_l2: float
    err_linf: float
    deviation_sup: float  # sup |K_hat - K| on the matching eps-gapped domain
    uniform_bound: float  # (1/2pi) * deviation_sup * total-variation norm
    bound_ok: bool | None
    monotone_ok: bool | None


@dataclass(frozen=True)
class ErrorReport:
    rows: tuple[ReportRow, ...]
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [
            "signal_id,gamma,err_l2,err_linf,deviation_sup,uniform_bound,bound_ok,monotone_ok"
        ]
        for r in self.rows:
            def num(v):
                return "" if (isinstance(v, float) and math.isnan(v)) else repr(float(v))

            def flag(v):
                return "" if v is None else ("true" if v else "false")

            lines.append(
                f"{r.signal_id},{num(r.gamma)},{num(r.err_l2)},{num(r.err_linf)},"
                f"{num(r.deviation_sup)},{num(r.uniform_bound)},{flag(r.bound_ok)},{flag(r.monotone_ok)}"
            )
        return "\n".join(lines) + "\n"


def _ladder_monotone_flags(errs: list[float]) -> list[bool]:
    """Strict-decrease flags along a ladder; an all-zero ladder passes."""
    if all(e <= _ZERO_FLOOR for e in errs):
        return [True] * len(errs)
    flags = [True]
    for prev, cur in zip(errs, errs[1:]):
        flags.append(cur < prev)
    return flags


def _check_monotone(signal_id: str, gammas, errs) -> None:
    flags = _ladder_monotone_flags(list(errs))
    for i, ok in enumerate(flags):
        if not ok:
            raise MonotonicityViolation(gammas[i - 1], errs[i - 1], gammas[i], errs[i])


def _sweep_deviation(kernel, gamma: float, epsilon: float) -> float:
    predictor = PredictorTransfer(kernel, gamma)
    domain = FrequencyDomain(predictor.target_class, epsilon)
    return deviation_norm(predictor, domain, math.inf)


# ---------------------------------------------------------------------------
# Operations


def run_convergence_sweep(cfg: ExperimentConfig) -> ErrorReport:
    """Predict each grid signal along the gamma ladder; errors must fall."""
    kernel = cfg.kernel
    rows: list[ReportRow] = []
    for spec in cfg.signals:
        if spec["kind"] == "mixed":
            raise ConfigError("convergence sweep expects grid-based signals")
        if cfg.domain == "LOW" and spec["kind"] == "highfreq":
            raise ClassMismatch(
                f"signal {spec['id']!r} is high-frequency but the ladder targets LOW"
            )
        if cfg.domain == "HIGH" and spec["kind"] == "bandlimited":
            raise ClassMismatch(
                f"signal {spec['id']!r} is band-limited but the ladder targets HIGH"
            )
        spectrum = build_grid_signal(spec, cfg.grid, kernel.omega)[1]
        errs = []
        ladder = spectral_predict_ladder(spectrum, kernel, cfg.gamma_ladder)
        for gamma, result in zip(cfg.gamma_ladder, ladder):
            errs.append(result.err_l2)
            rows.append(
                ReportRow(
                    signal_id=spec["id"],
                    gamma=gamma,
                    err_l2=result.err_l2,
                    err_linf=result.err_linf,
                    deviation_sup=_sweep_deviation(kernel, gamma, cfg.epsilon),
                    uniform_bound=float("nan"),
                    bound_ok=None,
                    monotone_ok=None,
                )
            )
        _check_monotone(spec["id"], cfg.gamma_ladder, errs)
        flags = _ladder_monotone_flags(errs)
        start = len(rows) - len(errs)
        for i, ok in enumerate(flags):
            rows[start + i] = replace(rows[start + i], monotone_ok=ok)
    return ErrorReport(tuple(rows), summary={"op": "sweep"})


_BOUND_SLACK = 1e-6


def run_uniform_bound_check(cfg: ExperimentConfig) -> ErrorReport:
    """Check sup-norm errors of mixed signals against the uniform bound.

    bound = (1/2pi) * sup_{eps-gapped domain} |K_hat - K| * (total-variation
    norm of the spectrum); one bound per (gamma, epsilon) serves every signal
    of that class.  Single-atom signals additionally pin the measured error
    to the atom's own deviation (tightness diagnostic).
    """
    kernel = cfg.kernel
    t_grid = cfg.grid.times()
    rows: list[ReportRow] = []
    signals = [(spec, build_mixed_signal(spec, kernel.omega)) for spec in cfg.signals]
    # One deviation sup per (gamma, epsilon), over the domain grid plus every
    # atom frequency in the config: all signals of a class share one bound.
    all_atoms = tuple(wk for _spec, ms in signals for wk, _c in ms.atoms)
    dev_cache: dict[tuple[float, float], float] = {}
    for spec, ms in signals:
        norm = cstar_norm(ms)
        results = mixed_predict_ladder(ms, kernel, cfg.gamma_ladder, t_grid)
        for gamma, result in zip(cfg.gamma_ladder, results):
            key = (gamma, ms.epsilon)
            predictor = PredictorTransfer(kernel, gamma)
            if key not in dev_cache:
                dev_cache[key] = deviation_norm(
                    predictor,
                    FrequencyDomain(predictor.target_class, ms.epsilon),
                    math.inf,
                    DeviationGrid(extra_points=all_atoms),
                )
            dev = dev_cache[key]
            bound = dev * norm / (2.0 * math.pi)
            measured = result.err_linf
            ok = measured <= bound + _BOUND_SLACK
            rows.append(
                ReportRow(
                    signal_id=spec["id"],
                    gamma=gamma,
                    err_l2=result.err_l2,
                    err_linf=measured,
                    deviation_sup=dev,
                    uniform_bound=bound,
                    bound_ok=ok,
                    monotone_ok=None,
                )
            )
            if not ok:
                raise BoundViolation(gamma, spec["id"], measured, bound)
            if len(ms.atoms) == 1 and not ms.density:
                wk, ck = ms.atoms[0]
                khat_w, _sat = predictor_transfer_on_grid(predictor, np.array([wk]))
                atom_dev = abs(
                    complex(khat_w[0]) - complex(transfer_on_grid(kernel, np.array([wk]))[0])
                )
                expected = atom_dev * abs(ck) / (2.0 * math.pi)
                if abs(measured - expected) > _BOUND_SLACK:
                    raise BoundViolation(gamma, spec["id"], measured, expected)
    return ErrorReport(tuple(rows), summary={"op": "bound-check"})


def run_robustness_probe(cfg: ExperimentConfig) -> ErrorReport:
    """Sweep on a perturbed signal; locate the error minimum and any regrowth.

    Out-of-band energy makes large gamma hurt: the report records the
    minimizing gamma and the growth factor (last error / minimum).  A ladder
    too short to show regrowth is reported, not fatal.
    """
    kernel = cfg.kernel
    if cfg.noise is None:
        raise ConfigError("robustness probe needs a noise entry in the config")
    eta = float(cfg.noise["eta"])
    support = tuple(float(v) for v in cfg.noise["support"])
    rows: list[ReportRow] = []
    summary: dict = {"op": "robustness", "eta": eta}
    for spec in cfg.signals:
        pspec = add_outofband_noise(
            *build_grid_signal(spec, cfg.grid, kernel.omega), eta, support, cfg.seed, kernel.omega
        )[1]
        errs = []
        ladder = spectral_predict_ladder(pspec, kernel, cfg.gamma_ladder)
        for gamma, result in zip(cfg.gamma_ladder, ladder):
            errs.append(result.err_l2)
            rows.append(
                ReportRow(
                    signal_id=spec["id"],
                    gamma=gamma,
                    err_l2=result.err_l2,
                    err_linf=result.err_linf,
                    deviation_sup=_sweep_deviation(kernel, gamma, cfg.epsilon),
                    uniform_bound=float("nan"),
                    bound_ok=None,
                    monotone_ok=None,
                )
            )
        imin = int(np.argmin(errs))
        growth = errs[-1] / max(errs[imin], _ZERO_FLOOR)
        summary[spec["id"]] = {
            "gamma_star": cfg.gamma_ladder[imin],
            "min_err_l2": errs[imin],
            "growth_factor": growth,
            "growth_detected": bool(errs[-1] > errs[imin]),
        }
        if not summary[spec["id"]]["growth_detected"]:
            summary[spec["id"]]["note"] = "no growth detected; ladder may be too short"
    return ErrorReport(tuple(rows), summary=summary)


def run_decomposition_demo(cfg: ExperimentConfig) -> ErrorReport:
    """Split a mixed-support signal, predict the parts, recombine.

    Per ladder rung gamma the LOW part uses +gamma, the HIGH part -gamma.
    Asserts (a) the summed prediction equals a single combined-pass
    prediction to 1e-12 relative and (b) the combined error obeys the
    triangle inequality against the component errors; both component error
    ladders must decrease.
    """
    kernel = cfg.kernel
    gammas = [abs(g) for g in cfg.gamma_ladder]
    rows: list[ReportRow] = []
    summary: dict = {"op": "decompose"}
    for spec in cfg.signals:
        low, high = ideal_lowpass_split(
            build_grid_signal(spec, cfg.grid, kernel.omega)[1], kernel.omega
        )
        errs_l, errs_h, errs_total = [], [], []
        ladders = zip(
            gammas,
            spectral_predict_ladder(low, kernel, gammas),
            spectral_predict_ladder(high, kernel, [-g for g in gammas]),
        )
        for gamma, r_low, r_high in ladders:
            err_l2, err_linf = _recombined_errors(spec["id"], r_low, r_high)
            errs_l.append(r_low.err_l2)
            errs_h.append(r_high.err_l2)
            errs_total.append(err_l2)
            rows.append(
                ReportRow(
                    signal_id=spec["id"],
                    gamma=gamma,
                    err_l2=err_l2,
                    err_linf=err_linf,
                    deviation_sup=float("nan"),
                    uniform_bound=float("nan"),
                    bound_ok=None,
                    monotone_ok=None,
                )
            )
        _check_monotone(spec["id"] + "[low]", gammas, errs_l)
        _check_monotone(spec["id"] + "[high]", gammas, errs_h)
        flags = _ladder_monotone_flags(errs_total)
        start = len(rows) - len(errs_total)
        for i, ok in enumerate(flags):
            rows[start + i] = replace(rows[start + i], monotone_ok=ok)
        summary[spec["id"]] = {
            "err_low": errs_l,
            "err_high": errs_h,
            "err_total": errs_total,
        }
    return ErrorReport(tuple(rows), summary=summary)


def _recombined_errors(signal_id: str, r_low, r_high) -> tuple[float, float]:
    """Error norms of one rung's summed LOW + HIGH prediction, after checks
    (a) and (b) of :func:`run_decomposition_demo`."""
    gamma = r_low.gamma
    yhat_sum = r_low.yhat.values + r_high.yhat.values
    spec = r_low.yhat_spectrum
    combined = fourier_inverse(
        SampledSpectrum(spec.omega0, spec.domega, spec.values + r_high.yhat_spectrum.values)
    )
    scale = max(float(np.max(np.abs(yhat_sum))), 1.0)
    split_gap = float(np.max(np.abs(yhat_sum - combined.values)))
    if split_gap > 1e-12 * scale:
        raise BoundViolation(gamma, signal_id, split_gap, 1e-12 * scale)

    y = r_low.y.values + r_high.y.values
    yfull = SampledSignal(r_low.y.t0, r_low.y.dt, y)
    yhat_full = SampledSignal(r_low.y.t0, r_low.y.dt, yhat_sum)
    err_l2, err_linf = error_norms(yfull, yhat_full)
    if err_l2 > r_low.err_l2 + r_high.err_l2 + 1e-9:
        raise BoundViolation(gamma, signal_id, err_l2, r_low.err_l2 + r_high.err_l2 + 1e-9)
    return err_l2, err_linf


# ---------------------------------------------------------------------------
# CLI


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit_outputs(cfg: ExperimentConfig, report: ErrorReport, emit_svg: bool) -> None:
    csv_path = cfg.outputs.get("csv")
    if csv_path:
        _write_text(csv_path, report.to_csv())
    sidecar = cfg.outputs.get("sidecar")
    if sidecar:
        _write_text(sidecar, json.dumps(report.summary, sort_keys=True, default=float) + "\n")
    svg_path = cfg.outputs.get("svg")
    if emit_svg and svg_path and report.rows:
        by_gamma: dict[float, float] = {}
        for r in report.rows:
            by_gamma[abs(r.gamma)] = max(by_gamma.get(abs(r.gamma), 0.0), r.err_l2)
        xs = sorted(by_gamma)
        ys = [by_gamma[x] for x in xs]
        _write_text(
            svg_path,
            line_plot_svg(xs, ys, title="error vs gamma", xlabel="|gamma|", ylabel="err_l2"),
        )


def _failure_record(exc: BandcastError) -> str:
    rec = {"error": type(exc).__name__, "message": str(exc)}
    for key in ("gamma", "signal_id", "measured", "bound", "gamma_prev", "err_prev", "err"):
        if hasattr(exc, key):
            rec[key] = getattr(exc, key)
    return json.dumps(rec, sort_keys=True, default=float)


_OPS = {
    "sweep": run_convergence_sweep,
    "bound-check": run_uniform_bound_check,
    "robustness": run_robustness_probe,
    "decompose": run_decomposition_demo,
}


def cli_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bandcast", description="causal-prediction experiment harness"
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("validate", "synth", "sweep", "bound-check", "robustness", "decompose"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--emit-svg", action="store_true")
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            for spec in cfg.signals:
                if spec["kind"] == "mixed":
                    build_mixed_signal(spec, cfg.kernel.omega)
                else:
                    build_grid_signal(spec, cfg.grid, cfg.kernel.omega)
            print("config ok")
            return 0
        if args.command == "synth":
            predictor = PredictorTransfer(cfg.kernel, cfg.gamma_ladder[0])
            decay_tol = float(cfg.outputs.get("decay_tol", 1e-8))
            result = synthesize_time_predictor(predictor, cfg.grid, decay_tol=decay_tol)
            csv_path = cfg.outputs.get("csv")
            if csv_path:
                _write_text(csv_path, signal_to_csv(result.khat))
            sidecar = cfg.outputs.get("sidecar")
            if sidecar:
                _write_text(
                    sidecar,
                    json.dumps(
                        {
                            "gamma": predictor.gamma,
                            "leakage": result.leakage,
                            "spectrum_end_magnitude": result.spectrum_end_magnitude,
                            "n": cfg.grid.n,
                            "span": cfg.grid.span,
                        },
                        sort_keys=True,
                    )
                    + "\n",
                )
            print(f"leakage {result.leakage!r}")
            return 0
        report = _OPS[args.command](cfg)
        _emit_outputs(cfg, report, args.emit_svg)
        bad = [r for r in report.rows if r.bound_ok is False or r.monotone_ok is False]
        if bad:
            r = bad[0]
            print(
                json.dumps(
                    {
                        "error": "RowFlagFailure",
                        "signal_id": r.signal_id,
                        "gamma": r.gamma,
                    }
                ),
                file=sys.stderr,
            )
            return 1
        return 0
    except ConfigError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
