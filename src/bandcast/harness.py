"""Experiment harness and CLI.

Subcommands (all driven by a JSON config):

    validate    read the config and build its signals, without predicting
    synth       synthesize the time-domain predictor kernel, report leakage
    sweep       gamma ladder convergence sweep (errors must decrease)
    bound-check uniform error bound on mixed atomic-plus-density signals
    robustness  sweep on a noise-perturbed signal; detect the U-shaped error
    decompose   split-predict-recombine demo on a mixed-support signal

sweep and robustness share one ladder loop and its class rule (_grid_ladders);
an entry of the other route's kind (grid or mixed) is a ConfigError.

Exit codes: 0 all asserted properties hold; 1 a property failed (machine
readable JSON record on stderr); 2 usage or configuration error.  Identical
config + seed reproduce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, config_from_dict, load_config  # noqa: F401 (re-export)
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
    SupportViolation,
)
from .grids import GridSpec
from .predictor import (
    PredictorTransfer,
    _deviation_values,
    deviation_norm,
    synthesize_time_predictor,
)
from .signals import (
    GaussianBump,
    MixedSpectrum,
    RaisedCosineBump,
    SampledDensity,
    SampledSignal,
    SampledSpectrum,
    add_outofband_noise,
    cstar_norm,
    ideal_lowpass_split,
    make_bandlimited_signal,
    make_highfreq_signal,
    make_mixed_signal,
    signal_to_csv,
)
from .svgplot import line_plot_svg
from .transforms import mirror_half

_ZERO_FLOOR = 1e-300


_GRID_CLASS = {"bandlimited": "LOW", "highfreq": "HIGH"}


def build_grid_spectrum(spec, grid: GridSpec, omega: float, domain=None) -> SampledSpectrum:
    """The sampled spectrum of a grid entry; a composite entry is the sum of
    its parts' spectra.  A Hermitian part is an omega >= 0 half
    (:mod:`bandcast.signals`): parts that are all halves sum to a half, and
    beside a one-sided part each half is mirrored onto the full grid.  A
    mixed entry raises ConfigError, and with a domain, an entry with a part
    outside its class raises ClassMismatch, both before any spectrum is
    built."""
    if spec.kind == "mixed":
        raise ConfigError(f"signal {spec.id!r}: the FFT route takes grid signals")
    parts = spec.parts if spec.kind == "composite" else [spec]
    for part in parts:
        if domain not in (None, _GRID_CLASS[part.kind]):
            raise ClassMismatch(f"signal {spec.id!r}: a {part.kind} part is outside the "
                                f"{domain} class")
    spectra = []
    for part in parts:
        envelope = {"height": part.height, "sigma": part.sigma}
        if part.kind == "bandlimited":
            built = make_bandlimited_signal(part.envelope, part.support, grid, omega, **envelope)
        else:
            built = make_highfreq_signal(part.envelope, part.support, grid, omega,
                                         part.hermitian, **envelope)
        spectra.append(built)
    return _sum_spectra(spectra, grid.n) if spec.kind == "composite" else built


def _sum_spectra(spectra, n: int) -> SampledSpectrum:
    """The sum of spectra on one n-point grid, in their order, from zero:
    omega >= 0 halves (omega0 == 0) sum to a half, and beside a full grid
    each half is mirrored onto it."""
    full = [s for s in spectra if s.omega0 != 0.0]
    like = full[0] if full else spectra[0]
    total = np.zeros(len(like.values), dtype=complex)
    for s in spectra:
        total += mirror_half(s.values, n) if full and s.omega0 == 0.0 else s.values
    return SampledSpectrum(like.omega0, like.domega, total)


def build_mixed_signal(spec, omega: float) -> MixedSpectrum:
    """The spectrum of a mixed entry; a grid entry raises ConfigError.  A
    density whose height or samples are not finite raises SupportViolation
    before any quadrature."""
    if spec.kind != "mixed":
        raise ConfigError(f"signal {spec.id!r}: the mixed route takes mixed signals")
    density = []
    for item in spec.density:
        if item.kind == "sampled":
            comp = SampledDensity(np.array(item.omegas), np.array(item.re) + 1j * np.array(item.im))
        elif item.kind == "gaussian":
            comp = GaussianBump(item.lo, item.hi, item.height, item.sigma)
        else:
            comp = RaisedCosineBump(item.lo, item.hi, item.height)
        if item.kind != "sampled" and not np.isfinite(comp.height):
            raise SupportViolation(f"{item.kind} density height or samples not finite")
        density.append(comp)
    atoms = [(w, complex(re, im)) for w, re, im in spec.atoms]
    return make_mixed_signal(atoms, density, spec.class_, spec.epsilon, omega)


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
    summary: dict

    def to_csv(self) -> str:
        lines = ["signal_id,gamma,err_l2,err_linf,deviation_sup,uniform_bound,bound_ok,monotone_ok"]
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


def _check_monotone(signal_id: str, gammas, errs) -> None:
    """Raise MonotonicityViolation at the first rung of a ladder whose error
    neither falls strictly nor lies, with its predecessor's, at the zero
    floor.  That floor is reached when V * Y rounds to Y, not because V - 1
    underflows: on configs/sweep.json at gamma = 400 the error is 0.0 with
    |V - 1| <= 7.5e-20 on the support."""
    for i in range(1, len(errs)):
        prev, cur = errs[i - 1], errs[i]
        if not (cur < prev or max(prev, cur) <= _ZERO_FLOOR):
            raise MonotonicityViolation(signal_id, gammas[i - 1], prev, gammas[i], cur)


def _ladder_deviations(kernel, gammas, epsilon: float, extra_points=()) -> list[float]:
    """sup |K_hat - K| on the matching eps-gapped domain, one per ladder rung,
    over the domain grid plus `extra_points`."""
    return [
        deviation_norm(PredictorTransfer(kernel, gamma), epsilon, extra_points) for gamma in gammas
    ]


def _ladder_rows(signal_id: str, gammas, norms, deviations, monotone) -> list[ReportRow]:
    """Report rows of one signal's ladder: norms holds (err_l2, err_linf) and
    deviations the deviation (NaN for none) per rung; monotone is True once
    the ladder passed :func:`_check_monotone`, None if it is not checked."""
    return [
        ReportRow(signal_id, gamma, l2, linf, dev, math.nan, None, monotone)
        for gamma, (l2, linf), dev in zip(gammas, norms, deviations)
    ]


# ---------------------------------------------------------------------------
# Operations


def _grid_ladders(cfg: ExperimentConfig, noise=None):
    """The FFT-route ladder loop: per grid entry, its id and its per-rung
    (err_l2, err_linf).  An entry with a part outside the domain's class
    raises ClassMismatch before its spectrum is built; `noise`, the
    config's noise spec, is added to each built spectrum."""
    for spec in cfg.signals:
        spectrum = build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega, cfg.domain)
        if noise is not None:
            spectrum = add_outofband_noise(spectrum, noise.eta, noise.support, cfg.seed,
                                           cfg.kernel.omega)
        ladder = spectral_predict_ladder(spectrum, cfg.kernel, cfg.gamma_ladder)
        del spectrum  # the ladder keeps what its rungs read
        # map drops each result before it asks for the next: one live rung.
        yield spec.id, list(map(operator.attrgetter("err_l2", "err_linf"), ladder))


def run_convergence_sweep(cfg: ExperimentConfig) -> ErrorReport:
    """Predict each grid signal of the domain's class along the gamma
    ladder; errors must fall."""
    deviations = _ladder_deviations(cfg.kernel, cfg.gamma_ladder, cfg.epsilon)
    rows: list[ReportRow] = []
    for signal_id, norms in _grid_ladders(cfg):
        _check_monotone(signal_id, cfg.gamma_ladder, [l2 for l2, _linf in norms])
        rows += _ladder_rows(signal_id, cfg.gamma_ladder, norms, deviations, True)
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
    # One deviation ladder per signal epsilon, over the domain grid plus every
    # atom frequency in the config: all signals of a class share one bound.
    all_atoms = [wk for _spec, ms in signals for wk, _c in ms.atoms]
    deviations = {
        eps: _ladder_deviations(kernel, cfg.gamma_ladder, eps, all_atoms)
        for eps in {ms.epsilon for _spec, ms in signals}
    }
    for spec, ms in signals:
        norm = cstar_norm(ms)
        results = mixed_predict_ladder(ms, kernel, cfg.gamma_ladder, t_grid)
        for gamma, result, dev in zip(cfg.gamma_ladder, results, deviations[ms.epsilon]):
            bound = dev * norm / (2.0 * math.pi)
            measured = result.err_linf
            ok = measured <= bound + _BOUND_SLACK
            rows.append(ReportRow(spec.id, gamma, result.err_l2, measured, dev, bound, ok, None))
            if not ok:
                raise BoundViolation(gamma, spec.id, measured, bound)
            if len(ms.atoms) == 1 and not ms.density:
                wk, ck = ms.atoms[0]
                atom_dev = _deviation_values(PredictorTransfer(kernel, gamma), np.array([wk]))[0]
                expected = atom_dev * abs(ck) / (2.0 * math.pi)
                if abs(measured - expected) > _BOUND_SLACK:
                    raise BoundViolation(gamma, spec.id, measured, expected)
    return ErrorReport(tuple(rows), summary={"op": "bound-check"})


def run_robustness_probe(cfg: ExperimentConfig) -> ErrorReport:
    """Sweep on a perturbed signal; locate the error minimum and any regrowth.

    The signals are grid signals of the domain's class, as for the sweep.
    Out-of-band energy makes large gamma hurt: the report records the
    minimizing gamma and the growth factor (last error / minimum).  A ladder
    too short to show regrowth is reported, not fatal.
    """
    if cfg.noise is None:
        raise ConfigError("robustness probe needs a noise entry in the config")
    deviations = _ladder_deviations(cfg.kernel, cfg.gamma_ladder, cfg.epsilon)
    rows: list[ReportRow] = []
    summary: dict = {"op": "robustness", "eta": cfg.noise.eta}
    for signal_id, norms in _grid_ladders(cfg, cfg.noise):
        rows += _ladder_rows(signal_id, cfg.gamma_ladder, norms, deviations, None)
        errs = [l2 for l2, _linf in norms]
        imin = int(np.argmin(errs))
        growth = errs[-1] / max(errs[imin], _ZERO_FLOOR)
        summary[signal_id] = {
            "gamma_star": cfg.gamma_ladder[imin],
            "min_err_l2": errs[imin],
            "growth_factor": growth,
            "growth_detected": bool(errs[-1] > errs[imin]),
        }
        if not summary[signal_id]["growth_detected"]:
            summary[signal_id]["note"] = "no growth detected; ladder may be too short"
    return ErrorReport(tuple(rows), summary=summary)


def run_decomposition_demo(cfg: ExperimentConfig) -> ErrorReport:
    """Split a mixed-support signal, predict the parts, recombine.

    Per ladder rung gamma the LOW part uses +gamma, the HIGH part -gamma.
    Asserts (a) the summed prediction equals a single combined-pass
    prediction to 1e-12 relative and (b) the combined error obeys the
    triangle inequality against the component errors; the LOW, HIGH and
    recombined error ladders must each decrease.
    """
    kernel = cfg.kernel
    gammas = [abs(g) for g in cfg.gamma_ladder]
    rows: list[ReportRow] = []
    summary: dict = {"op": "decompose"}
    for spec in cfg.signals:
        low, high = ideal_lowpass_split(
            build_grid_spectrum(spec, cfg.grid, kernel.omega), kernel.omega
        )
        ladders = zip(
            spectral_predict_ladder(low, kernel, gammas),
            spectral_predict_ladder(high, kernel, [-g for g in gammas]),
        )
        del low, high  # each ladder keeps what its rungs read
        errs_l, errs_h, norms = [], [], []
        y = None
        for r_low, r_high in ladders:
            if y is None:  # y does not depend on gamma
                y = SampledSignal(r_low.y.t0, r_low.y.dt, r_low.y.values + r_high.y.values)
            norms.append(_recombined_errors(spec.id, y, r_low, r_high))
            errs_l.append(r_low.err_l2)
            errs_h.append(r_high.err_l2)
            del r_low, r_high  # one live rung: free it before the next is computed
        _check_monotone(spec.id + "[low]", gammas, errs_l)
        _check_monotone(spec.id + "[high]", gammas, errs_h)
        errs_total = [l2 for l2, _linf in norms]
        _check_monotone(spec.id, gammas, errs_total)
        rows += _ladder_rows(spec.id, gammas, norms, [math.nan] * len(gammas), True)
        summary[spec.id] = {
            "err_low": errs_l,
            "err_high": errs_h,
            "err_total": errs_total,
        }
    return ErrorReport(tuple(rows), summary=summary)


def _max_abs(values: np.ndarray) -> float:
    """max |values|, without an |values| temporary for real input."""
    if np.iscomplexobj(values):
        return float(np.max(np.abs(values)))
    return float(max(np.max(values), -np.min(values)))


def _recombined_errors(signal_id: str, y: SampledSignal, r_low, r_high) -> tuple[float, float]:
    """Error norms of one rung's summed LOW + HIGH prediction against
    y = y_low + y_high, after checks (a) and (b) of
    :func:`run_decomposition_demo`."""
    gamma = r_low.gamma
    yhat_sum = SampledSignal(y.t0, y.dt, r_low.yhat.values + r_high.yhat.values)
    # Each side carries the Y_hat it inverted: the omega >= 0 half when its
    # part is Hermitian, else the full grid.
    combined = _sum_spectra([r_low.yhat_spectrum, r_high.yhat_spectrum], len(y.values))
    scale = max(_max_abs(yhat_sum.values), 1.0)
    split_gap = _max_abs(yhat_sum.values - fourier_inverse(combined).values)
    if split_gap > 1e-12 * scale:
        raise BoundViolation(gamma, signal_id, split_gap, 1e-12 * scale)

    err_l2, err_linf = error_norms(y, yhat_sum)
    if err_l2 > r_low.err_l2 + r_high.err_l2 + 1e-9:
        raise BoundViolation(gamma, signal_id, err_l2, r_low.err_l2 + r_high.err_l2 + 1e-9)
    return err_l2, err_linf


# ---------------------------------------------------------------------------
# CLI


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _check_output_dirs(cfg: ExperimentConfig, svg: bool) -> None:
    """ConfigError if an output the run writes (the SVG only with `svg`) has
    no directory to go in, so that a run that cannot write all its outputs
    writes none and computes nothing."""
    for key in ("csv", "sidecar", "svg") if svg else ("csv", "sidecar"):
        path = getattr(cfg.outputs, key)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write output {path!r}: no directory to write it in")


def _emit_outputs(cfg: ExperimentConfig, make_csv, summary: dict, plot=None) -> None:
    """Write the outputs the config names: the text of `make_csv()`, the JSON
    `summary` and, given as (xs, ys), the error plot."""
    if cfg.outputs.csv:
        _write_text(cfg.outputs.csv, make_csv())
    if cfg.outputs.sidecar:
        _write_text(cfg.outputs.sidecar,
                    json.dumps(summary, sort_keys=True, default=float) + "\n")
    if plot and cfg.outputs.svg:
        _write_text(cfg.outputs.svg, line_plot_svg(*plot, title="error vs gamma",
                                                   xlabel="|gamma|", ylabel="err_l2"))


def _error_plot(report: ErrorReport):
    """(|gamma|, the largest err_l2 at it) per ladder rung, or None without rows."""
    by_gamma: dict[float, float] = {}
    for r in report.rows:
        by_gamma[abs(r.gamma)] = max(by_gamma.get(abs(r.gamma), 0.0), r.err_l2)
    xs = sorted(by_gamma)
    return (xs, [by_gamma[x] for x in xs]) if xs else None


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
    """Run one subcommand and return its exit code.  `validate` builds each
    entry by its kind (1 if one cannot be built) but cannot know which op
    will run, since decompose takes a highfreq entry under a LOW ladder, so
    the class rule of sweep and robustness is checked when they run (exit 1)."""
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
        cfg = load_config(args.config, args.seed)
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            for spec in cfg.signals:
                if spec.kind == "mixed":
                    build_mixed_signal(spec, cfg.kernel.omega)
                else:
                    build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega)
            print("config ok")
            return 0
        _check_output_dirs(cfg, args.emit_svg and args.command != "synth")
        if args.command == "synth":
            predictor = PredictorTransfer(cfg.kernel, cfg.gamma_ladder[0])
            result = synthesize_time_predictor(predictor, cfg.grid, cfg.outputs.decay_tol)
            _emit_outputs(cfg, lambda: signal_to_csv(result.khat), {
                "gamma": predictor.gamma, "leakage": result.leakage, "n": cfg.grid.n,
                "spectrum_end_magnitude": result.spectrum_end_magnitude, "span": cfg.grid.span,
            })
            print(f"leakage {result.leakage!r}")
            return 0
        report = _OPS[args.command](cfg)
        _emit_outputs(cfg, report.to_csv, report.summary, args.emit_svg and _error_plot(report))
        return 0
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
