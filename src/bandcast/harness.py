"""Experiment harness and CLI.

Subcommands (all driven by a JSON config):

    validate    check the config without computing anything
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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

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
from .kernels import RationalAnticausalKernel, json_value, kernel_from_dict
from .predictor import (
    PredictorTransfer,
    _deviation_values,
    deviation_norm,
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
from .transforms import mirror_half

_ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    kernel: RationalAnticausalKernel
    gamma_ladder: tuple[float, ...]
    epsilon: float
    domain: str
    grid: GridSpec
    seed: int
    signals: tuple[dict, ...]
    noise: dict | None = None
    outputs: dict = field(default_factory=dict)


@contextmanager
def _malformed(what: str):
    """Report the lookup and conversion errors of parsing `what` as ConfigError."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


_SECTION_KEYS = {
    "grid": ("n", "span"),
    "noise": ("eta", "support"),
    "outputs": ("csv", "sidecar", "svg", "decay_tol"),
}
_OUTPUT_PATHS = ("csv", "sidecar", "svg")
_PART_KEYS = {"kind", "envelope", "support", "hermitian", "height"}
_MIXED_KEYS = ("id", "kind", "atoms", "density", "class", "epsilon", "omega")
_DENSITY_KEYS = {
    "raised_cosine": ("kind", "lo", "hi", "height"),
    "gaussian": ("kind", "lo", "hi", "height", "sigma"),
    "sampled": ("kind", "omegas", "re", "im"),
}


def _reject_unknown_keys(section: dict, keys, name: str) -> None:
    """ConfigError naming an unknown key of `section`, so that a misspelt key
    cannot take its default."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {name}")


def _reject_bools(node, where: str) -> None:
    """ConfigError at a JSON true/false under any key but "hermitian", where
    it would be read as the number 0 or 1 (the kernel reads its own types)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if isinstance(value, bool) and key != "hermitian":
            raise ConfigError(f"{where}[{key!r}] takes no bool, got {value!r}")
        _reject_bools(value, f"{where}[{key!r}]")


def config_from_dict(doc: dict) -> ExperimentConfig:
    with _malformed("config"):
        _reject_unknown_keys(doc, [f.name for f in fields(ExperimentConfig)], "config")
        for name, keys in _SECTION_KEYS.items():
            _reject_unknown_keys(doc.get(name) or {}, keys, name)
        _reject_bools({key: value for key, value in doc.items() if key != "kernel"}, "config")
        grid_doc = doc.get("grid", {})
        cfg = ExperimentConfig(
            kernel=kernel_from_dict(doc["kernel"]),
            gamma_ladder=tuple(json_value(g, float, "gamma_ladder entry")
                               for g in doc["gamma_ladder"]),
            epsilon=json_value(doc.get("epsilon", 0.0), float, "epsilon"),
            domain=doc.get("domain", "LOW"),
            grid=GridSpec(json_value(grid_doc.get("n", 2048), int, "grid.n"),
                          json_value(grid_doc.get("span", 400.0), float, "grid.span")),
            seed=json_value(doc.get("seed", 0), int, "seed"),
            signals=tuple(doc.get("signals", [])),
            noise=doc.get("noise"),
            outputs=dict(doc.get("outputs", {})),
        )
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
    kernel = cfg.kernel
    if not (0.0 <= cfg.epsilon < kernel.omega):
        raise ConfigError(f"epsilon must lie in [0, omega = {kernel.omega}), got {cfg.epsilon}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    ids = set()
    for spec in cfg.signals:
        if spec.get("kind") not in ("bandlimited", "highfreq", "mixed", "composite"):
            raise ConfigError(f"unknown signal kind in {spec!r}")
        # An id is one CSV field and one sidecar key.
        sid = spec.get("id")
        if not isinstance(sid, str) or any(c in sid for c in ',"\r\n'):
            raise ConfigError(
                f"signal id must be a string without ',', '\"' or a line break: {spec!r}"
            )
        if sid in ids:
            raise ConfigError(f"duplicate signal id {sid!r}")
        ids.add(sid)
    if cfg.noise is not None:
        if not (0.0 <= json_value(cfg.noise.get("eta", -1), float, "noise.eta") < math.inf):
            raise ConfigError("noise.eta must be finite and >= 0")
        lo, hi = (json_value(v, float, "noise.support") for v in cfg.noise.get("support", (0, 0)))
        if not (kernel.omega < lo < hi):
            raise ConfigError("noise.support must lie strictly outside the band")
    if not (0.0 < json_value(cfg.outputs.get("decay_tol", 1e-8), float, "outputs.decay_tol")
            < math.inf):
        raise ConfigError("outputs.decay_tol must be finite and > 0")
    for key in _OUTPUT_PATHS:
        json_value(cfg.outputs.get(key, ""), str, f"outputs.{key}")


# ---------------------------------------------------------------------------
# Signal construction from config entries


_GRID_CLASS = {"bandlimited": "LOW", "highfreq": "HIGH"}


def build_grid_spectrum(
    spec: dict, grid: GridSpec, omega: float, domain: str | None = None
) -> SampledSpectrum:
    """The sampled spectrum of a grid signal entry.  A composite entry is the
    sum of its parts' spectra; a part whose support lies inside
    [-omega, omega] defaults to bandlimited, any other to highfreq.  Any
    other kind raises ConfigError before a field is read, and so does a key
    that the entry or a part does not take.  With a domain, an entry with a
    part outside its class raises ClassMismatch before any spectrum is built."""
    kind = spec.get("kind")
    if kind not in ("bandlimited", "highfreq", "composite"):
        raise ConfigError(f"signal {spec.get('id')!r}: the FFT route takes grid signals")
    name = f"signal {spec.get('id')!r}"
    with _malformed(name):
        if kind == "composite":
            _reject_unknown_keys(spec, ("id", "kind", "parts"), name)
        parts = [spec] if kind != "composite" else [
            {"kind": "bandlimited"
             if max(abs(json_value(v, float, "support")) for v in p["support"]) <= omega
             else "highfreq", **p}
            for p in spec["parts"]
        ]
        for part in parts:
            keys = _PART_KEYS | ({"sigma"} if part.get("envelope") == "gaussian" else set())
            _reject_unknown_keys(part, keys | ({"id"} if part is spec else set()), name)
            if domain not in (None, _GRID_CLASS[part["kind"]]):  # KeyError: not a grid kind
                raise ClassMismatch(
                    f"signal {spec['id']!r}: a {part['kind']} part is outside the {domain} class"
                )
        total = np.zeros(grid.n, dtype=complex) if kind == "composite" else None
        for part in parts:
            envelope = part.get("envelope", "raised_cosine")
            params = {key: json_value(part[key], float, key)
                      for key in ("height", "sigma") if key in part}
            if params:
                envelope = (envelope, params)
            support = tuple(json_value(v, float, "support") for v in part["support"])
            bandlimited = part["kind"] == "bandlimited"
            # A bandlimited spectrum is Hermitian exactly when its support is symmetric.
            symmetric = support[0] == -support[1]
            hermitian = part.get("hermitian", symmetric or not bandlimited)
            if not isinstance(hermitian, bool) or (bandlimited and hermitian != symmetric):
                raise ConfigError(
                    f"signal {spec['id']!r}: hermitian must be a bool, on a bandlimited "
                    f"part true exactly when lo == -hi; got {hermitian!r} on {list(support)}"
                )
            if bandlimited:
                built = make_bandlimited_signal(envelope, support, grid, omega)
            else:
                built = make_highfreq_signal(envelope, support, grid, omega, hermitian=hermitian)
            if total is None:
                return built
            total += built.values
    return SampledSpectrum(grid.omega0, grid.domega, total)


def build_mixed_signal(spec: dict, omega: float) -> MixedSpectrum:
    """The spectrum of a mixed entry; any other kind raises ConfigError
    before a field is read."""
    if spec.get("kind") != "mixed":
        raise ConfigError(f"signal {spec.get('id')!r}: the mixed route takes mixed signals")
    name = f"signal {spec.get('id')!r}"
    with _malformed(name):
        _reject_unknown_keys(spec, _MIXED_KEYS, name)
        for item in spec.get("density", []):
            if item.get("kind") in _DENSITY_KEYS:  # any other kind: SupportViolation when built
                _reject_unknown_keys(item, _DENSITY_KEYS[item["kind"]], name)
        if spec.get("omega", omega) != omega:
            raise ConfigError(f"{name}: omega {spec['omega']!r} is not the kernel's {omega}")
        return mixed_from_json_dict({**spec, "omega": omega})


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
    """Report rows of one signal's ladder: norms holds (err_l2, err_linf) per
    rung; the per-rung deviations may be None; monotone is True once the
    ladder passed :func:`_check_monotone`, None if it is not checked."""
    return [
        ReportRow(signal_id, gamma, l2, linf, math.nan if dev is None else dev, math.nan, None,
                  monotone)
        for gamma, (l2, linf), dev in zip(gammas, norms, deviations or [None] * len(norms))
    ]


# ---------------------------------------------------------------------------
# Operations


def _grid_ladders(cfg: ExperimentConfig, noise=None):
    """The FFT-route ladder loop: per grid entry, its id and its per-rung
    (err_l2, err_linf).  An entry with a part outside the domain's class
    raises ClassMismatch before its spectrum is built; `noise`, an
    (eta, support) pair, is added to each built spectrum."""
    for spec in cfg.signals:
        spectrum = build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega, cfg.domain)
        if noise is not None:
            spectrum = add_outofband_noise(spectrum, *noise, cfg.seed, cfg.kernel.omega)
        ladder = spectral_predict_ladder(spectrum, cfg.kernel, cfg.gamma_ladder)
        del spectrum  # the ladder keeps what its rungs read
        # map drops each result before it asks for the next: one live rung.
        yield spec["id"], list(map(operator.attrgetter("err_l2", "err_linf"), ladder))


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
            rows.append(ReportRow(spec["id"], gamma, result.err_l2, measured, dev, bound, ok, None))
            if not ok:
                raise BoundViolation(gamma, spec["id"], measured, bound)
            if len(ms.atoms) == 1 and not ms.density:
                wk, ck = ms.atoms[0]
                atom_dev = _deviation_values(PredictorTransfer(kernel, gamma), np.array([wk]))[0]
                expected = atom_dev * abs(ck) / (2.0 * math.pi)
                if abs(measured - expected) > _BOUND_SLACK:
                    raise BoundViolation(gamma, spec["id"], measured, expected)
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
    eta = float(cfg.noise["eta"])
    support = tuple(float(v) for v in cfg.noise["support"])
    deviations = _ladder_deviations(cfg.kernel, cfg.gamma_ladder, cfg.epsilon)
    rows: list[ReportRow] = []
    summary: dict = {"op": "robustness", "eta": eta}
    for signal_id, norms in _grid_ladders(cfg, (eta, support)):
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
            norms.append(_recombined_errors(spec["id"], y, r_low, r_high))
            errs_l.append(r_low.err_l2)
            errs_h.append(r_high.err_l2)
            del r_low, r_high  # one live rung: free it before the next is computed
        _check_monotone(spec["id"] + "[low]", gammas, errs_l)
        _check_monotone(spec["id"] + "[high]", gammas, errs_h)
        errs_total = [l2 for l2, _linf in norms]
        _check_monotone(spec["id"], gammas, errs_total)
        rows += _ladder_rows(spec["id"], gammas, norms, None, True)
        summary[spec["id"]] = {
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
    # Each side carries the Y_hat it inverted: the omega >= 0 half (omega0
    # == 0) when its part is Hermitian, else the full grid (omega0 < 0).  A
    # half beside a full grid is mirrored onto it before the sum.
    whole, part = sorted((r_low.yhat_spectrum, r_high.yhat_spectrum), key=lambda s: s.omega0)
    part_values = part.values
    if part.omega0 != whole.omega0:
        part_values = mirror_half(part.values, len(whole.values))
    combined = SampledSpectrum(whole.omega0, whole.domega, part_values + whole.values)
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
    for key in _OUTPUT_PATHS if svg else _OUTPUT_PATHS[:2]:
        path = cfg.outputs.get(key)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write output {path!r}: no directory to write it in")


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
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            validate_config(cfg)
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            for spec in cfg.signals:
                if spec["kind"] == "mixed":
                    build_mixed_signal(spec, cfg.kernel.omega)
                else:
                    build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega)
            print("config ok")
            return 0
        _check_output_dirs(cfg, args.emit_svg and args.command != "synth")
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
        _emit_outputs(cfg, _OPS[args.command](cfg), args.emit_svg)
        return 0
    except BandcastError as exc:
        print(_failure_record(exc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
