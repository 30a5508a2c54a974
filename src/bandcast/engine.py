"""Transforms, convolution oracles, and the spectral prediction pipeline.

Two deliberately independent routes compute the anticausal convolution
y(t) = integral_t^inf k(t-s) x(s) ds and its causal approximation:

* the oracle route evaluates the integral by adaptive quadrature against the
  closed-form time kernel (trustworthy, slow);
* the pipeline route multiplies spectra on uniform grids and inverse-FFTs
  (fast), with trapezoid error norms on the shared time grid.

Each route exists to validate the other; keep them independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve

from .errors import (
    ClassMismatch,
    GridMismatch,
    InsufficientHistory,
    NonFiniteResult,
    QuadratureNotConverged,
)
from .grids import is_power_of_two
from .kernels import (
    RationalAnticausalKernel,
    eval_time_kernel,
    kernel_to_json,
    transfer_on_grid,
)
from .predictor import (
    PredictorTransfer,
    compensator_minus_one_on_points,
    predictor_transfer_on_grid,
    saturation_mask,
)
from .signals import MixedSpectrum, SampledSignal, SampledSpectrum, same_time_grid
from .transforms import signal_from_spectrum, spectrum_from_signal


def fourier_forward(signal: SampledSignal) -> SampledSpectrum:
    """Grid approximation of X(i w) = integral e^{-i w t} x(t) dt."""
    if not is_power_of_two(len(signal.values)):
        raise GridMismatch(
            f"transform length must be a power of two, got {len(signal.values)}; zero-pad first"
        )
    vals, omega0, domega = spectrum_from_signal(signal.values, signal.dt, signal.t0)
    return SampledSpectrum(omega0, domega, vals)


def fourier_inverse(spectrum: SampledSpectrum, t0: float | None = None) -> SampledSignal:
    """Inverse transform onto the conjugate (centered by default) time grid."""
    if not is_power_of_two(len(spectrum.values)):
        raise GridMismatch(
            f"transform length must be a power of two, got {len(spectrum.values)}"
        )
    vals, t0_out, dt = signal_from_spectrum(
        spectrum.values, spectrum.omega0, spectrum.domega, t0=t0
    )
    return SampledSignal(t0_out, dt, vals)


def anticausal_convolve_oracle(
    kernel: RationalAnticausalKernel,
    x,
    t_grid,
    tol: float = 1e-8,
) -> SampledSignal:
    """y(t) = integral_t^inf k(t-s) x(s) ds by adaptive quadrature.

    x must be evaluable at arbitrary floats (may return complex).  The
    substitution u = s - t turns the integral into
    integral_0^U k(-u) x(t+u) du with U chosen so exp(-min_rate*U) < tol.
    """
    t = np.asarray(t_grid, dtype=float)
    if len(t) < 2:
        raise GridMismatch("t_grid needs at least 2 points")
    steps = np.diff(t)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise GridMismatch("t_grid must be uniform")
    # One extra decay constant puts exp(-min_rate * upper) strictly below tol.
    upper = (-math.log(tol) + 1.0) / kernel.min_pole_rate

    out = np.empty(len(t), dtype=complex)
    for i, ti in enumerate(t):
        def re_part(u, ti=ti):
            return eval_time_kernel(kernel, -u) * complex(x(ti + u)).real

        def im_part(u, ti=ti):
            return eval_time_kernel(kernel, -u) * complex(x(ti + u)).imag

        acc = 0j
        for part, j in ((re_part, 1.0), (im_part, 1j)):
            val, err = quad(part, 0.0, upper, limit=400, epsabs=1e-12, epsrel=tol)
            if err > tol * max(abs(val), 1.0):
                raise QuadratureNotConverged(
                    f"oracle quadrature error {err:.3e} at t = {ti:g}"
                )
            acc += j * val
        out[i] = acc
    return SampledSignal(float(t[0]), float(steps[0]), out)


def causal_convolve(
    khat: SampledSignal, x: SampledSignal, horizon_m: float
) -> SampledSignal:
    """y_hat(t) = sum over s in [t-M, t] of khat(t-s) x(s) dt, trapezoid weights.

    Uses only lags in [0, M] of khat (strictly causal); x is zero-extended
    before its grid.  khat's grid must contain the lag range at x's spacing.
    """
    dt = x.dt
    if abs(khat.dt - dt) > 1e-12 * dt:
        raise GridMismatch(f"khat dt = {khat.dt:g} differs from signal dt = {dt:g}")
    if horizon_m <= 0:
        raise InsufficientHistory(f"horizon must be positive, got {horizon_m}")
    if horizon_m > x.span + 1e-12 * x.span:
        raise InsufficientHistory(
            f"horizon {horizon_m:g} exceeds the signal span {x.span:g}"
        )
    offset_f = (0.0 - khat.t0) / dt
    offset = int(round(offset_f))
    if abs(offset_f - offset) > 1e-6:
        raise GridMismatch("khat grid has no sample at lag 0")
    lags = int(math.floor(horizon_m / dt + 1e-9))
    if offset < 0 or offset + lags >= len(khat.values):
        raise InsufficientHistory(
            f"khat grid does not cover lags [0, {horizon_m:g}]"
        )
    taps = khat.values[offset : offset + lags + 1].copy()
    taps[0] *= 0.5
    taps[-1] *= 0.5
    taps *= dt
    full = fftconvolve(x.values, taps)
    return SampledSignal(x.t0, dt, full[: len(x.values)])


@dataclass(frozen=True, eq=False)
class PredictionResult:
    """Target y, prediction y_hat, and their error norms on a shared grid.

    ``yhat_spectrum`` is the guarded Y_hat the FFT route inverted (None on the
    atomic-plus-density route).  Non-finite norms raise NonFiniteResult.
    """

    y: SampledSignal
    yhat: SampledSignal
    err_l2: float
    err_linf: float
    gamma: float
    metadata: dict = field(default_factory=dict)
    yhat_spectrum: SampledSpectrum | None = None

    def __post_init__(self):
        if not (math.isfinite(self.err_l2) and math.isfinite(self.err_linf)):
            raise NonFiniteResult(
                f"error norms are not finite at gamma = {self.gamma:g}: "
                f"err_l2 = {self.err_l2!r}, err_linf = {self.err_linf!r}"
            )
        if not same_time_grid(self.y, self.yhat):
            raise GridMismatch("y and yhat must share one grid")
        l2, linf = error_norms(self.y, self.yhat)
        scale = max(self.err_l2, self.err_linf, 1e-300)
        if abs(l2 - self.err_l2) > 1e-12 * scale or abs(linf - self.err_linf) > 1e-12 * scale:
            raise GridMismatch("stored error norms do not match the stored samples")


def prediction_to_csv(result: PredictionResult) -> str:
    """Row-per-sample CSV of the target and prediction on their shared grid."""
    lines = ["t,y_re,y_im,yhat_re,yhat_im"]
    t = result.y.times()
    for ti, yv, hv in zip(t, result.y.values, result.yhat.values):
        lines.append(
            f"{float(ti)!r},{float(yv.real)!r},{float(yv.imag)!r},"
            f"{float(hv.real)!r},{float(hv.imag)!r}"
        )
    return "\n".join(lines) + "\n"


def prediction_sidecar(result: PredictionResult, bounds: dict | None = None) -> str:
    """JSON sidecar: gamma, error norms, bound values, grid metadata."""
    import json

    doc = {
        "gamma": result.gamma,
        "err_l2": result.err_l2,
        "err_linf": result.err_linf,
        "bounds": bounds or {},
        "grid": {"t0": result.y.t0, "dt": result.y.dt, "n": len(result.y.values)},
        "metadata": result.metadata,
    }
    return json.dumps(doc, sort_keys=True, default=float) + "\n"


def error_norms(y: SampledSignal, yhat: SampledSignal) -> tuple[float, float]:
    """(trapezoid L2, sup) norms of y - yhat on their shared grid."""
    if not same_time_grid(y, yhat):
        raise GridMismatch("error norms need a shared grid")
    diff = np.abs(y.values - yhat.values)
    err_linf = float(np.max(diff))
    err_l2 = float(math.sqrt(np.trapezoid(diff**2, dx=y.dt)))
    return err_l2, err_linf


def spectral_predict_ladder(
    X: SampledSpectrum, kernel: RationalAnticausalKernel, gammas
) -> Iterator[PredictionResult]:
    """Frequency-domain pipeline over a gamma ladder: Y = K X, Y_hat = V K X.

    y does not depend on gamma, so K is evaluated and Y inverted once, here;
    the returned iterator computes each rung when it is reached and inverts
    only its Y_hat.  Wherever X = 0 exactly, Y_hat is forced to 0 without
    evaluating the compensator, so off-band blow-up cannot poison in-class
    runs; if X has energy where the compensator saturates, ClassMismatch is
    raised when that rung is reached.  One result per gamma, in ladder order,
    all sharing one y; each carries its guarded Y_hat as ``yhat_spectrum``.
    Between rungs only y, the mask and the active points are kept.
    """
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    metadata = {
        "n": len(X.values),
        "domega": X.domega,
        "omega0": X.omega0,
        "kernel": kernel_to_json(kernel),
    }
    active = X.values != 0.0
    w = X.omegas()
    Y = transfer_on_grid(kernel, w) * X.values
    y = fourier_inverse(SampledSpectrum(X.omega0, X.domega, Y))
    p_active, Y_active = 1j * w[active], Y[active]

    def rung(predictor: PredictorTransfer) -> PredictionResult:
        sat = saturation_mask(predictor, p_active)
        if np.any(sat):
            bad = p_active[np.argmax(sat)].imag
            raise ClassMismatch(
                f"X has energy at omega = {bad:.6g} where the predictor "
                f"saturates (gamma = {predictor.gamma:g})"
            )
        Yhat = np.zeros(len(active), dtype=complex)
        Yhat[active] = (1.0 + compensator_minus_one_on_points(predictor, p_active)) * Y_active
        yhat_spectrum = SampledSpectrum(X.omega0, X.domega, Yhat)
        yhat = fourier_inverse(yhat_spectrum)
        err_l2, err_linf = error_norms(y, yhat)
        return PredictionResult(
            y=y,
            yhat=yhat,
            err_l2=err_l2,
            err_linf=err_linf,
            gamma=predictor.gamma,
            metadata=dict(metadata),
            yhat_spectrum=yhat_spectrum,
        )

    return map(rung, predictors)


def spectral_predict(
    X: SampledSpectrum, kernel: RationalAnticausalKernel, gamma: float
) -> PredictionResult:
    """One-rung :func:`spectral_predict_ladder`."""
    return next(spectral_predict_ladder(X, kernel, [gamma]))


def mixed_predict_ladder(
    ms: MixedSpectrum,
    kernel: RationalAnticausalKernel,
    gammas,
    t_grid,
) -> list[PredictionResult]:
    """Pipeline for atomic-plus-density spectra over a gamma ladder.

    Atom responses are exact (K and K_hat evaluated at the atom frequency);
    density terms go through oscillatory quadrature.  y does not depend on
    gamma, so it is computed once; each density is integrated once against
    the columns [K, K_hat_gamma for each gamma] on one shared node set.  The
    declared class must match the sign of every gamma.  One result per gamma,
    in ladder order, all sharing one y.
    """
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    for predictor in predictors:
        if predictor.target_class != ms.class_tag:
            raise ClassMismatch(
                f"signal class {ms.class_tag} inconsistent with gamma = {predictor.gamma:g} "
                f"(targets {predictor.target_class})"
            )
    t = np.asarray(t_grid, dtype=float)
    steps = np.diff(t)
    if len(t) < 2 or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise GridMismatch("t_grid must be uniform with >= 2 points")

    y_vals = np.zeros(len(t), dtype=complex)
    yhat_vals = [np.zeros(len(t), dtype=complex) for _ in predictors]
    for wk, ck in ms.atoms:
        tone = ck * np.exp(1j * wk * t)
        kw = complex(transfer_on_grid(kernel, np.array([wk]))[0])
        y_vals += kw * tone
        for predictor, acc in zip(predictors, yhat_vals):
            khat_w, sat = predictor_transfer_on_grid(predictor, np.array([wk]))
            if bool(sat[0]):
                raise ClassMismatch(f"atom at omega = {wk:g} saturates the predictor")
            acc += complex(khat_w[0]) * tone

    def weights(wv):
        columns = [transfer_on_grid(kernel, wv)]
        for predictor in predictors:
            vals, sat = predictor_transfer_on_grid(predictor, wv)
            if bool(np.any(sat)):
                raise ClassMismatch("density support saturates the predictor")
            columns.append(vals)
        return np.stack(columns, axis=1)

    for comp in ms.density:
        integrals = comp.integrate_against(weights, t)
        y_vals += integrals[:, 0]
        for c, acc in enumerate(yhat_vals, start=1):
            acc += integrals[:, c]

    y = SampledSignal(float(t[0]), float(steps[0]), y_vals / (2 * np.pi))
    metadata = {
        "class": ms.class_tag,
        "epsilon": ms.epsilon,
        "atoms": len(ms.atoms),
        "kernel": kernel_to_json(kernel),
    }
    results = []
    for predictor, acc in zip(predictors, yhat_vals):
        yhat = SampledSignal(float(t[0]), float(steps[0]), acc / (2 * np.pi))
        err_l2, err_linf = error_norms(y, yhat)
        results.append(
            PredictionResult(
                y=y,
                yhat=yhat,
                err_l2=err_l2,
                err_linf=err_linf,
                gamma=predictor.gamma,
                metadata=dict(metadata),
            )
        )
    return results


def mixed_predict(
    ms: MixedSpectrum,
    kernel: RationalAnticausalKernel,
    gamma: float,
    t_grid,
) -> PredictionResult:
    """One-rung :func:`mixed_predict_ladder`."""
    return mixed_predict_ladder(ms, kernel, [gamma], t_grid)[0]
