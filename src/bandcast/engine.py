"""Transforms, convolution oracles, and the spectral prediction pipeline.

Two deliberately independent routes compute the anticausal convolution
y(t) = integral_t^inf k(t-s) x(s) ds and its causal approximation:

* the oracle route evaluates the integral by adaptive quadrature against the
  closed-form time kernel (trustworthy, slow);
* the pipeline route multiplies spectra on uniform grids and inverse-FFTs
  (fast), with trapezoid error norms on the shared time grid.

Each route exists to validate the other; keep them independent.

On the grid the pipeline never subtracts y_hat from y: per gamma it inverts
the error spectrum E = Y_hat - Y = (V - 1) K X, with V - 1 evaluated without
cancellation, so an error far below eps * ||y|| is still resolved.  E
vanishes wherever X does, so a band-limited half inverts as a few short
transforms (:func:`transforms.band_limited_inverse`).  y and y_hat are
inverted only for a caller who reads them, by the full inverse.

The pipeline runs on centered grids only (:mod:`bandcast.transforms`) and
has a real path.  The kernel's coefficients are real and its poles
conjugate-closed, so K, V and K_hat are Hermitian, and a Hermitian X has
real y, y_hat and error.  Such an X is carried as its omega >= 0 half: K and
V are evaluated on the n/2 + 1 points omega >= 0 and each inverse is an
irfft to float samples.  Two-sided grid signals are born as halves
(:mod:`bandcast.signals`); a full spectrum that is exactly Hermitian (one
check, :func:`transforms.hermitian_half`), such as the forward transform of
float samples, is halved first.  Any other X (a one-sided or complex-tone
spectrum) takes the complex path on every grid point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.integrate import quad
# Unused: `perfbench/run.py --trace 1` fails without it until ROADMAP item 1.
import scipy.signal  # noqa: F401

from .errors import (
    ClassMismatch,
    DomainError,
    GridMismatch,
    InsufficientHistory,
    NonFiniteResult,
    QuadratureNotConverged,
)
from .kernels import (
    RationalAnticausalKernel,
    scalar_time_kernel,
    transfer_on_grid,
)
from .predictor import (
    PredictorTransfer,
    compensator_minus_one_on_points,
    compensator_on_points,
)
from .signals import MixedSpectrum, SampledSignal, SampledSpectrum, same_time_grid
from .transforms import (
    _map_row_blocks,
    _row_groups,
    grid_length,
    hermitian_half,
    mirror_points,
    signal_from_spectrum,
    sparse_inverse,
    spectrum_from_signal,
)


def fourier_forward(signal: SampledSignal) -> SampledSpectrum:
    """Grid approximation of X(i w) = integral e^{-i w t} x(t) dt on the
    conjugate centered grid; the time grid must be centered (GridMismatch)
    and the samples finite (NonFiniteResult)."""
    if not np.all(np.isfinite(signal.values)):
        raise NonFiniteResult("fourier_forward: the signal has non-finite samples")
    vals, omega0, domega = spectrum_from_signal(signal.values, signal.dt, signal.t0)
    return SampledSpectrum(omega0, domega, vals)


def fourier_inverse(spectrum: SampledSpectrum) -> SampledSignal:
    """Inverse transform onto the conjugate centered time grid.  `spectrum` is
    on a centered grid or is the omega >= 0 half of a Hermitian spectrum
    (omega0 == 0, as real-path results carry it); else GridMismatch."""
    vals, t0, dt = signal_from_spectrum(spectrum.values, spectrum.omega0, spectrum.domega)
    return SampledSignal(t0, dt, vals)


def _uniform_t_grid(t_grid) -> tuple[np.ndarray, float, float]:
    """(t, t[0], step) of a finite, strictly increasing, uniform t grid of at
    least 2 points; anything else raises GridMismatch."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2 or not np.all(np.isfinite(t)):
        raise GridMismatch("t_grid must be finite with >= 2 points")
    steps = np.diff(t)
    if not (steps[0] > 0 and np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]):
        raise GridMismatch("t_grid must be strictly increasing and uniform")
    return t, float(t[0]), float(steps[0])


def anticausal_convolve_oracle(
    kernel: RationalAnticausalKernel,
    x,
    t_grid,
    tol: float = 1e-8,
) -> SampledSignal:
    """y(t) = integral_t^inf k(t-s) x(s) ds by adaptive quadrature.

    x must be evaluable at arbitrary floats (may return complex); 0 < tol < 1;
    t_grid must be finite, strictly increasing and uniform (GridMismatch).
    The substitution u = s - t turns the integral into
    integral_0^U k(-u) x(t+u) du with U chosen so exp(-min_rate*U) < tol.
    That cut assumes |k(-u)| <= exp(-min_rate*u), which is not checked:
    repeated poles and large residues break it (see "Known defects" in
    perfbench/README.md).

    Each t-point runs two real QUADPACK passes, one per part of the
    integrand, and combines them as re + 1j*im.  k(-u) is computed once per
    distinct node u for the whole call (QUADPACK places nearly the same
    nodes at every t), and x once per distinct (t, u).  A part whose value
    or error estimate is not finite raises NonFiniteResult; a part whose
    error exceeds tol * max(|value|, 1) raises QuadratureNotConverged.
    """
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise DomainError(f"oracle tol must be finite with 0 < tol < 1, got {tol}")
    t, t0, dt = _uniform_t_grid(t_grid)
    # One extra decay constant puts exp(-min_rate * upper) strictly below tol.
    upper = (-math.log(tol) + 1.0) / kernel.min_pole_rate
    k = scalar_time_kernel(kernel)
    k_memo: dict[float, float] = {}

    out = np.empty(len(t), dtype=complex)
    for i, ti in enumerate(t.tolist()):
        memo: dict[float, complex] = {}

        def value(u, ti=ti, memo=memo):
            ku = k_memo.get(u)
            if ku is None:
                ku = k_memo[u] = k(-u)
            v = memo[u] = ku * complex(x(ti + u))
            return v

        def real_part(u, memo=memo, value=value):
            v = memo.get(u)
            return (value(u) if v is None else v).real

        def imag_part(u, memo=memo, value=value):
            v = memo.get(u)
            return (value(u) if v is None else v).imag

        parts = [
            quad(part, 0.0, upper, limit=400, epsabs=1e-12, epsrel=tol)
            for part in (real_part, imag_part)
        ]
        for part_val, part_err in parts:
            if not (math.isfinite(part_val) and math.isfinite(part_err)):
                raise NonFiniteResult(
                    f"oracle integral {part_val!r} (error {part_err!r}) at t = {ti:g}"
                )
            if part_err > tol * max(abs(part_val), 1.0):
                raise QuadratureNotConverged(
                    f"oracle quadrature error {part_err:.3e} at t = {ti:g}"
                )
        (re, _), (im, _) = parts
        out[i] = re + 1j * im
    return SampledSignal(t0, dt, out)


# Block groups of causal_convolve that run at once, each with its own
# L-point buffers: with the taps' transform, three L-point complex rows live
# beside the output on any machine.
_CONVOLVE_GROUPS = 2


def causal_convolve(
    khat: SampledSignal, x: SampledSignal, horizon_m: float
) -> SampledSignal:
    """y_hat(t) = sum over s in [t-M, t] of khat(t-s) x(s) dt, trapezoid weights.

    Uses only lags in [0, M] of khat (strictly causal); x is zero-extended
    before its grid.  khat's grid must contain the lag range at x's spacing.
    The taps are transformed once per call, at the FFT length L, the
    smallest power of two >= max(3 * taps, 2**15); x is added by overlap-add
    in blocks of L - taps + 1 samples, one forward and one inverse transform
    each (rfft/irfft when x and the taps are both real), so the memory
    beyond the output scales with the tap count, not with the length of x.
    The blocks split into contiguous groups, one per worker of the library's
    pool (:func:`transforms._map_row_blocks`; inline on one CPU or for a
    single block) but never more than _CONVOLVE_GROUPS, so the buffers beyond
    the output do not grow with the number of CPUs either.  Each group has
    one spectrum and one piece row that the calling thread allocates (a
    complex piece is transformed in place in its spectrum row).  A worker
    adds its pieces into the output but for the tail of its last block,
    which reaches into the next group's first block; the calling thread adds
    those tails afterwards.  A block's tail (taps - 1 samples) is shorter
    than a block, so every sample is 0.0 plus at most two pieces, a sum
    whose bits do not depend on its order: the output does not depend on the
    groups or the workers.  A horizon that is not positive (or NaN) raises
    InsufficientHistory; a non-finite sample of x or of the taps used, or a
    non-finite output (an overflow of finite inputs), raises NonFiniteResult
    without a numpy warning.  x is checked, block by block, before any block
    is convolved, so a non-finite sample of x is reported as such even where
    an earlier stretch would overflow, on any number of workers.  Each
    stretch of the output is checked once no later piece reaches it, by its
    worker or, next to a group boundary, by the calling thread.
    """
    dt = x.dt
    if abs(khat.dt - dt) > 1e-12 * dt:
        raise GridMismatch(f"khat dt = {khat.dt:g} differs from signal dt = {dt:g}")
    if not horizon_m > 0:
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
    if lags < 1:
        raise InsufficientHistory(
            f"horizon {horizon_m:g} is shorter than one step dt = {dt:g}"
        )
    if offset < 0 or offset + lags >= len(khat.values):
        raise InsufficientHistory(
            f"khat grid does not cover lags [0, {horizon_m:g}]"
        )
    taps = khat.values[offset : offset + lags + 1].copy()
    if not np.all(np.isfinite(taps)):
        raise NonFiniteResult("causal_convolve: khat has non-finite samples")
    taps[0] *= 0.5
    taps[-1] *= 0.5
    taps *= dt
    n = len(x.values)
    size = 1 << (max(3 * len(taps), 1 << 15) - 1).bit_length()
    block = size - len(taps) + 1  # a block's full convolution fills size samples
    blocks = -(-n // block)
    if np.isrealobj(x.values) and np.isrealobj(taps):
        forward, inverse = np.fft.rfft, np.fft.irfft
    else:
        forward, inverse = np.fft.fft, np.fft.ifft
    for start in range(0, n, block):
        if not np.all(np.isfinite(x.values[start : start + block])):
            raise NonFiniteResult("causal_convolve: x has non-finite samples")
    taps_f = forward(taps, size)
    out = np.zeros(n, dtype=np.result_type(x.values, taps))
    groups = _row_groups(blocks, _CONVOLVE_GROUPS)
    # Allocated here: a worker's malloc arena keeps what the worker allocates.
    spectra = np.empty((len(groups), len(taps_f)), dtype=complex)
    pieces = spectra if out.dtype == complex else np.empty((len(groups), size))

    def final(start: int) -> None:
        # No later piece reaches below start + block: that stretch is final.
        if not np.all(np.isfinite(out[start : start + block])):
            raise NonFiniteResult("causal_convolve: the convolution overflowed")

    def convolve(job: tuple[int, tuple[int, int]]) -> None:
        g, (lo, hi) = job
        spectrum, piece = spectra[g], pieces[g]
        with np.errstate(invalid="ignore", over="ignore"):  # per thread
            for j in range(lo, hi):
                start = j * block
                forward(x.values[start : start + block], size, out=spectrum)
                spectrum *= taps_f
                inverse(spectrum, size, out=piece)  # in place on the complex path: same bits
                # The tail of a group's last block is the calling thread's to add.
                stop = min(start + (block if j + 1 == hi < blocks else size), n)
                out[start:stop] += piece[: stop - start]
                if j > lo or lo == 0:  # a later group's first stretch awaits that tail
                    final(start)

    _map_row_blocks(convolve, enumerate(groups))
    with np.errstate(invalid="ignore", over="ignore"):
        for (_, hi), piece in zip(groups[:-1], pieces):
            start = hi * block
            tail = piece[block : min(size, n - start + block)]
            out[start : start + len(tail)] += tail
            final(start)
    return SampledSignal(x.t0, dt, out)


@dataclass(frozen=True, eq=False, init=False)
class PredictionResult:
    """One rung's error signal e = y_hat - y on the shared time grid, its
    norms, and the target y and prediction y_hat.

    ``err_l2`` and ``err_linf`` are derived from e by :func:`signal_norms`
    when the result is built, so they always describe its samples;
    non-finite norms raise NonFiniteResult.  ``PredictionResult(y, yhat,
    gamma)``, as the atomic-plus-density route builds it, takes e = yhat - y;
    y and y_hat on different grids raise GridMismatch.  The FFT route builds
    its results from e itself (:func:`spectral_predict_ladder`).
    ``yhat_spectrum`` and ``error_spectrum`` are the FFT route's guarded
    Y_hat = V K X and E, on the omega >= 0 half (on its own grid
    omega_k = k*domega) or on the full grid, and y_hat is the inverse of
    Y_hat; ``error_points`` is E at its active points only.  All three are
    None on the atomic-plus-density route.
    """

    gamma: float
    e: SampledSignal
    err_l2: float
    err_linf: float
    yhat_spectrum = None
    error_spectrum = None
    error_points = None

    def __init__(self, y: SampledSignal, yhat: SampledSignal, gamma: float):
        if not same_time_grid(y, yhat):
            raise GridMismatch("error norms need a shared grid")
        self.__dict__.update(y=y, yhat=yhat)
        self._set_error(gamma, SampledSignal(y.t0, y.dt, yhat.values - y.values))

    def _set_error(self, gamma: float, e: SampledSignal) -> None:
        err_l2, err_linf = signal_norms(e)
        if not (math.isfinite(err_l2) and math.isfinite(err_linf)):
            raise NonFiniteResult(
                f"error norms are not finite at gamma = {gamma:g}: "
                f"err_l2 = {err_l2!r}, err_linf = {err_linf!r}"
            )
        self.__dict__.update(gamma=gamma, e=e, err_l2=err_l2, err_linf=err_linf)


class SpectrumPoints(NamedTuple):
    """The spectrum of `size` values on the grid (omega0, domega) that is
    `values` at `indices` (increasing) and zero elsewhere."""

    omega0: float
    domega: float
    size: int
    indices: np.ndarray
    values: np.ndarray

    def on_grid(self) -> SampledSpectrum:
        full = np.zeros(self.size, dtype=complex)
        full[self.indices] = self.values
        return SampledSpectrum(self.omega0, self.domega, full)


class _SpectralRung(PredictionResult):
    """A rung of :func:`spectral_predict_ladder`, built from its inverted
    error e and E at the active points; `y`, `yhat_spectrum` and
    `error_spectrum` compute those attributes.  y, Y_hat and y_hat (the
    inverse of Y_hat) are computed on their first read; the full-grid E
    afresh on every read, so that the result does not keep it."""

    def __init__(self, gamma, e, y, yhat_spectrum, error_points: SpectrumPoints):
        self.__dict__.update(_y=y, _yhat_spectrum=yhat_spectrum, error_points=error_points)
        self._set_error(gamma, e)

    @property
    def y(self) -> SampledSignal:
        return self._y()

    @functools.cached_property
    def yhat_spectrum(self) -> SampledSpectrum:
        return self._yhat_spectrum()

    @functools.cached_property
    def yhat(self) -> SampledSignal:
        return fourier_inverse(self.yhat_spectrum)

    @property
    def error_spectrum(self) -> SampledSpectrum:
        return self.error_points.on_grid()


def _max_abs(values: np.ndarray) -> float:
    """max |values|, without an |values| temporary for real input."""
    if np.iscomplexobj(values):
        return float(np.max(np.abs(values)))
    return float(max(np.max(values), -np.min(values)))


def signal_norms(e: SampledSignal) -> tuple[float, float]:
    """(trapezoid L2, sup) norms of the samples of e.

    err_l2**2 = dt * (sum |e_j|**2 - (|e_0|**2 + |e_{n-1}|**2) / 2), the
    trapezoid rule.  The sum is one einsum over the samples (a complex
    sample read as its two floats), which does not call BLAS, so its bits do
    not depend on the BLAS thread count.  Float samples take no full-length
    temporary.
    """
    flat = np.ascontiguousarray(e.values).view(np.float64)
    k = len(flat) // len(e.values)  # floats per sample
    ends = np.concatenate((flat[:k], flat[-k:]))
    sum_sq = np.einsum("i,i->", flat, flat) - 0.5 * np.einsum("i,i->", ends, ends)
    return math.sqrt(e.dt * float(sum_sq)), _max_abs(e.values)


def error_norms(y: SampledSignal, yhat: SampledSignal) -> tuple[float, float]:
    """:func:`signal_norms` of y - yhat on their shared grid."""
    if not same_time_grid(y, yhat):
        raise GridMismatch("error norms need a shared grid")
    return signal_norms(SampledSignal(y.t0, y.dt, y.values - yhat.values))


def spectral_predict_ladder(
    X: SampledSpectrum, kernel: RationalAnticausalKernel, gammas
) -> Iterator[PredictionResult]:
    """Frequency-domain pipeline over a gamma ladder: Y = K X, and per rung
    the error spectrum E = Y_hat - Y = (V - 1) K X.

    X is an omega >= 0 half or on a centered grid
    (:func:`transforms.grid_length`; GridMismatch, raised before K is
    evaluated).  A half, and a full X that is exactly Hermitian, run on the
    half (n/2 + 1 points, irfft, float samples); any other X uses every grid
    point.  K is evaluated once and V - 1 per rung, without cancellation
    (:func:`predictor.compensator_minus_one_on_points`), only where X != 0,
    so off-band blow-up cannot poison in-class runs; if X has energy where
    the compensator saturates, it raises ClassMismatch when that rung is
    reached.  The returned iterator computes each rung when it is reached:
    it inverts E from its values at the active points with one inverter
    (:func:`transforms.sparse_inverse`) that every rung reuses: on a half the
    band-limited inverse, whose transform length follows the support, and on
    the full grid one zero-filled buffer.  The rung's e is its one fresh
    full-length array.  y, y_hat and the spectra are computed only when a
    result's attribute is read (:class:`PredictionResult`); y at most once,
    shared by all rungs, and y_hat as the exact inverse of Y_hat
    (:func:`fourier_inverse`).  One result per gamma, in ladder order.
    Between rungs only the inverter and the active points and values are
    kept, not X: a caller that drops X and each result before asking for
    the next holds one rung at a time.
    """
    grid_length(len(X.values), X.omega0, X.domega)
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    half = hermitian_half(X.values, X.omega0, X.domega)  # None for a half: it is not centered
    if half is not None:  # run on the half, on its own grid omega_k = k*domega
        X = SampledSpectrum(0.0, X.domega, half)
    active = np.flatnonzero(X.values)
    w = X.omegas()[active]
    Y = SpectrumPoints(X.omega0, X.domega, len(X.values), active,
                       transfer_on_grid(kernel, w) * X.values[active])
    p_active = 1j * w
    del X, half, w  # the rungs read only the active points
    invert = sparse_inverse(active, Y.size, Y.omega0, Y.domega)
    y = functools.cache(lambda: fourier_inverse(Y.on_grid()))  # shared by every rung

    def rung(predictor: PredictorTransfer) -> PredictionResult:
        E_active = compensator_minus_one_on_points(predictor, p_active, ClassMismatch) * Y.values
        values, t0, dt = invert(E_active)
        return _SpectralRung(
            predictor.gamma, SampledSignal(t0, dt, values), y,
            lambda: Y._replace(values=compensator_on_points(predictor, p_active, ClassMismatch)
                               * Y.values).on_grid(),
            Y._replace(values=E_active),
        )

    return map(rung, predictors)


def error_sum_inverse(rungs):
    """For one rung of each of some ladders of :func:`spectral_predict_ladder`
    on one grid: a function that takes one rung of each, in the same order,
    and returns the inverse of their summed error spectra.

    Every rung of a ladder has the same active points.  The spectra are
    summed, in order, at the union of the ladders' points, and the sum is
    inverted by one :func:`transforms.sparse_inverse` built here: on the
    omega >= 0 half if every part is a half, else on the full grid, onto
    which each half's points are mirrored (:func:`transforms.mirror_points`).
    No full-length spectrum is built but the full grid's one buffer.
    """
    points = [r.error_points for r in rungs]
    n = len(rungs[0].e.values)
    grid = next((p for p in points if p.omega0 != 0.0), points[0])

    def placed(p: SpectrumPoints):
        if p.omega0 == grid.omega0:
            return p.indices, p.values
        return mirror_points(p.indices, p.values, n)

    positions = [placed(p)[0] for p in points]
    union = functools.reduce(np.union1d, positions)
    slots = [np.searchsorted(union, at) for at in positions]
    invert = sparse_inverse(union, grid.size, grid.omega0, grid.domega)

    def inverse(rungs) -> SampledSignal:
        total = np.zeros(len(union), dtype=complex)
        for r, slot in zip(rungs, slots, strict=True):
            total[slot] += placed(r.error_points)[1]
        values, t0, dt = invert(total)
        return SampledSignal(t0, dt, values)

    return inverse


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

    One `weights` call gives the columns [K, K_hat_gamma for each gamma] at
    every atom (exact responses), and each density is integrated once
    against them on one shared node set.  The declared class must match the
    sign of every gamma; where a predictor saturates, the compensator raises
    ClassMismatch naming the frequency.  One result per gamma, in ladder
    order, all sharing one y.
    """
    t, t0, dt = _uniform_t_grid(t_grid)
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    for predictor in predictors:
        if predictor.target_class != ms.class_tag:
            raise ClassMismatch(
                f"signal class {ms.class_tag} inconsistent with gamma = {predictor.gamma:g} "
                f"(targets {predictor.target_class})"
            )

    def weights(wv):
        k = transfer_on_grid(kernel, wv)
        columns = [k] + [compensator_on_points(predictor, 1j * wv, ClassMismatch) * k
                         for predictor in predictors]
        return np.stack(columns, axis=1)

    # accs[0] accumulates y, accs[1:] y_hat per rung.
    accs = [np.zeros(len(t), dtype=complex) for _ in range(len(predictors) + 1)]
    for (wk, ck), row in zip(ms.atoms, weights(np.array([wk for wk, _ck in ms.atoms]))):
        tone = ck * np.exp(1j * wk * t)
        for acc, w in zip(accs, row):
            acc += complex(w) * tone
    for comp in ms.density:
        for acc, column in zip(accs, comp.integrate_against(weights, t).T):
            acc += column

    y = SampledSignal(t0, dt, accs[0] / (2 * np.pi))
    return [
        PredictionResult(y=y, yhat=SampledSignal(t0, dt, acc / (2 * np.pi)), gamma=predictor.gamma)
        for predictor, acc in zip(predictors, accs[1:])
    ]


def mixed_predict(
    ms: MixedSpectrum,
    kernel: RationalAnticausalKernel,
    gamma: float,
    t_grid,
) -> PredictionResult:
    """One-rung :func:`mixed_predict_ladder`."""
    return mixed_predict_ladder(ms, kernel, [gamma], t_grid)[0]
