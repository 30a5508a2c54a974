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
transforms (:func:`transforms.band_limited_inverse`).  Neither y nor y_hat
is computed, and err_l2 also follows from E alone (:func:`spectral_err_l2`),
as do the error's samples at the grid's centre (:func:`centre_samples`).

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
from .grids import in_class
from .kernels import (
    RationalAnticausalKernel,
    scalar_time_kernel,
    transfer_on_grid,
)
from .predictor import (
    PredictorTransfer,
    _compensator,
    compensator_minus_one_on_points,
)
from .signals import MixedSpectrum, SampledSignal, SampledSpectrum, same_time_grid
from .transforms import (
    _BLOCK_ELEMENTS,
    _map_row_blocks,
    _row_groups,
    grid_length,
    hermitian_half,
    interleaved_rows,
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
    smallest power of two >= max(3 * taps, 2**15); the output is computed by
    overlap-save in blocks of L - taps + 1 samples, one forward and one
    inverse transform each (rfft/irfft when x and the taps are both real), so
    the memory beyond the output scales with the tap count, not with the
    length of x.  The block at `start` transforms x from start - taps + 1
    (or 0) to its end, and the last `block` samples of that L-point circular
    convolution are its own stretch of the output, so every output sample
    is computed in one block whichever worker runs it.  The blocks split
    into contiguous groups, one per worker of the library's pool
    (:func:`transforms._map_row_blocks`; inline on one CPU or for a single
    block) but never more than _CONVOLVE_GROUPS, so the buffers beyond the
    output do not grow with the number of CPUs either.  Each group has one
    spectrum and one piece row that the calling thread allocates (a complex
    piece is transformed in place in its spectrum row).  A horizon that is
    not positive (or NaN) raises InsufficientHistory; a non-finite sample of
    x or of the taps used, or a non-finite output (an overflow of finite
    inputs), raises NonFiniteResult without a numpy warning.  x is checked
    before any block is convolved, so a non-finite sample of x is reported
    as such even where an earlier stretch would overflow; each block checks
    its own stretch of the output.
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
    block = size - len(taps) + 1  # the samples past a block's wrapped-around head
    if np.isrealobj(x.values) and np.isrealobj(taps):
        forward, inverse = np.fft.rfft, np.fft.irfft
    else:
        forward, inverse = np.fft.fft, np.fft.ifft
    for start in range(0, n, block):
        if not np.all(np.isfinite(x.values[start : start + block])):
            raise NonFiniteResult("causal_convolve: x has non-finite samples")
    taps_f = forward(taps, size)
    out = np.empty(n, dtype=np.result_type(x.values, taps))
    groups = _row_groups(-(-n // block), _CONVOLVE_GROUPS)
    # Allocated here: a worker's malloc arena keeps what the worker allocates.
    spectra = np.empty((len(groups), len(taps_f)), dtype=complex)
    pieces = spectra if out.dtype == complex else np.empty((len(groups), size))

    def convolve(job: tuple[int, tuple[int, int]]) -> None:
        g, (lo, hi) = job
        spectrum, piece = spectra[g], pieces[g]
        with np.errstate(invalid="ignore", over="ignore"):  # per thread
            for start in range(lo * block, hi * block, block):
                first = max(start - len(taps) + 1, 0)
                forward(x.values[first : start + block], size, out=spectrum)
                spectrum *= taps_f
                inverse(spectrum, size, out=piece)  # in place on the complex path: same bits
                stretch = out[start : start + block]
                stretch[:] = piece[start - first : start - first + len(stretch)]
                if not np.all(np.isfinite(stretch)):
                    raise NonFiniteResult("causal_convolve: the convolution overflowed")

    _map_row_blocks(convolve, enumerate(groups))
    return SampledSignal(x.t0, dt, out)


@dataclass(frozen=True, eq=False, init=False)
class PredictionResult:
    """One rung's error signal e = y_hat - y on the shared time grid, and its norms.

    ``err_l2`` and ``err_linf`` are derived from e by :func:`signal_norms`
    when the result is built, so they always describe its samples;
    non-finite norms raise NonFiniteResult.  ``PredictionResult(y, yhat,
    gamma)``, as the atomic-plus-density route builds it, takes e = yhat - y
    and keeps y and yhat; y and y_hat on different grids raise GridMismatch.
    The FFT route builds its results from e and keeps ``error_points``, E at
    the active points, and ``error_parts``, E on each part of its ladder's
    split (:func:`spectral_predict_ladder`; both None on the other).
    """

    gamma: float
    e: SampledSignal
    err_l2: float
    err_linf: float
    error_points: SpectrumPoints | None
    error_parts: tuple[SpectrumPoints, ...] | None

    def __init__(self, y: SampledSignal, yhat: SampledSignal, gamma: float):
        if not same_time_grid(y, yhat):
            raise GridMismatch("error norms need a shared grid")
        self.__dict__.update(y=y, yhat=yhat)
        self._set_error(gamma, SampledSignal(y.t0, y.dt, yhat.values - y.values))

    def _set_error(self, gamma: float, e: SampledSignal, error_points=None,
                   error_parts=None) -> None:
        err_l2, err_linf = signal_norms(e)
        if not (math.isfinite(err_l2) and math.isfinite(err_linf)):
            raise NonFiniteResult(
                f"error norms are not finite at gamma = {gamma:g}: "
                f"err_l2 = {err_l2!r}, err_linf = {err_linf!r}"
            )
        self.__dict__.update(gamma=gamma, e=e, err_l2=err_l2, err_linf=err_linf,
                             error_points=error_points, error_parts=error_parts)


class SpectrumPoints(NamedTuple):
    """The spectrum of `size` values on the grid (omega0, domega) that is
    `values` at `indices` (increasing) and zero elsewhere: an omega >= 0
    half (omega0 == 0) or the full centered grid."""

    omega0: float
    domega: float
    size: int
    indices: np.ndarray
    values: np.ndarray


class _SpectralRung(PredictionResult):
    """A rung of :func:`spectral_predict_ladder`: its e, E at its points and
    E on each part of the split."""

    __init__ = PredictionResult._set_error


def _max_abs(values: np.ndarray) -> float:
    """max |values|, without an |values| temporary for real input."""
    if np.iscomplexobj(values):
        return float(np.max(np.abs(values)))
    return float(max(np.max(values), -np.min(values)))


# Below this sup, the squares behind an L2 norm are taken of values scaled
# by a power of two near 1/sup (Blue 1978).  At or above it, a square that
# underflows costs at most 2**-75 of the largest, so no bit moves.
_TINY = 2.0 ** -500


def _scale_for(sup: float) -> float:
    """1.0, or for 0 < sup < _TINY a power of two near 1/sup."""
    return math.ldexp(1.0, -math.frexp(sup)[1]) if 0.0 < sup < _TINY else 1.0


def signal_norms(e: SampledSignal) -> tuple[float, float]:
    """(trapezoid L2, sup) norms of the samples of e.

    err_l2**2 = dt * (sum |e_j|**2 - (|e_0|**2 + |e_{n-1}|**2) / 2), the
    trapezoid rule.  The sum is one einsum over the samples (a complex
    sample read as its two floats), which does not call BLAS, so its bits do
    not depend on the BLAS thread count.  Samples whose sup is below _TINY
    are scaled first, in blocks, so that err_l2 does not underflow to 0.0
    while e is not zero.  Float samples take no full-length temporary.
    """
    flat = np.ascontiguousarray(e.values).view(np.float64)
    k = len(flat) // len(e.values)  # floats per sample
    sup = _max_abs(e.values)
    s = _scale_for(sup)
    if s == 1.0:
        sum_sq = np.einsum("i,i->", flat, flat)
    else:
        blocks = (flat[j : j + _BLOCK_ELEMENTS] * s for j in range(0, len(flat), _BLOCK_ELEMENTS))
        sum_sq = sum(np.einsum("i,i->", b, b) for b in blocks)
    ends = np.concatenate((flat[:k], flat[-k:])) * s
    return math.sqrt(e.dt * (sum_sq - 0.5 * np.einsum("i,i->", ends, ends))) / s, sup


def spectral_err_l2(parts) -> float:
    """err_l2 (:func:`signal_norms`) of the error whose spectrum is the sum
    of `parts`, without an inverse: discrete Parseval plus the end samples,
    err_l2**2 = (domega/2pi) sum_k c_k |E_k|**2 - dt (|e_0|**2 + |e_{n-1}|**2)/2.

    The parts are :class:`SpectrumPoints` of one grid with disjoint
    supports, each an omega >= 0 half (c_k = 2, but 1 at DC and Nyquist,
    whose real part alone counts, as irfft reads it) or on the full grid
    (c_k = 1).  With m = omega_k/domega, e^{i omega_k t} is (-1)^m at t_0
    and (-1)^m e^{-2 pi i m/n} at t_{n-1}: each end sample is a dot product
    with exact signs.  Tiny values are scaled as in :func:`signal_norms`.
    """
    n = grid_length(parts[0].size, parts[0].omega0, parts[0].domega)
    s = _scale_for(max(np.max(np.abs(p.values), initial=0.0) for p in parts))
    sum_sq, ends = 0.0, np.zeros(2, dtype=complex)
    for p in parts:
        half = p.omega0 == 0.0
        m = p.indices if half else p.indices - n // 2
        u = p.values * s
        if half:
            edge = m % (n // 2) == 0
            u[edge] = u[edge].real
        w = u * np.where(edge, 1.0, 2.0) if half else u  # c_k s E_k
        sum_sq += np.einsum("i,i->", u.conj(), w).real
        w = np.where(m % 2 == 1, -w, w)  # times e^{i omega_k t_0} = (-1)^m
        end = np.array([w.sum(), np.einsum("i,i->", w, np.exp((-2j * np.pi / n) * m))])
        ends += end.real if half else end
    scale = parts[0].domega / (2.0 * math.pi)  # dt * scale**2 is scale / n
    err_sq = scale * (sum_sq - float(np.sum(np.abs(ends) ** 2)) / (2 * n))
    return math.sqrt(max(err_sq, 0.0)) / s


def centre_samples(points: SpectrumPoints) -> tuple[np.ndarray, float]:
    """The samples e(t_{n/2 + s}), s < r, of the error whose spectrum is
    `points`, summed from E without a transform, and their scale
    (domega/2pi) sum_k c_k |E_k|, which bounds each (c_k as in
    :func:`spectral_err_l2`).

    t_{n/2} = 0 exactly, so on the full grid (r = 1) the one sample is
    (domega/2pi) sum_k E_k.  On an omega >= 0 half r is the band-limited
    inverse's row count (:func:`transforms.interleaved_rows`), so sample
    n/2 + s lies in its row s, and e(t_{n/2+s}) =
    (domega/2pi) Re sum_k c_k E_k e^{2 pi i k s/n}: e^{2 pi i k/n} once,
    and its powers by multiplication, each within s ulps.
    """
    n = grid_length(points.size, points.omega0, points.domega)
    scale = points.domega / (2.0 * math.pi)
    u = points.values
    if points.omega0 != 0.0:
        return np.array([scale * u.sum()]), scale * float(np.sum(np.abs(u)))
    k = points.indices
    w = np.where(k % (n // 2) == 0, u.real, 2.0 * u)  # c_k E_k, as irfft reads it
    bound = scale * float(np.sum(np.abs(w)))
    samples = [w.real.sum()]
    step = np.exp((2j * np.pi / n) * k)
    for _ in range(1, interleaved_rows(k, n)):
        w *= step
        samples.append(w.real.sum())
    return scale * np.array(samples), bound


def error_norms(y: SampledSignal, yhat: SampledSignal) -> tuple[float, float]:
    """:func:`signal_norms` of y - yhat on their shared grid."""
    if not same_time_grid(y, yhat):
        raise GridMismatch("error norms need a shared grid")
    return signal_norms(SampledSignal(y.t0, y.dt, y.values - yhat.values))


def spectral_predict_ladder(
    X: SampledSpectrum, kernel: RationalAnticausalKernel, gammas, split_at: float | None = None
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
    reached.

    With `split_at` a band constant omega, one ladder predicts both parts of
    X's ideal low-pass split (:func:`signals.ideal_lowpass_split`): at each
    rung, with gamma taken as |gamma|, the points with |w| <= omega (the LOW
    class of :func:`grids.in_class`) take the predictor of +gamma and every
    other point that of -gamma, so E has the bits the two parts' own ladders
    give, both parts share X's representation, and the summed error of the
    two predictions is inverted once.

    The returned iterator computes each rung when it is reached: it inverts
    E from its values at the active points with one inverter
    (:func:`transforms.sparse_inverse`) that every rung reuses: on a half the
    band-limited inverse, whose transform length follows the support, and on
    the full grid one zero-filled buffer.  The rung's e is its one fresh
    full-length array; the result keeps it, E at the active points and E on
    each part of the split, (LOW, HIGH), or (E,) without one
    (:class:`PredictionResult`); neither y nor y_hat is computed.  One result
    per gamma, in ladder order, with the gamma of the first part.  Between
    rungs only the inverter and the active points and values are kept, not
    X: a caller that drops X and each result before asking for the next
    holds one rung at a time.
    """
    grid_length(len(X.values), X.omega0, X.domega)
    if split_at is None:
        ladders = [[PredictorTransfer(kernel, gamma) for gamma in gammas]]
    else:  # LOW at +|gamma|, HIGH at -|gamma|
        magnitudes = [abs(gamma) for gamma in gammas]
        ladders = [[PredictorTransfer(kernel, sign * gamma) for gamma in magnitudes]
                   for sign in (1.0, -1.0)]
    half = hermitian_half(X.values, X.omega0, X.domega)  # None for a half: it is not centered
    if half is not None:  # run on the half, on its own grid omega_k = k*domega
        X = SampledSpectrum(0.0, X.domega, half)
    active = np.flatnonzero(X.values)
    w = X.omegas()[active]
    Y = SpectrumPoints(X.omega0, X.domega, len(X.values), active,
                       transfer_on_grid(kernel, w) * X.values[active])
    if split_at is None:
        masks = [slice(None)]
    else:
        low = in_class(w, "LOW", split_at)
        masks = [low, ~low]
    parts = [(Y._replace(indices=active[m], values=Y.values[m]), 1j * w[m], ladder)
             for m, ladder in zip(masks, ladders)]
    del X, half, w  # the rungs read only the active points
    invert = sparse_inverse(active, Y.size, Y.omega0, Y.domega)

    def rung(j: int) -> PredictionResult:
        E_parts = tuple(
            Y_part._replace(values=compensator_minus_one_on_points(
                ladder[j], p_part, ClassMismatch) * Y_part.values)
            for Y_part, p_part, ladder in parts
        )
        if len(E_parts) == 1:
            (E,) = E_parts
        else:
            E = Y._replace(values=np.empty_like(Y.values))
            for m, E_part in zip(masks, E_parts):
                E.values[m] = E_part.values
        values, t0, dt = invert(E.values)
        return _SpectralRung(ladders[0][j].gamma, SampledSignal(t0, dt, values), E, E_parts)

    return map(rung, range(len(ladders[0])))


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
    every atom (exact responses), from one K and one compensator pass over
    the ladder, and each density is integrated once against them on one
    shared node set.  The declared class must match the sign of every gamma;
    where a predictor saturates, the compensator raises ClassMismatch naming
    the frequency and the first saturating gamma.  One result per gamma, in
    ladder order, all sharing one y.
    """
    t, t0, dt = _uniform_t_grid(t_grid)
    gammas = list(gammas)
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    for predictor in predictors:
        if predictor.target_class != ms.class_tag:
            raise ClassMismatch(
                f"signal class {ms.class_tag} inconsistent with gamma = {predictor.gamma:g} "
                f"(targets {predictor.target_class})"
            )

    def weights(wv):
        k = transfer_on_grid(kernel, wv)
        return np.vstack([k, _compensator(kernel, gammas, 1j * wv, ClassMismatch) * k]).T

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
