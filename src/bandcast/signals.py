"""Sampled signals/spectra, test-signal generators, and mixed spectra.

Two signal families are generated here:

* square-integrable grid signals, given by their spectra: samples on a
  uniform frequency grid that vanish exactly outside a declared support
  (either inside the band [-omega, omega] or outside it); the time signal is
  one ``engine.fourier_inverse`` away.  A two-sided spectrum is Hermitian and
  its signal real, so it is born as its omega >= 0 half (omega0 = 0,
  :mod:`bandcast.transforms`): the envelope at k*domega, k = 0..n/2, which is
  |omega| on the full grid bit for bit (:mod:`bandcast.grids`).  A one-sided
  spectrum keeps the full grid;
* bounded "mixed" signals made of spectral atoms plus an integrable density,
  x(t) = (1/2pi) * (sum c_k e^{i w_k t} + integral e^{i w t} X_c(w) dw),
  measured in the total-variation norm sum|c_k| + ||X_c||_L1.

Band-edge convention: the class sets are closed (:func:`bandcast.grids.in_class`
decides membership everywhere), so grid points with |omega| == band constant
go to the LOW part of a split.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ClassConstraintViolation,
    DomainError,
    GridMismatch,
    NonFiniteResult,
    QuadratureNotConverged,
    SupportViolation,
)
from .grids import GridSpec, in_class, uniform_omegas
from .transforms import _BLOCK_ELEMENTS, _map_row_blocks, grid_length


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Samples on the uniform grid t_j = t0 + j*dt.

    Samples may be real or complex: real input is kept as float64 (the
    inverse of a Hermitian spectrum is real), complex input as complex128.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        dtype = complex if np.iscomplexobj(values) else float
        object.__setattr__(self, "values", values.astype(dtype, copy=False))
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise GridMismatch(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise GridMismatch(f"t0 must be finite, got {self.t0}")
        if len(self.values) < 2:
            raise GridMismatch("signal needs at least 2 samples")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    @property
    def span(self) -> float:
        return (len(self.values) - 1) * self.dt

    def energy(self) -> float:
        """Rectangle-rule energy sum |x|^2 dt (exact Parseval partner)."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dt)


@dataclass(frozen=True, eq=False)
class SampledSpectrum:
    """Complex samples on the uniform grid omega_j = omega0 + j*domega."""

    omega0: float
    domega: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.domega <= 0 or not np.isfinite(self.domega):
            raise GridMismatch(f"domega must be positive, got {self.domega}")
        if not np.isfinite(self.omega0):
            raise GridMismatch(f"omega0 must be finite, got {self.omega0}")
        if len(self.values) < 2:
            raise GridMismatch("spectrum needs at least 2 samples")

    def omegas(self) -> np.ndarray:
        return uniform_omegas(self.omega0, self.domega, len(self.values))

    def energy(self) -> float:
        """(1/2pi) sum |X|^2 domega; equals the paired signal energy.

        An omega >= 0 half (omega0 == 0, see :mod:`bandcast.transforms`)
        stands for its Hermitian mirror and is summed as the mirror is
        (:func:`_full_grid_power`)."""
        return _energy(_full_grid_power(self), self.domega)


def _full_grid_power(spectrum: SampledSpectrum) -> np.ndarray:
    """|X|^2 at every point of the full grid, in its order.  An omega >= 0
    half gives the power of its Hermitian mirror as irfft reads it: DC and
    Nyquist contribute their real parts, every other point two entries."""
    power = np.abs(spectrum.values) ** 2
    if spectrum.omega0 != 0.0:
        return power
    h = len(power) - 1
    full = np.empty(2 * h)
    full[h:] = power[:h]
    full[1:h] = power[h - 1 : 0 : -1]
    full[h], full[0] = np.abs(spectrum.values[[0, h]].real) ** 2
    return full


def _energy(power: np.ndarray, domega: float) -> float:
    return float(np.sum(power) * domega / (2.0 * np.pi))


def same_time_grid(a: SampledSignal, b: SampledSignal) -> bool:
    scale = max(abs(a.t0), abs(a.dt), 1.0)
    return (
        len(a.values) == len(b.values)
        and abs(a.t0 - b.t0) <= 1e-12 * scale
        and abs(a.dt - b.dt) <= 1e-12 * scale
    )


# ---------------------------------------------------------------------------
# Band-restricted L2 signal generators


def _support_in_class(lo: float, hi: float, class_tag: str, omega: float,
                      epsilon: float = 0.0) -> bool:
    """lo < hi with both ends in the class set, and on one side of a HIGH gap."""
    ends = in_class(lo, class_tag, omega, epsilon) and in_class(hi, class_tag, omega, epsilon)
    return bool(lo < hi and ends and (class_tag == "LOW" or (lo > 0) == (hi > 0)))


def _grid_signal(class_tag: str, envelope: str, support: tuple[float, float],
                 grid_spec: GridSpec, omega: float, two_sided: bool, height: float,
                 sigma: float | None) -> SampledSpectrum:
    """The body of both generators, each check a SupportViolation.  Class:
    the support lies in the class set, a HIGH one above the band.  Grid: the
    grid's frequencies reach both ends, so that no part is cut silently.
    Then the named envelope is sampled, exactly zero off the support, on
    the omega >= 0 half when two-sided and on the full grid when not;
    `sigma` is the gaussian's only."""
    lo, hi = float(support[0]), float(support[1])
    if not (_support_in_class(lo, hi, class_tag, omega) and (class_tag == "LOW" or lo > 0)):
        raise SupportViolation(f"support [{lo}, {hi}] not in the {class_tag} set ({omega=}): "
                               "LOW -omega <= lo < hi <= omega, HIGH omega <= lo < hi")
    first, top = grid_spec.omega0, grid_spec.omega0 + grid_spec.domega * (grid_spec.n - 1)
    if lo < first or hi > top:
        raise SupportViolation(f"support [{lo}, {hi}] beyond the grid's [{first:.6g}, {top:.6g}]")
    if envelope not in ("indicator", "raised_cosine", "gaussian"):
        raise SupportViolation(f"unknown envelope {envelope!r}")
    if sigma is not None and envelope != "gaussian":
        raise SupportViolation(f"sigma is taken by the gaussian envelope only, not by {envelope!r}")
    for key, v in (("height", height), ("sigma", 1.0 if sigma is None else sigma)):
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise SupportViolation(f"envelope {key} must be a finite number, got {v!r}")
    omega0, m = (0.0, grid_spec.n // 2 + 1) if two_sided else (grid_spec.omega0, grid_spec.n)
    w = uniform_omegas(omega0, grid_spec.domega, m)
    if envelope == "indicator":
        vals = np.zeros(m, dtype=complex)
        vals[(w >= lo) & (w <= hi)] = height
    elif envelope == "raised_cosine":
        vals = RaisedCosineBump(lo, hi, height)(w)
    else:
        vals = GaussianBump(lo, hi, height, sigma)(w)
    return SampledSpectrum(omega0, grid_spec.domega, vals)


def make_bandlimited_signal(envelope: str, support: tuple[float, float], grid_spec: GridSpec,
                            omega: float, *, height: float = 1.0,
                            sigma: float | None = None) -> SampledSpectrum:
    """Spectrum that is `envelope` ("indicator", "raised_cosine" or
    "gaussian", of `height`; `sigma` for a gaussian) on `support` inside
    [-omega, omega].

    A symmetric support (lo == -hi) gives a Hermitian spectrum, returned as
    its omega >= 0 half (omega0 == 0, n/2 + 1 values), and a real signal;
    any other support gives the full grid and a complex signal.  A support off the
    band or past the grid's frequencies, or a bad envelope, raises
    SupportViolation (see :func:`_grid_signal`).
    """
    return _grid_signal("LOW", envelope, support, grid_spec, omega,
                        support[0] == -support[1], height, sigma)


def make_highfreq_signal(envelope: str, support: tuple[float, float], grid_spec: GridSpec,
                         omega: float, hermitian: bool = True, *, height: float = 1.0,
                         sigma: float | None = None) -> SampledSpectrum:
    """Spectrum on |w| in [lo, hi], lo >= omega; the envelope as for
    :func:`make_bandlimited_signal`.

    hermitian=True places the envelope on both +/-[lo, hi] (Hermitian
    spectrum, returned as its omega >= 0 half; real signal); hermitian=False
    uses the positive side only (full grid, complex signal).
    """
    return _grid_signal("HIGH", envelope, support, grid_spec, omega, hermitian, height, sigma)


# ---------------------------------------------------------------------------
# Mixed spectra: atoms + integrable density


@functools.cache
def _gauss_legendre_8() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre rule on [-1, 1] as read-only (nodes,
    weights), solved on first use: solving it pages in LAPACK, which a
    process that integrates no density need not hold."""
    rule = np.polynomial.legendre.leggauss(8)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_legendre_panels(lo: float, hi: float, panels: int):
    nodes, weights = _gauss_legendre_8()
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _phase_products(t: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Return (x, columns) -> exp(1j * np.outer(t, x)) @ c for each column c.

    The result is (len(t), len(columns)) and equals the product with the full
    phase matrix value for value (only the sign of an exactly zero part may
    differ); that matrix is never built.  cos and sin are taken on the
    distinct |t| only (for an exactly symmetric t grid such as
    ``GridSpec(2048, 400).times()`` that is n/2 + 1 rows), one row block of
    complex Q at a time, about `_BLOCK_ELEMENTS` entries, and the blocks run
    in parallel on `_map_row_blocks`; a block writes its products into its
    own columns of (columns, distinct |t|) arrays that the calling thread
    allocates, and is freed then, so live Q is workers x block, not
    rows x nodes.  A row with t >= +0.0 reads (Q @ c); a row with the sign
    bit of t set (t < 0 or t == -0.0) reads conj(Q @ conj(c)), which equals
    conj(Q) @ c bit for bit because rounding is symmetric under negation.
    numpy's float64 sin and cos are odd and even and agree with its complex
    exp, and a matrix-vector product sums each row in an order that does not
    depend on its position or its block; the tests pin these facts, so the
    bits do not depend on the block size or the number of workers.  A one-row
    Q would take numpy's dot path, not its matrix-vector one, so a single
    distinct |t| is repeated when t has several rows and a one-row last block
    joins the one before it.  Only numpy runs on the pool: `x` and `columns`
    are arrays, and a worker enters its own `np.errstate`, which is per
    thread.
    """
    abs_t, rows = np.unique(np.abs(t), return_inverse=True)
    if len(abs_t) < min(len(t), 2):
        abs_t = np.repeat(abs_t, 2)
    signed = np.signbit(t)
    has_pos, has_neg = not np.all(signed), bool(np.any(signed))
    side, rows = signed.astype(np.intp)[:, None], rows[:, None]

    def products(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
        step = max(2, _BLOCK_ELEMENTS // len(x))
        edges = list(range(0, len(abs_t), step)) + [len(abs_t)]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]

        conj_columns = np.conj(columns)
        # Rows of a side that t lacks are never read.
        pos, neg = sides = np.empty((2, len(columns), len(abs_t)), dtype=complex)

        def block(bounds: tuple[int, int]) -> None:
            lo, hi = bounds
            with np.errstate(invalid="ignore", over="ignore"):
                theta = np.outer(abs_t[lo:hi], x)
                q = np.empty(theta.shape, dtype=complex)
                q.real = np.cos(theta)
                q.imag = np.sin(theta, out=theta)
                for j in range(len(columns)):
                    if has_pos:
                        np.matmul(q, columns[j], out=pos[j, lo:hi])
                    if has_neg:
                        np.matmul(q, conj_columns[j], out=neg[j, lo:hi])

        _map_row_blocks(block, zip(edges[:-1], edges[1:]))
        if has_neg:
            np.conjugate(neg, out=neg)
        # One gather into the result: row i reads its side's |t| row.
        return sides[side, np.arange(len(columns)), rows]

    return products


def _oscillatory_integral(
    density: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    t_values: np.ndarray,
) -> np.ndarray:
    """integral density(w) weight_c(w) e^{i w t} dw over [edges[0], edges[-1]]
    per t and column c, as a (t, columns) array.

    `edges` are the ends of the density's smooth pieces (lo and hi for a
    closed-form density, the samples of a piecewise-linear one); panel edges
    fall on them, so no kink lies inside a panel.  `weight` returns a
    (nodes, columns) array.  `t` must be a non-empty, finite 1-D array (else
    `GridMismatch`, before any work).  Every column shares one node set per
    pass, and the weight is called once per pass, on the calling thread.  The
    t x nodes phase matrix is never built: `_phase_products` takes cos/sin
    on the distinct |t| only (n/2 + 1 rows on a centered grid), in row blocks
    that run in parallel and hold O(workers x block) memory, and serves rows
    with t < 0 by conjugation, with the same bits as the product with a
    complex exp of the outer product.  Each column is its own matrix-vector
    product, so it is summed in the same order as when integrated alone.
    Fixed-order Gauss panels: a piece of width h gets
    max(ceil(16 h / (hi - lo)), ceil(h (max|t| + 1) / 3)) of them, so a
    one-piece density gets max(16, ...) panels on [lo, hi]; a doubled-panel
    pass certifies convergence of each column on its own (1e-9 relative +
    1e-13).  An empty support (not lo < hi) raises `SupportViolation`.  A
    pass with a non-finite value (a NaN or infinite density or weight)
    raises `NonFiniteResult` naming [lo, hi], without a numpy warning.
    """
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not np.all(np.isfinite(t)):
        raise GridMismatch(
            f"quadrature times must be a non-empty finite 1-D array, got shape {t.shape}"
        )
    lo, hi = float(edges[0]), float(edges[-1])
    if not lo < hi:
        raise SupportViolation(f"density support [{lo}, {hi}] is empty")
    tmax = float(np.max(np.abs(t)))
    pieces = [(a, b, max(math.ceil(16 * (b - a) / (hi - lo)),
                         math.ceil((b - a) * (tmax + 1.0) / 3.0)))
              for a, b in zip(edges[:-1], edges[1:])]
    phase_products = _phase_products(t)

    def compute(refine: int) -> np.ndarray:
        x, w = map(np.concatenate, zip(*(_gauss_legendre_panels(a, b, refine * panels)
                                         for a, b, panels in pieces)))
        with np.errstate(invalid="ignore", over="ignore"):
            fx = np.asarray(density(x), dtype=complex) * np.asarray(weight(x)).T
            out = phase_products(x, np.ascontiguousarray(fx * w))
        if not np.all(np.isfinite(out)):
            raise NonFiniteResult(f"oscillatory integral is not finite on [{lo}, {hi}]")
        return out

    coarse = compute(1)
    fine = compute(2)
    scales = np.maximum(np.max(np.abs(fine), axis=0), 1e-300)
    gaps = np.max(np.abs(fine - coarse), axis=0)
    for gap, scale in zip(gaps, scales):
        if gap > 1e-9 * scale + 1e-13:
            raise QuadratureNotConverged(
                f"oscillatory integral not converged on [{lo}, {hi}] "
                f"({gap:.3e} vs scale {scale:.3e})"
            )
    return fine


@dataclass(frozen=True)
class RaisedCosineBump:
    """Closed-form density: height * cos^2(pi*(w-center)/(2*half)) on [lo, hi]."""

    lo: float
    hi: float
    height: float = 1.0

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def mass(self) -> float:
        return abs(self.height) * (self.hi - self.lo) / 2.0

    def __call__(self, omegas: np.ndarray) -> np.ndarray:
        center, half = (self.lo + self.hi) / 2.0, (self.hi - self.lo) / 2.0
        out = np.zeros(len(omegas), dtype=complex)
        inside = (omegas > self.lo) & (omegas < self.hi)
        u = (omegas[inside] - center) / half
        out[inside] = self.height * 0.5 * (1.0 + np.cos(np.pi * u))
        return out

    def integrate_against(self, weight, t_values) -> np.ndarray:
        return _oscillatory_integral(self, weight, (self.lo, self.hi), t_values)


@dataclass(frozen=True)
class GaussianBump:
    """Closed-form density: height * exp(-(w-center)^2/(2 sigma^2)) on [lo, hi]."""

    lo: float
    hi: float
    height: float = 1.0
    sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None and not (0.0 < self.sigma < math.inf):
            raise SupportViolation(f"gaussian sigma must be finite and > 0, got {self.sigma}")

    def _sigma(self) -> float:
        return self.sigma if self.sigma is not None else (self.hi - self.lo) / 4.0

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def mass(self) -> float:
        s = self._sigma()
        center = (self.lo + self.hi) / 2.0
        z0 = (self.lo - center) / (s * math.sqrt(2.0))
        z1 = (self.hi - center) / (s * math.sqrt(2.0))
        return abs(self.height) * s * math.sqrt(math.pi / 2.0) * (math.erf(z1) - math.erf(z0))

    def __call__(self, omegas: np.ndarray) -> np.ndarray:
        s = self._sigma()
        center = (self.lo + self.hi) / 2.0
        out = np.zeros(len(omegas), dtype=complex)
        inside = (omegas > self.lo) & (omegas < self.hi)
        out[inside] = self.height * np.exp(-((omegas[inside] - center) ** 2) / (2 * s * s))
        return out

    def integrate_against(self, weight, t_values) -> np.ndarray:
        return _oscillatory_integral(self, weight, (self.lo, self.hi), t_values)


def _segment_abs_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """integral_0^1 |a + s d| ds per segment, d = b - a.

    |a + s d| = |d| sqrt((s - s*)^2 + q^2) with s* = -Re(a conj(d)) / |d|^2,
    the point nearest zero, and q = |Im(a conj(d))| / |d|^2, so the integral
    is |d| (G(1 - s*) + G(s*)) with G(U) = (U sqrt(U^2 + q^2) +
    q^2 asinh(U / q)) / 2, odd in U.  That form keeps its accuracy while s*
    lies within one segment length of [0, 1] (-1 <= s* <= 2) and cancels
    beyond; there the branch points s* +- iq are a segment length away, |.|
    is smooth on [0, 1], and a 16-point Gauss-Legendre rule is exact to
    roundoff.
    """
    d = b - a
    dd = np.abs(d) ** 2
    cross = a * np.conj(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, q = -cross.real / dd, np.abs(cross.imag) / dd
        q2 = q * q

        def g(u):
            return 0.5 * (u * np.sqrt(u * u + q2) + np.where(q2 > 0, q2 * np.arcsinh(u / q), 0.0))

        closed = np.sqrt(dd) * (g(1.0 - s) + g(s))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    gauss = 0.5 * (np.abs(a[:, None] + 0.5 * (nodes + 1.0) * d[:, None]) @ weights)
    return np.where((dd > 0) & (s >= -1.0) & (s <= 2.0), closed, gauss)


@dataclass(frozen=True, eq=False)
class SampledDensity:
    """Density given by samples with piecewise-linear interpolation.  A grid
    that is not finite and increasing, or a sample that is not finite, raises
    SupportViolation when the density is built."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        w = self.omegas
        if len(w) < 2 or not (np.all(np.isfinite(w)) and np.all(np.diff(w) > 0)):
            raise SupportViolation("sampled density needs a finite increasing grid")
        if not np.all(np.isfinite(self.values)):
            raise SupportViolation("sampled density height or samples not finite")

    def support(self) -> tuple[float, float]:
        return (float(self.omegas[0]), float(self.omegas[-1]))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        re = np.interp(w, self.omegas, self.values.real, left=0.0, right=0.0)
        im = np.interp(w, self.omegas, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def mass(self) -> float:
        """integral |X_c|, exact per segment (:func:`_segment_abs_means`)."""
        means = _segment_abs_means(self.values[:-1], self.values[1:])
        return float(np.sum(np.diff(self.omegas) * means))

    def integrate_against(self, weight, t_values) -> np.ndarray:
        return _oscillatory_integral(self, weight, self.omegas, t_values)


@dataclass(frozen=True, eq=False)
class MixedSpectrum:
    """Atoms (w_k, c_k) plus density components, with its class declaration."""

    atoms: tuple[tuple[float, complex], ...]
    density: tuple
    class_tag: str
    epsilon: float
    omega: float


def make_mixed_signal(
    atoms: Sequence[tuple[float, complex]],
    density_spec: Sequence,
    class_tag: str,
    epsilon: float,
    omega: float,
) -> MixedSpectrum:
    """Validate and construct a mixed spectrum of the declared class."""
    if class_tag not in ("LOW", "HIGH"):
        raise ClassConstraintViolation(f"class_tag must be LOW or HIGH, got {class_tag!r}")
    if not (0.0 < epsilon < omega):
        raise ClassConstraintViolation(
            f"epsilon must lie in (0, omega) = (0, {omega}), got {epsilon}"
        )
    norm_atoms = []
    for wk, ck in atoms:
        wk, ck = float(wk), complex(ck)
        if not (np.isfinite(wk) and np.isfinite(ck.real) and np.isfinite(ck.imag)):
            raise ClassConstraintViolation(f"non-finite atom ({wk}, {ck})")
        if not in_class(wk, class_tag, omega, epsilon):
            raise ClassConstraintViolation(f"atom at {wk} outside the {class_tag} set "
                                           f"({omega=}, {epsilon=})")
        norm_atoms.append((wk, ck))
    comps = tuple(density_spec)
    for comp in comps:
        lo, hi = comp.support()
        if not _support_in_class(lo, hi, class_tag, omega, epsilon):
            raise ClassConstraintViolation(f"density support [{lo}, {hi}] not inside the "
                                           f"{class_tag} set ({omega=}, {epsilon=})")
    return MixedSpectrum(
        atoms=tuple(norm_atoms),
        density=comps,
        class_tag=class_tag,
        epsilon=float(epsilon),
        omega=float(omega),
    )


def cstar_norm(ms: MixedSpectrum) -> float:
    """Total-variation norm: sum |c_k| + integral |X_c|; a total that is not
    finite (a NaN bump height, an overflow) raises NonFiniteResult."""
    total = float(sum(abs(ck) for _wk, ck in ms.atoms)) + float(
        sum(comp.mass() for comp in ms.density)
    )
    if not math.isfinite(total):
        raise NonFiniteResult(f"total-variation norm is not finite: {total!r}")
    return total


# ---------------------------------------------------------------------------
# Ideal split and out-of-band perturbation


def ideal_lowpass_split(
    spectrum: SampledSpectrum, omega: float
) -> tuple[SampledSpectrum, SampledSpectrum]:
    """Split X into (low, high) by the closed indicator |w| <= omega, for a
    band constant 0 < omega < inf (else `DomainError`).

    The parts carry the original grid and sum to X bit-exactly; |w| == omega
    goes to the LOW part.  |w| is even on a centered grid, so the parts of a
    Hermitian X are Hermitian, and an omega >= 0 half splits into two halves.
    """
    if not 0.0 < omega < math.inf:
        raise DomainError(f"band constant must be finite and > 0, got {omega!r}")
    mask = in_class(spectrum.omegas(), "LOW", omega)
    low = np.where(mask, spectrum.values, 0.0 + 0.0j)
    high = np.where(mask, 0.0 + 0.0j, spectrum.values)
    return (
        SampledSpectrum(spectrum.omega0, spectrum.domega, low),
        SampledSpectrum(spectrum.omega0, spectrum.domega, high),
    )


def add_outofband_noise(
    spectrum: SampledSpectrum,
    eta: float,
    noise_support: tuple[float, float],
    seed: int,
    omega: float,
) -> SampledSpectrum:
    """Add a Hermitian pseudo-random spectrum component on |w| in noise_support.

    The perturbation carries exactly eta * (signal energy); the in-band part
    of the spectrum is untouched.  Deterministic given seed, an integer
    >= 0 (else `DomainError`).  An omega >= 0 half gets the draws and stays
    a half; a full centered grid also gets their conjugates at -w; any other
    grid raises `GridMismatch`.  The energies are summed in the full grid's
    order, so a half gets the bits of its mirror's half.  An energy or a
    scale that overflows raises `NonFiniteResult`.
    """
    lo, hi = float(noise_support[0]), float(noise_support[1])
    if not (0.0 <= eta < math.inf):
        raise SupportViolation(f"eta must be finite and >= 0, got {eta}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"noise seed must be an integer >= 0, got {seed!r}")
    if not 0.0 < omega < lo:
        raise SupportViolation(
            f"noise support [{lo}, {hi}] must lie above the band [-{omega}, {omega}], omega > 0"
        )
    h = grid_length(len(spectrum.values), spectrum.omega0, spectrum.domega) // 2
    if eta == 0.0:
        return spectrum

    # k*domega, k < n/2, are the full grid's omega >= 0 points bit for bit
    # (grids.uniform_omegas); the half's Nyquist bin is not one of them.
    w = uniform_omegas(0.0, spectrum.domega, h)
    k = np.flatnonzero((w >= lo) & (w <= hi))
    if len(k) == 0:
        raise SupportViolation("noise support contains no positive-frequency grid points")

    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    with np.errstate(over="ignore", invalid="ignore"):
        power = _full_grid_power(spectrum)
        sig_energy = _energy(power, spectrum.domega)
        # The noise's power on the same array: each draw at omega_k (index
        # n/2 + k) and its mate at -omega_k (index n/2 - k).
        power[:] = 0.0
        power[h + k] = power[h - k] = np.abs(draws) ** 2
        noise_energy = _energy(power, spectrum.domega)
        del power
        scale = math.sqrt(eta * sig_energy / noise_energy) if noise_energy > 0 else 0.0
    if not (math.isfinite(sig_energy) and math.isfinite(noise_energy) and math.isfinite(scale)):
        raise NonFiniteResult(f"out-of-band noise: signal energy {sig_energy!r}, noise energy "
                              f"{noise_energy!r}, scale {scale!r}")
    values = spectrum.values.copy()
    if spectrum.omega0 == 0.0:
        values[k] += draws * scale
    else:
        values[h + k] += draws * scale
        values[h - k] += np.conj(draws) * scale
    return SampledSpectrum(spectrum.omega0, spectrum.domega, values)


def signal_to_csv(signal: SampledSignal) -> str:
    lines = ["t,re,im"]
    t = signal.times()
    for ti, v in zip(t, signal.values):
        lines.append(f"{float(ti)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def mixed_to_json_dict(ms: MixedSpectrum) -> dict:
    density = []
    for comp in ms.density:
        if isinstance(comp, RaisedCosineBump):
            density.append(
                {"kind": "raised_cosine", "lo": comp.lo, "hi": comp.hi, "height": comp.height}
            )
        elif isinstance(comp, GaussianBump):
            density.append(
                {
                    "kind": "gaussian",
                    "lo": comp.lo,
                    "hi": comp.hi,
                    "height": comp.height,
                    "sigma": comp._sigma(),
                }
            )
        elif isinstance(comp, SampledDensity):
            density.append(
                {
                    "kind": "sampled",
                    "omegas": list(map(float, comp.omegas)),
                    "re": list(map(float, comp.values.real)),
                    "im": list(map(float, comp.values.imag)),
                }
            )
        else:
            raise SupportViolation(f"cannot serialize density {type(comp).__name__}")
    return {
        "atoms": [[wk, ck.real, ck.imag] for wk, ck in ms.atoms],
        "density": density,
        "class": ms.class_tag,
        "epsilon": ms.epsilon,
        "omega": ms.omega,
    }
