"""Sampled signals/spectra, test-signal generators, and mixed spectra.

Two signal families are generated here:

* square-integrable grid signals, given by their spectra: samples on a
  uniform frequency grid that vanish exactly outside a declared support
  (either inside the band [-omega, omega] or outside it); the time signal is
  one ``engine.fourier_inverse`` away.  A two-sided spectrum is the envelope
  evaluated at |omega|; grid frequencies are exactly antisymmetric
  (:mod:`bandcast.grids`), so it is exactly Hermitian and its signal real;
* bounded "mixed" signals made of spectral atoms plus an integrable density,
  x(t) = (1/2pi) * (sum c_k e^{i w_k t} + integral e^{i w t} X_c(w) dw),
  measured in the total-variation norm sum|c_k| + ||X_c||_L1.

Band-edge convention: the ideal low-pass indicator is closed, so grid points
with |omega| == band constant go to the LOW part of a split.
"""

from __future__ import annotations

import math
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
from .grids import GridSpec, is_centered, uniform_omegas


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
        if len(self.values) < 2:
            raise GridMismatch("spectrum needs at least 2 samples")

    def omegas(self) -> np.ndarray:
        return uniform_omegas(self.omega0, self.domega, len(self.values))

    def energy(self) -> float:
        """(1/2pi) sum |X|^2 domega; equals the paired signal energy.

        An omega >= 0 half (omega0 == 0, see :mod:`bandcast.transforms`)
        stands for its Hermitian mirror, as irfft reads it: DC and Nyquist
        count their real parts once, every other point twice."""
        power = np.abs(self.values) ** 2
        if self.omega0 == 0.0:
            power[0], power[-1] = self.values[0].real ** 2, self.values[-1].real ** 2
            power[1:-1] *= 2.0
        return float(np.sum(power) * self.domega / (2.0 * np.pi))


def same_time_grid(a: SampledSignal, b: SampledSignal, tol: float = 1e-12) -> bool:
    scale = max(abs(a.t0), abs(a.dt), 1.0)
    return (
        len(a.values) == len(b.values)
        and abs(a.t0 - b.t0) <= tol * scale
        and abs(a.dt - b.dt) <= tol * scale
    )


# ---------------------------------------------------------------------------
# Band-restricted L2 signal generators


def _envelope_spectrum(envelope_spec, grid_spec: GridSpec, lo: float, hi: float, two_sided: bool):
    """A named envelope on the grid's frequencies, at |omega| when two-sided;
    exactly zero off the declared support."""
    if isinstance(envelope_spec, str):
        name, params = envelope_spec, {}
    else:
        name, params = envelope_spec
    height = float(params.get("height", 1.0))
    w = np.abs(grid_spec.omegas()) if two_sided else grid_spec.omegas()
    if name == "indicator":
        vals = np.where((w >= lo) & (w <= hi), height, 0.0).astype(complex)
    elif name == "raised_cosine":
        vals = RaisedCosineBump(lo, hi, height)(w)
    elif name == "gaussian":
        sigma = params.get("sigma")
        vals = GaussianBump(lo, hi, height, None if sigma is None else float(sigma))(w)
    else:
        raise SupportViolation(f"unknown envelope {name!r}")
    return SampledSpectrum(grid_spec.omega0, grid_spec.domega, vals)


def _require_on_grid(lo: float, hi: float, grid_spec: GridSpec) -> None:
    """SupportViolation unless the grid's frequencies reach both ends of the
    support, so that no part of it is cut silently."""
    first, top = grid_spec.omega0, grid_spec.omega0 + grid_spec.domega * (grid_spec.n - 1)
    if lo < first or hi > top:
        raise SupportViolation(f"support [{lo}, {hi}] beyond the grid's [{first:.6g}, {top:.6g}]")


def make_bandlimited_signal(
    envelope_spec,
    support: tuple[float, float],
    grid_spec: GridSpec,
    omega: float,
) -> SampledSpectrum:
    """Spectrum that is `envelope` on `support` inside [-omega, omega].

    A symmetric support (lo == -hi) gives an exactly Hermitian spectrum and a
    real signal; any other support gives a complex signal.  A support past
    the grid's frequencies raises SupportViolation.
    """
    lo, hi = float(support[0]), float(support[1])
    if not (-omega <= lo < hi <= omega):
        raise SupportViolation(
            f"support [{lo}, {hi}] not inside the band [-{omega}, {omega}]"
        )
    _require_on_grid(lo, hi, grid_spec)
    return _envelope_spectrum(envelope_spec, grid_spec, lo, hi, lo == -hi)


def make_highfreq_signal(
    envelope_spec,
    support: tuple[float, float],
    grid_spec: GridSpec,
    omega: float,
    hermitian: bool = True,
) -> SampledSpectrum:
    """Spectrum on |w| in [lo, hi], lo >= omega.

    hermitian=True places the envelope on both +/-[lo, hi] (exactly
    Hermitian spectrum, real signal); hermitian=False uses the positive side
    only (complex signal).
    """
    lo, hi = float(support[0]), float(support[1])
    if not (omega <= lo < hi):
        raise SupportViolation(
            f"high-frequency support [{lo}, {hi}] must satisfy omega <= lo < hi"
        )
    _require_on_grid(lo, hi, grid_spec)
    return _envelope_spectrum(envelope_spec, grid_spec, lo, hi, hermitian)


# ---------------------------------------------------------------------------
# Mixed spectra: atoms + integrable density


def _gauss_legendre_panels(lo: float, hi: float, panels: int, order: int = 8):
    nodes, weights = np.polynomial.legendre.leggauss(order)
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
    distinct |t| only, into one complex matrix Q (for an exactly symmetric t
    grid such as ``GridSpec(2048, 400).times()`` that is n/2 + 1 rows).  A row
    with t >= +0.0 reads (Q @ c); a row with the sign bit of t set (t < 0 or
    t == -0.0) reads conj(Q @ conj(c)), which equals conj(Q) @ c bit for bit because rounding
    is symmetric under negation.  numpy's float64 sin and cos are odd and even
    and agree with its complex exp, and a matrix-vector product sums each row
    in an order that does not depend on its position; the tests pin these
    facts.  A one-row Q would take numpy's dot path, not its matrix-vector
    one, so a single distinct |t| is repeated when t has several rows.
    """
    abs_t, rows = np.unique(np.abs(t), return_inverse=True)
    if len(abs_t) < min(len(t), 2):
        abs_t = np.repeat(abs_t, 2)
    neg = np.signbit(t)
    pos_at, neg_at = np.flatnonzero(~neg), np.flatnonzero(neg)
    pos_rows, neg_rows = rows[pos_at], rows[neg_at]

    def products(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
        theta = np.outer(abs_t, x)
        q = np.empty(theta.shape, dtype=complex)
        q.real = np.cos(theta)
        q.imag = np.sin(theta, out=theta)
        out = np.empty((len(t), len(columns)), dtype=complex)
        for j, col in enumerate(columns):
            if len(pos_at):
                out[pos_at, j] = (q @ col)[pos_rows]
            if len(neg_at):
                out[neg_at, j] = np.conj(q @ np.conj(col))[neg_rows]
        return out

    return products


def _oscillatory_integral(
    density: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray] | None,
    lo: float,
    hi: float,
    t_values: np.ndarray,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """integral_lo^hi density(w) weight_c(w) e^{i w t} dw per t and column c.

    `weight` is None (weight 1), or returns one value per node, or a
    (nodes, columns) array; the result is then (t,) or (t, columns).  `t`
    must be a non-empty, finite 1-D array (else `GridMismatch`, before any
    work).  Every column shares one node set per pass, and the weight is
    called once per pass.  The t x nodes phase matrix is never built:
    `_phase_products` takes cos/sin on the distinct |t| only (n/2 + 1 rows on
    a centered grid) and serves rows with t < 0 by conjugation, with the same
    bits as the product with a complex exp of the outer product.  Each column
    is its own matrix-vector product, so it is summed in the same order as
    when integrated alone.  Fixed-order Gauss panels, with the panel count
    scaled to the oscillation count; a doubled-panel pass certifies
    convergence of each column on its own (1e-9 relative + 1e-13).  A pass
    with a non-finite value (a NaN or infinite density or weight) raises
    `NonFiniteResult` naming [lo, hi], without a numpy warning.
    """
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not np.all(np.isfinite(t)):
        raise GridMismatch(
            f"quadrature times must be a non-empty finite 1-D array, got shape {t.shape}"
        )
    tmax = float(np.max(np.abs(t)))
    panels = max(16, int(math.ceil((hi - lo) * (tmax + 1.0) / 3.0)))
    phase_products = _phase_products(t)

    def compute(npanels: int) -> np.ndarray:
        x, w = _gauss_legendre_panels(lo, hi, npanels)
        with np.errstate(invalid="ignore", over="ignore"):
            fx = np.asarray(density(x), dtype=complex)
            if weight is not None:
                fx = fx * np.asarray(weight(x)).T  # (columns, nodes) or (nodes,)
            columns = np.ascontiguousarray(fx * w).reshape(-1, len(x))
            out = phase_products(x, columns)
        if not np.all(np.isfinite(out)):
            raise NonFiniteResult(f"oscillatory integral is not finite on [{lo}, {hi}]")
        return out if fx.ndim == 2 else out[:, 0]

    coarse = compute(panels)
    fine = compute(2 * panels)
    scales = np.maximum(np.max(np.abs(fine), axis=0), 1e-300)
    gaps = np.max(np.abs(fine - coarse), axis=0)
    for gap, scale in zip(np.atleast_1d(gaps), np.atleast_1d(scales)):
        if gap > rel_tol * scale + 1e-13:
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
        return _oscillatory_integral(self, weight, self.lo, self.hi, t_values)


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
        return _oscillatory_integral(self, weight, self.lo, self.hi, t_values)


@dataclass(frozen=True, eq=False)
class SampledDensity:
    """Density given by samples with piecewise-linear interpolation."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        w = self.omegas
        if len(w) < 2 or not (np.all(np.isfinite(w)) and np.all(np.diff(w) > 0)):
            raise SupportViolation("sampled density needs a finite increasing grid")

    def support(self) -> tuple[float, float]:
        return (float(self.omegas[0]), float(self.omegas[-1]))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        re = np.interp(w, self.omegas, self.values.real, left=0.0, right=0.0)
        im = np.interp(w, self.omegas, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def mass(self) -> float:
        lo, hi = self.support()
        for refine in (16, 32):
            x = np.linspace(lo, hi, refine * (len(self.omegas) - 1) + 1)
            val = float(np.trapezoid(np.abs(self(x)), x))
            if refine == 16:
                coarse = val
        if abs(val - coarse) > 1e-9 * max(val, 1e-300) + 1e-13:
            raise QuadratureNotConverged("density L1 mass did not converge")
        return val

    def integrate_against(self, weight, t_values) -> np.ndarray:
        lo, hi = self.support()
        return _oscillatory_integral(self, weight, lo, hi, t_values)


@dataclass(frozen=True, eq=False)
class MixedSpectrum:
    """Atoms (w_k, c_k) plus density components, with its class declaration."""

    atoms: tuple[tuple[float, complex], ...]
    density: tuple
    class_tag: str
    epsilon: float
    omega: float

    def evaluate(self, t_values) -> np.ndarray:
        """x(t) = (1/2pi) (sum c_k e^{i w_k t} + integral e^{i w t} X_c dw)."""
        t = np.asarray(t_values, dtype=float)
        acc = np.zeros(len(t), dtype=complex)
        for wk, ck in self.atoms:
            acc += ck * np.exp(1j * wk * t)
        for comp in self.density:
            acc += comp.integrate_against(None, t)
        return acc / (2.0 * np.pi)


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
        if class_tag == "LOW" and abs(wk) > omega - epsilon:
            raise ClassConstraintViolation(
                f"atom at {wk} outside [-(omega-eps), omega-eps] = "
                f"[-{omega - epsilon}, {omega - epsilon}]"
            )
        if class_tag == "HIGH" and abs(wk) < omega + epsilon:
            raise ClassConstraintViolation(
                f"atom at {wk} inside the forbidden gap (|w| < {omega + epsilon})"
            )
        norm_atoms.append((wk, ck))
    comps = tuple(density_spec)
    for comp in comps:
        lo, hi = comp.support()
        if class_tag == "LOW":
            if not (-(omega - epsilon) <= lo < hi <= omega - epsilon):
                raise ClassConstraintViolation(
                    f"density support [{lo}, {hi}] not inside "
                    f"[-{omega - epsilon}, {omega - epsilon}]"
                )
        else:
            one_side = (omega + epsilon <= lo < hi) or (lo < hi <= -(omega + epsilon))
            if not one_side:
                raise ClassConstraintViolation(
                    f"density support [{lo}, {hi}] overlaps the gap "
                    f"(-{omega + epsilon}, {omega + epsilon})"
                )
    return MixedSpectrum(
        atoms=tuple(norm_atoms),
        density=comps,
        class_tag=class_tag,
        epsilon=float(epsilon),
        omega=float(omega),
    )


def cstar_norm(ms: MixedSpectrum) -> float:
    """Total-variation norm: sum |c_k| + integral |X_c|."""
    return float(sum(abs(ck) for _wk, ck in ms.atoms)) + float(
        sum(comp.mass() for comp in ms.density)
    )


# ---------------------------------------------------------------------------
# Ideal split and out-of-band perturbation


def ideal_lowpass_split(
    spectrum: SampledSpectrum, omega: float
) -> tuple[SampledSpectrum, SampledSpectrum]:
    """Split X into (low, high) by the closed indicator |w| <= omega.

    The parts carry the original grid and sum to X bit-exactly; |w| == omega
    goes to the LOW part.  |w| is even on a centered grid, so the parts of a
    Hermitian X are exactly Hermitian.
    """
    mask = np.abs(spectrum.omegas()) <= omega
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
    of the spectrum is untouched.  Deterministic given seed, which must be
    >= 0 (else `DomainError`).  The mate of grid point j is written at index
    -j, so the grid must be centered (n even, omega0 == -(n/2) * domega),
    else `GridMismatch`.
    """
    lo, hi = float(noise_support[0]), float(noise_support[1])
    if not (0.0 <= eta < math.inf):
        raise SupportViolation(f"eta must be finite and >= 0, got {eta}")
    if seed < 0:
        raise DomainError(f"noise seed must be >= 0, got {seed}")
    if not 0.0 < omega < lo:
        raise SupportViolation(
            f"noise support [{lo}, {hi}] must lie above the band [-{omega}, {omega}], omega > 0"
        )
    n = len(spectrum.values)
    if not is_centered(n, spectrum.omega0, spectrum.domega):
        raise GridMismatch(
            f"out-of-band noise needs a centered grid: n = {n}, omega0 = {spectrum.omega0!r}, "
            f"-(n/2) * domega = {-(n // 2) * spectrum.domega!r}"
        )
    if eta == 0.0:
        return spectrum

    og = spectrum.omegas()
    pos = np.where((og >= lo) & (og <= hi))[0]
    if len(pos) == 0:
        raise SupportViolation("noise support contains no positive-frequency grid points")

    rng = np.random.default_rng(seed)
    noise = np.zeros(len(og), dtype=complex)
    draws = rng.standard_normal(len(pos)) + 1j * rng.standard_normal(len(pos))
    noise[pos] = draws
    # Hermitian mate: index -j is n - j, and omega_{n-j} = -omega_j on the
    # centered grid.
    noise[-pos] = np.conj(draws)

    sig_energy = spectrum.energy()
    noise_energy = float(np.sum(np.abs(noise) ** 2) * spectrum.domega / (2 * np.pi))
    scale = math.sqrt(eta * sig_energy / noise_energy) if noise_energy > 0 else 0.0
    noise *= scale
    return SampledSpectrum(spectrum.omega0, spectrum.domega, spectrum.values + noise)


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


def mixed_from_json_dict(doc: dict) -> MixedSpectrum:
    """The mixed spectrum of a JSON document.  A density whose height or
    samples are not finite raises SupportViolation before any quadrature."""
    atoms = [(float(a[0]), complex(a[1], a[2])) for a in doc.get("atoms", [])]
    comps = []
    for d in doc.get("density", []):
        if d["kind"] == "raised_cosine":
            comp = RaisedCosineBump(float(d["lo"]), float(d["hi"]), float(d.get("height", 1.0)))
        elif d["kind"] == "gaussian":
            sigma = float(d["sigma"]) if "sigma" in d else None
            comp = GaussianBump(float(d["lo"]), float(d["hi"]), float(d.get("height", 1.0)), sigma)
        elif d["kind"] == "sampled":
            vals = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
            comp = SampledDensity(np.asarray(d["omegas"], dtype=float), vals)
        else:
            raise SupportViolation(f"unknown density kind {d['kind']!r}")
        if not np.all(np.isfinite(comp.values if d["kind"] == "sampled" else comp.height)):
            raise SupportViolation(f"{d['kind']} density height or samples not finite")
        comps.append(comp)
    return make_mixed_signal(atoms, comps, doc["class"], float(doc["epsilon"]), float(doc["omega"]))
