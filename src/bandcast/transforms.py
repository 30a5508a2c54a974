"""Raw discrete Fourier transforms between conjugate uniform grids.

Convention: forward transform approximates integral e^{-i*omega*t} x(t) dt
with no prefactor; the inverse carries 1/(2*pi) and e^{+i*omega*t}.  Arrays
only; the typed wrappers live in :mod:`bandcast.engine`.

Frequency grids are ascending with omega_j = omega0 + j*domega.  For a time
grid (t0, dt, n) the conjugate frequency grid is omega0 = -(n//2)*domega,
domega = 2*pi/(n*dt); the pair round-trips exactly (up to rounding).

Centered grids (n even, omega0 = -(n//2)*domega and t0 = -(n//2)*dt to within
a few ulps) are the common case.  There every phase factor of the pair is
(-1)^j, so both directions apply exact signs around a bare FFT instead of
evaluating exp at arguments up to n*pi/2, whose rounding grows with n.  The
general phase path covers every other grid.

Real signals on centered grids take the real path.  Their spectra are
Hermitian, X(-w) = conj X(w), so the omega >= 0 half X(k*domega),
k = 0..n/2, carries the whole spectrum: the forward transform of float
samples is an rfft mirrored onto the full grid (:func:`mirror_half`), and a
spectrum that is exactly Hermitian (:func:`hermitian_half`, one exact check)
inverts with irfft to float samples.  A caller that already holds the half
passes it with ``n`` and skips both the mirror and the check.
"""

from __future__ import annotations

import numpy as np

# GridSpec.t0 = -span/2 and -(n//2)*dt with dt = 2*pi/(n*domega) agree only
# to rounding (one ulp, 1.5e-11 s, at n = 2^20 and span 204800).
_CENTER_ULPS = 4


def _centered_origin(n: int, step: float, origin: float) -> bool:
    """True when origin is -(n//2)*step to within a few ulps and n is even."""
    center = -(n // 2) * step
    return n % 2 == 0 and abs(origin - center) <= _CENTER_ULPS * np.spacing(abs(center))


def _alternate_signs(a: np.ndarray) -> np.ndarray:
    """Multiply a[j] by (-1)^j in place."""
    a[1::2] *= -1.0
    return a


def hermitian_half(values: np.ndarray, omega0: float, domega: float) -> np.ndarray | None:
    """The omega >= 0 half X(k*domega), k = 0..n/2, of an exactly Hermitian
    spectrum on a centered grid (omega0 == -(n//2)*domega, n even); else None.

    Exact means X(-w) == conj X(w) bit for bit at every mirrored pair, with
    real DC and Nyquist bins.  The Nyquist bin -(n/2)*domega is stored first
    and is returned last, at +(n/2)*domega.
    """
    n = len(values)
    h = n // 2
    if n % 2 or omega0 != -h * domega or values[0].imag != 0.0 or values[h].imag != 0.0:
        return None
    if not np.array_equal(values[h + 1 :], np.conj(values[h - 1 : 0 : -1])):
        return None
    half = np.empty(h + 1, dtype=complex)
    half[:h] = values[h:]
    half[h] = values[0]
    return half


def mirror_half(half: np.ndarray, n: int) -> np.ndarray:
    """The centered n-point Hermitian spectrum whose omega >= 0 half is `half`.

    The DC and Nyquist bins keep their real parts, as irfft does, so the
    result inverts to the same signal as `half`.
    """
    h = n // 2
    full = np.empty(n, dtype=complex)
    full[h:] = half[:h]
    full[h] = half[0].real
    full[0] = half[h].real
    np.conjugate(half[h - 1 : 0 : -1], out=full[1:h])
    return full


def spectrum_from_signal(values: np.ndarray, dt: float, t0: float):
    """Forward transform.  Returns (spectrum_values, omega0, domega)."""
    values = np.asarray(values)
    n = len(values)
    domega = 2.0 * np.pi / (n * dt)
    omega0 = -(n // 2) * domega
    if not _centered_origin(n, dt, t0):
        return np.fft.fftshift(_phased_spectrum(values, dt, t0)), omega0, domega
    # exp(-i*omega_k*t0) = (-1)^k at the FFT's k-th frequency.
    if np.isrealobj(values):
        # rfft's DC and Nyquist bins are real: the mirror is exactly Hermitian.
        half = _alternate_signs(np.fft.rfft(values))
        half *= dt
        return mirror_half(half, n), omega0, domega
    spec = _alternate_signs(np.fft.fft(values))
    spec *= dt
    return np.fft.fftshift(spec), omega0, domega


def _phased_spectrum(values: np.ndarray, dt: float, t0: float) -> np.ndarray:
    """General forward path, in FFT order: dt * exp(-i*omega_k*t0) * fft(values)."""
    omegas_fft = 2.0 * np.pi * np.fft.fftfreq(len(values), d=dt)
    return dt * np.exp(-1j * omegas_fft * t0) * np.fft.fft(values)


def signal_from_spectrum(
    values: np.ndarray, omega0: float, domega: float, t0=None, n: int | None = None
):
    """Inverse transform onto the conjugate time grid.

    Returns (signal_values, t0, dt).  The default t0 centers the grid; any
    uniform frequency grid is accepted (a non-centered omega0 shows up as a
    phase factor e^{i*omega_offset*t}).  An exactly Hermitian spectrum on a
    centered grid comes back as float samples.

    With ``n`` given, `values` is the omega >= 0 half X(k*domega),
    k = 0..n/2, of a Hermitian spectrum on the centered n-point grid (as
    :func:`hermitian_half` returns it), and the signal comes back real on the
    centered time grid.
    """
    values = np.asarray(values, dtype=complex)
    if n is None:
        n, half = len(values), None
    else:
        half = values
    dt = 2.0 * np.pi / (n * domega)
    if t0 is None:
        t0 = -(n // 2) * dt
    centered = omega0 == -(n // 2) * domega and _centered_origin(n, dt, t0)
    if half is None and centered:
        half = hermitian_half(values, omega0, domega)
    if half is not None:
        if not centered or len(half) != n // 2 + 1:
            raise ValueError(f"a half spectrum is n/2 + 1 = {n // 2 + 1} values on the centered grid")
        # x_j = (n*domega/2pi) * irfft((-1)^k X(k*domega))_j: the phases
        # e^{i*omega0*t_j} and e^{-i*omega_k*t0} cancel on a centered grid.
        sig = np.fft.irfft(_alternate_signs(np.array(half)), n)
        sig *= domega * n / (2.0 * np.pi)
    elif centered:
        # Both phases are (-1)^j; exp(i*omega0*t_j) also carries (-1)^(n/2).
        sig = np.array(values)
        np.fft.ifft(_alternate_signs(sig), out=sig)
        _alternate_signs(sig)
        sig *= (-1.0 if (n // 2) % 2 else 1.0) * (domega * n / (2.0 * np.pi))
    else:
        sig = _phased_signal(values, omega0, domega, t0)
    return sig, float(t0), dt


def _phased_signal(values: np.ndarray, omega0: float, domega: float, t0: float) -> np.ndarray:
    """General inverse path onto the time grid starting at t0."""
    n = len(values)
    dt = 2.0 * np.pi / (n * domega)
    t = t0 + dt * np.arange(n)
    inner = values * np.exp(1j * np.arange(n) * domega * t0)
    return (domega * n / (2.0 * np.pi)) * np.exp(1j * omega0 * t) * np.fft.ifft(inner)
