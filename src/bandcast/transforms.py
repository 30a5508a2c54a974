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


def spectrum_from_signal(values: np.ndarray, dt: float, t0: float):
    """Forward transform.  Returns (spectrum_values, omega0, domega)."""
    values = np.asarray(values, dtype=complex)
    n = len(values)
    domega = 2.0 * np.pi / (n * dt)
    omega0 = -(n // 2) * domega
    if _centered_origin(n, dt, t0):
        # exp(-i*omega_k*t0) = (-1)^k at the FFT's k-th frequency.
        spec = _alternate_signs(np.fft.fft(values))
        spec *= dt
    else:
        spec = _phased_spectrum(values, dt, t0)
    return np.fft.fftshift(spec), omega0, domega


def _phased_spectrum(values: np.ndarray, dt: float, t0: float) -> np.ndarray:
    """General forward path, in FFT order: dt * exp(-i*omega_k*t0) * fft(values)."""
    omegas_fft = 2.0 * np.pi * np.fft.fftfreq(len(values), d=dt)
    return dt * np.exp(-1j * omegas_fft * t0) * np.fft.fft(values)


def signal_from_spectrum(values: np.ndarray, omega0: float, domega: float, t0=None):
    """Inverse transform onto the conjugate time grid.

    Returns (signal_values, t0, dt).  The default t0 centers the grid; any
    uniform frequency grid is accepted (a non-centered omega0 shows up as a
    phase factor e^{i*omega_offset*t}).
    """
    values = np.asarray(values, dtype=complex)
    n = len(values)
    dt = 2.0 * np.pi / (n * domega)
    if t0 is None:
        t0 = -(n // 2) * dt
    if omega0 == -(n // 2) * domega and _centered_origin(n, dt, t0):
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
