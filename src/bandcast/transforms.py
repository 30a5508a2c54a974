"""Raw discrete Fourier transforms between conjugate uniform grids.

Convention: forward transform approximates integral e^{-i*omega*t} x(t) dt
with no prefactor; the inverse carries 1/(2*pi) and e^{+i*omega*t}.  Arrays
only; the typed wrappers live in :mod:`bandcast.engine`.

Only centered grids are accepted: n a power of two, t0 == -(n/2)*dt and
omega0 == -(n/2)*domega exactly (:func:`grids.is_centered`), with
domega = 2*pi/(n*dt).  Anything else raises GridMismatch before any work.
There every phase factor of the pair is (-1)^j, so both directions apply
exact signs around a bare FFT instead of evaluating exp at arguments up to
n*pi/2, whose rounding grows with n.

Real signals take the real path.  Their spectra are Hermitian,
X(-w) = conj X(w), so the omega >= 0 half X(k*domega), k = 0..n/2, carries
the whole spectrum.  A half lives on its own grid, omega0 = 0, which no
centered n-point grid has, so values and grid say which one they are
(:func:`grid_length`).  Real grid signals are born as halves
(:mod:`bandcast.signals`), and the inverse takes a half of n/2 + 1 values
to float samples with irfft.  A full spectrum that is exactly Hermitian
(:func:`hermitian_half`, one exact check), such as the forward transform of
float samples, takes the same path; any other inverts with a complex FFT.
A half that vanishes above some bin also inverts as a few interleaved
short irffts (:func:`band_limited_inverse`).  The forward transform of
float samples is an rfft mirrored onto the full grid (:func:`mirror_half`).

The library's one worker pool lives here (:func:`_map_row_blocks`): the
band-limited inverse splits its rows over it, the density quadrature of
:mod:`bandcast.signals` its row blocks and :func:`engine.causal_convolve`
its overlap-save blocks.  Each gives the same bits on any number of workers.
Only numpy runs on the workers, none of the library's public functions:
the benchmark's tracer (perfbench/tracer.py) wraps those with one span
stack for the whole process, so the K_hat blocks of
:func:`predictor.synthesize_time_predictor`, which call them, stay on the
calling thread.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import GridMismatch
from .grids import is_centered, is_power_of_two


def require_centered(n: int, origin: float, step: float) -> None:
    """GridMismatch unless n points from `origin` by `step` form a centered
    power-of-two grid: the one grid rule of this module."""
    if not is_power_of_two(n):
        raise GridMismatch(f"transform length must be a power of two, got {n}")
    if not is_centered(n, origin, step):
        raise GridMismatch(
            f"transforms need a centered grid: n = {n}, origin = {origin!r}, "
            f"-(n/2) * step = {-(n // 2) * step!r}"
        )


def grid_length(m: int, omega0: float, domega: float) -> int:
    """The length n of the centered grid that m spectrum values stand for:
    m on that grid (:func:`require_centered`), 2*(m - 1) for an omega >= 0
    half (omega0 == 0) if a power of two; else GridMismatch."""
    if omega0 != 0.0:
        require_centered(m, omega0, domega)
        return m
    if not is_power_of_two(2 * (m - 1)):
        raise GridMismatch(f"an omega >= 0 half holds n/2 + 1 values with n a power of two, "
                           f"got {m} values")
    return 2 * (m - 1)


def _alternate_signs(a: np.ndarray) -> np.ndarray:
    """Multiply a[j] by (-1)^j in place, as an exact negation: applied twice
    it restores every bit, the signs of zeros included."""
    np.negative(a[1::2], out=a[1::2])
    return a


def hermitian_half(values: np.ndarray, omega0: float, domega: float) -> np.ndarray | None:
    """The omega >= 0 half X(k*domega), k = 0..n/2, of an exactly Hermitian
    spectrum on a centered grid (:func:`grids.is_centered`); else None.

    Exact means X(-w) == conj X(w) bit for bit at every mirrored pair, with
    real DC and Nyquist bins.  The Nyquist bin -(n/2)*domega is stored first
    and is returned last, at +(n/2)*domega.
    """
    n = len(values)
    h = n // 2
    if not is_centered(n, omega0, domega) or values[0].imag != 0.0 or values[h].imag != 0.0:
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
    """Forward transform of samples on the centered grid (t0, dt).

    Returns (spectrum_values, omega0, domega) on the full centered grid.
    """
    values = np.asarray(values)
    n = len(values)
    require_centered(n, t0, dt)
    domega = 2.0 * np.pi / (n * dt)
    omega0 = -(n // 2) * domega
    # exp(-i*omega_k*t0) = (-1)^k at the FFT's k-th frequency.
    if np.isrealobj(values):
        # rfft's DC and Nyquist bins are real: the mirror is exactly Hermitian.
        half = _alternate_signs(np.fft.rfft(values))
        half *= dt
        return mirror_half(half, n), omega0, domega
    spec = _alternate_signs(np.fft.fft(values))
    spec *= dt
    return np.fft.fftshift(spec), omega0, domega


def signal_from_spectrum(values: np.ndarray, omega0: float, domega: float):
    """Inverse transform onto the conjugate centered time grid.

    Returns (signal_values, t0, dt) with t0 = -(n/2)*dt.  `values` is either
    the spectrum on the full centered n-point grid or, with omega0 == 0, the
    omega >= 0 half X(k*domega), k = 0..n/2, of a Hermitian one
    (:func:`grid_length`).  A half, and a full spectrum that is exactly
    Hermitian, come back as float samples.  Any other grid raises
    GridMismatch.

    A writeable complex half is not copied: its odd entries are negated for
    the irfft and negated back (:func:`_alternate_signs`), so it must not be
    read by another thread meanwhile.
    """
    values = np.asarray(values, dtype=complex)
    n = grid_length(len(values), omega0, domega)
    half = values if omega0 == 0.0 else hermitian_half(values, omega0, domega)
    dt = 2.0 * np.pi / (n * domega)
    if half is not None:
        # x_j = (n*domega/2pi) * irfft((-1)^k X(k*domega))_j: the phases
        # e^{i*omega0*t_j} and e^{-i*omega_k*t0} cancel on a centered grid.
        if not half.flags.writeable:
            half = np.array(half)
        try:
            sig = np.fft.irfft(_alternate_signs(half), n)
        finally:
            _alternate_signs(half)
        sig *= domega * n / (2.0 * np.pi)
    else:
        # Both phases are (-1)^j; exp(i*omega0*t_j) also carries (-1)^(n/2).
        sig = np.array(values)
        np.fft.ifft(_alternate_signs(sig), out=sig)
        _alternate_signs(sig)
        sig *= (-1.0 if (n // 2) % 2 else 1.0) * (domega * n / (2.0 * np.pi))
    return sig, float(-(n // 2) * dt), dt


# Values in one row block of the worker pool (512 KB complex): a block of
# the density quadrature's phase matrix stays in cache, and a band-limited
# inverse of fewer than two blocks runs inline.
_BLOCK_ELEMENTS = 1 << 15
_row_pool: ThreadPoolExecutor | None = None
_row_workers = 1


def _new_row_pool() -> None:
    """The library's one worker pool: one worker per CPU this process may run
    on, or None (run inline) on one CPU.  The executor starts its threads on
    first use."""
    global _row_pool, _row_workers
    _row_workers = len(os.sched_getaffinity(0))
    _row_pool = ThreadPoolExecutor(_row_workers) if _row_workers > 1 else None


_new_row_pool()
# A forked child has none of the pool's threads; work sent to them would wait
# forever, so the child makes its own pool.
os.register_at_fork(after_in_child=_new_row_pool)


def _map_row_blocks(task, blocks) -> None:
    """task(b) for each b in blocks, on the row pool, or inline without one
    or for a single block.  The pool's one contract: a task writes only its
    own slice of arrays that the calling thread allocated, disjoint from
    every other task's, and returns nothing.  On the pool every task runs to
    its end before the first error in block order is raised, so no task
    still writes into a caller's buffers once the caller has the error."""
    blocks = list(blocks)
    if _row_pool is None or len(blocks) < 2:
        for b in blocks:
            task(b)
        return
    futures = [_row_pool.submit(task, b) for b in blocks]
    wait(futures)
    for f in futures:
        f.result()


def _row_groups(rows: int, most: int) -> list[tuple[int, int]]:
    """Bounds of contiguous groups of `rows` rows: one group per pool worker,
    but no more groups than rows or than `most`, and at least one."""
    count = max(1, min(_row_workers, rows, most))
    edges = [rows * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


# Rows of the band-limited inverse per exact twiddle: the other rows chain
# theirs from it, at most _CHAINED_ROWS - 1 multiplications each.
_CHAINED_ROWS = 16
# Rows of the band-limited inverse at most: each row costs a Python-level
# irfft here and a term in engine.centre_samples, so a support near DC takes
# a few longer transforms instead of n/2 two-point ones.
_MOST_ROWS = 64
# Bytes of the band-limited inverse's output rows at once, one M-point float
# row per group: the groups are capped so that the transient beside the
# samples does not grow with the number of CPUs.  Two 2**17-point rows fit,
# so on two workers an n = 2**20 inverse of r >= 8 rows keeps two groups.
_INVERSE_ROW_BYTES = 1 << 21


def interleaved_rows(indices, n: int) -> int:
    """r, the interleaved rows of :func:`band_limited_inverse` for an
    omega >= 0 half that vanishes off `indices`: n/M, with M the smallest
    power of two >= 2*(k_max + 1), capped at n, but at most _MOST_ROWS."""
    k_max = int(np.max(indices, initial=0))
    return min(n // min(n, 1 << (2 * k_max + 1).bit_length()), _MOST_ROWS)


def band_limited_inverse(indices, n: int, domega: float):
    """The inverse transform of omega >= 0 halves that vanish off the bins
    `indices` (increasing, in 0..n/2): a function from a half's values at
    those bins to what :func:`signal_from_spectrum` gives for the whole half,
    (float samples, t0, dt), the samples to roundoff.

    If every active k < M/2, with M = n/r a power of two, the n-point inverse
    is r interleaved M-point ones (Markel's pruning):
    e_{q*r+s} = (domega*M/2pi) * irfft_M(G_s)_q with
    G_s(k) = (-1)^k X_k e^{2 pi i s k/n}.  r follows from the support alone
    and is at most _MOST_ROWS (:func:`interleaved_rows`).  One (r, M/2 + 1)
    complex buffer serves every call.  The calling thread writes the active
    bins: row 0 takes (-1)^k X_k and row s row 0 times its twiddle.  Then
    each group of rows (:func:`_row_groups`: whole row blocks, and no more
    M-point output rows than _INVERSE_ROW_BYTES holds) runs on the pool
    (:func:`_map_row_blocks`): an irfft per row, scaled in its group's
    output row and copied into the row's own memory, the group's rows
    transposed into their columns of fresh samples, and the rows zeroed
    again.  A per-row irfft equals a batched one bit for bit, so the samples
    do not depend on the groups or the workers.  With r = 1 (a support that
    reaches k = n/2 - 1) the samples are the irfft of
    :func:`signal_from_spectrum` bit for bit.
    """
    k = np.asarray(indices, dtype=np.intp)
    r = interleaved_rows(k, n)
    m = n // r
    rows = np.zeros((r, m // 2 + 1), dtype=complex)
    real = rows.view(np.float64)
    odd = k % 2 == 1
    chained = min(r, _CHAINED_ROWS)
    step = np.exp((2j * np.pi / n) * k)
    # Exact twiddles of the rows s = j*chained, j >= 1 (s*k < n/2 is exact).
    exact = np.exp((2j * np.pi / n) * (np.arange(chained, r, chained)[:, None] * k))
    blocks = rows.reshape(r // chained, chained, m // 2 + 1)
    scale = domega * m / (2.0 * np.pi)
    dt = 2.0 * np.pi / (n * domega)
    t0 = float(-(n // 2) * dt)

    def transform(columns: np.ndarray, job: tuple[tuple[int, int], np.ndarray]) -> None:
        (lo, hi), out = job
        try:
            for s in range(lo, hi):
                np.fft.irfft(rows[s], m, out=out)
                out *= scale
                real[s, :m] = out
            # Unlike a ufunc, copyto transposes without a buffer.
            np.copyto(columns[:, lo:hi], real[lo:hi, :m].T)
        finally:
            rows[lo:hi].fill(0.0)  # the next call writes only the active bins

    def invert(values):
        g = np.array(values, dtype=complex)
        np.negative(g, out=g, where=odd)
        for b in range(chained):
            blocks[0, b][k] = g  # a row's own fancy index: faster than [0, b, k]
            if len(exact):
                blocks[1:, b, k] = exact * g
            if b + 1 < chained:
                g *= step
        del g  # not live during the transform
        samples = np.empty(n)
        groups = _row_groups(r, min(rows.size // _BLOCK_ELEMENTS, _INVERSE_ROW_BYTES // (8 * m)))
        # Each group's output row is allocated here: a temporary that a worker
        # allocated (as numpy's copy of an input that overlaps its output would
        # be) stays resident in that worker's malloc arena.
        outs = np.empty((len(groups), m))
        _map_row_blocks(functools.partial(transform, samples.reshape(m, r)), zip(groups, outs))
        return samples, t0, dt

    return invert


def sparse_inverse(indices, size: int, omega0: float, domega: float):
    """The inverse transform of spectra of `size` values on the grid
    (omega0, domega) that vanish off `indices` (increasing): a function from
    the values there to (signal_values, t0, dt), as
    :func:`signal_from_spectrum`.  A half (omega0 == 0) takes
    :func:`band_limited_inverse`; on the full grid the values are written
    into one reused zero-filled buffer, which signal_from_spectrum inverts.
    """
    n = grid_length(size, omega0, domega)
    if omega0 == 0.0:
        return band_limited_inverse(indices, n, domega)
    buffer = np.zeros(size, dtype=complex)

    def invert(values):
        buffer[indices] = values
        return signal_from_spectrum(buffer, omega0, domega)

    return invert
