"""The library's one worker pool and the work that runs on it: the density
quadrature's row blocks, the band-limited inverse's row groups and the
causal convolution's block groups."""

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bandcast import RaisedCosineBump, SampledSignal, engine, transforms
from bandcast.errors import NonFiniteResult
from bandcast.grids import GridSpec
from bandcast.signals import _gauss_legendre_panels, _phase_products
from helpers import integrate_unweighted


@pytest.fixture
def one_cpu(monkeypatch):
    """Make the pool as on a machine with one CPU: no pool, run inline."""
    monkeypatch.setattr(transforms, "_row_workers", transforms._row_workers)
    monkeypatch.setattr(transforms, "_row_pool", transforms._row_pool)
    monkeypatch.setattr(transforms.os, "sched_getaffinity", lambda pid: {0})

    def make():
        transforms._new_row_pool()
        assert transforms._row_pool is None and transforms._row_workers == 1

    return make


def _finishes_in_a_forked_child(compute, what):
    # A forked child has none of the parent's pool threads: without a pool of
    # its own, work sent to them used to wait forever.
    expected = compute()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if compute() == expected else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.02)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail(f"the forked child's {what} did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


def test_phase_products_same_bytes_on_one_worker_and_inline(monkeypatch, one_cpu):
    t = GridSpec(2048, 400.0).times()
    x, _ = _gauss_legendre_panels(-0.6, 0.9, 80)
    rng = np.random.default_rng(11)
    cols = rng.standard_normal((4, len(x))) + 1j * rng.standard_normal((4, len(x)))
    pooled = _phase_products(t)(x, cols).tobytes()
    with ThreadPoolExecutor(1) as one_worker:
        monkeypatch.setattr(transforms, "_row_pool", one_worker)
        assert _phase_products(t)(x, cols).tobytes() == pooled
    one_cpu()
    assert _phase_products(t)(x, cols).tobytes() == pooled


def test_density_integral_runs_in_a_forked_child():
    t = GridSpec(256, 60.0).times()
    bump = RaisedCosineBump(0.2, 0.5, 1.0)
    _finishes_in_a_forked_child(lambda: integrate_unweighted(bump, t).tobytes(), "quadrature")


def _band_limited_case(n: int, r: int):
    """An inverter whose support ends at k = n/(2r) - 1, so it runs r rows, and
    values for it; every third bin below is left out."""
    k = np.arange(n // (2 * r))
    k = k[(k % 3 != 1) | (k == k[-1])]
    rng = np.random.default_rng(r)
    values = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    return transforms.band_limited_inverse(k, n, 2.0 * np.pi / 1600.0), values


def _bytes_and_threads(monkeypatch, owner, name, compute):
    """compute() and the threads that called owner.name meanwhile."""
    threads = set()
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    try:
        return compute(), threads
    finally:
        monkeypatch.setattr(owner, name, original)


def _two_inverses(invert, values):
    """The bytes of two calls, the second with other values, so the rows are
    re-zeroed between them."""
    return lambda: invert(values)[0].tobytes() + invert(values[::-1])[0].tobytes()


def _same_bytes_on_two_workers_one_worker_and_inline(monkeypatch, one_cpu, owner, name, compute):
    """compute()'s bytes, which must not change whether its blocks run on two
    workers, one after the other on one, or inline without a pool; returns
    the threads that called owner.name on two workers."""
    monkeypatch.setattr(transforms, "_row_workers", 2)
    with ThreadPoolExecutor(2) as two_workers:
        monkeypatch.setattr(transforms, "_row_pool", two_workers)
        pooled, threads = _bytes_and_threads(monkeypatch, owner, name, compute)
    with ThreadPoolExecutor(1) as one_worker:
        monkeypatch.setattr(transforms, "_row_pool", one_worker)
        assert compute() == pooled
    one_cpu()
    inline, inline_threads = _bytes_and_threads(monkeypatch, owner, name, compute)
    assert inline == pooled and inline_threads == {threading.get_ident()}
    return threads


@pytest.mark.parametrize("r", [8, 16, 64])
def test_band_limited_inverse_same_bytes_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, r):
    # At n = 2**20 the rows split into two groups; the per-row irffts and the
    # transposed copies give the same bytes whether the groups run on two
    # workers, one after the other on one, or inline without a pool.
    invert, values = _band_limited_case(2**20, r)
    monkeypatch.setattr(transforms, "_row_workers", 2)
    assert len(transforms._row_groups(r, (2**19 + r) // transforms._BLOCK_ELEMENTS)) == 2
    threads = _same_bytes_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, np.fft, "irfft", _two_inverses(invert, values))
    assert threads and threading.get_ident() not in threads


@pytest.mark.parametrize("n, inline", [(2**11, True), (2**16, True), (2**17, False)])
def test_small_band_limited_inverses_run_inline(monkeypatch, n, inline):
    # An inverse of fewer than two row blocks (_BLOCK_ELEMENTS values) runs on
    # the calling thread, even with a pool: the n = 2048 configs do.
    invert, values = _band_limited_case(n, 8)
    monkeypatch.setattr(transforms, "_row_workers", 2)
    with ThreadPoolExecutor(2) as two_workers:
        monkeypatch.setattr(transforms, "_row_pool", two_workers)
        threads = _bytes_and_threads(monkeypatch, np.fft, "irfft", _two_inverses(invert, values))[1]
    assert (threads == {threading.get_ident()}) == inline


def test_band_limited_inverse_groups_do_not_race(monkeypatch):
    # Four groups on four workers, more than the machine's CPUs, switching
    # threads every microsecond: each group writes only its own rows and
    # columns, so every call gives the bytes of the inline path.
    invert, values = _band_limited_case(2**18, 16)
    monkeypatch.setattr(transforms, "_row_pool", None)
    expected = invert(values)[0].tobytes()
    monkeypatch.setattr(transforms, "_row_workers", 4)
    assert len(transforms._row_groups(16, (2**17 + 16) // transforms._BLOCK_ELEMENTS)) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as four_workers:
            monkeypatch.setattr(transforms, "_row_pool", four_workers)
            for scale in (1.0, -2.0, 1.0, 0.5, 1.0):
                got = invert(scale * values)[0]
                assert (got / scale).tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, r", [(2**18, 4), (2**20, 16)])
def test_band_limited_inverse_transient_does_not_grow_with_the_workers(monkeypatch, n, r):
    # Beside its samples an inverse holds one M-point output row per group,
    # allocated by the calling thread, and a copy of its values.  The groups
    # are capped at _INVERSE_ROW_BYTES of output rows: at n = 2**20 and
    # r = 16 the rows held 2.1 MB on 4 workers and 4.2 MB on 8 before the
    # cap, and hold 2.1 MB on both now.  Every call gives the inline bytes.
    invert, values = _band_limited_case(n, r)
    monkeypatch.setattr(transforms, "_row_pool", None)
    expected = invert(values)[0].tobytes()
    for workers in (4, 8):
        monkeypatch.setattr(transforms, "_row_workers", workers)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(transforms, "_row_pool", pool)
            invert(values)  # the pool's threads start outside the count
            tracemalloc.start()
            try:
                samples = invert(values)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert samples.tobytes() == expected
        assert peak - samples.nbytes <= transforms._INVERSE_ROW_BYTES + 2 * values.nbytes


def test_band_limited_inverse_runs_in_a_forked_child():
    invert, values = _band_limited_case(2**17, 8)
    _finishes_in_a_forked_child(lambda: invert(values)[0].tobytes(), "band-limited inverse")


def test_map_row_blocks_raises_once_every_task_has_finished(monkeypatch):
    # Block 0 fails at once while block 1 still runs. Executor.map used to
    # hand the caller block 0's error then, and block 1 went on writing into
    # buffers the caller had given up. Of several errors, the lowest
    # block's is raised, however late it comes.
    finished = []

    def task(b):
        if b == 0:
            raise ValueError("block 0")
        time.sleep(0.3)
        finished.append(b)
        if b == 2:
            raise ValueError("block 2")

    def late_failure(b):
        time.sleep(0.3 if b == 1 else 0.0)
        raise ValueError(f"block {b}")

    with ThreadPoolExecutor(2) as two_workers:
        monkeypatch.setattr(transforms, "_row_pool", two_workers)
        with pytest.raises(ValueError, match="^block 0$"):
            transforms._map_row_blocks(task, range(4))
        assert sorted(finished) == [1, 2, 3]
        with pytest.raises(ValueError, match="^block 1$"):
            transforms._map_row_blocks(late_failure, range(1, 4))


# causal_convolve: blocks of L - taps + 1 = 31 769 samples at 1001 taps.
_TAPS = 1001
_CONV_BLOCK = 2**15 - _TAPS + 1


def _convolve(x: np.ndarray, taps: np.ndarray):
    """causal_convolve of x with the lags 0..len(taps) - 1 of `taps`, dt = 1."""
    khat = SampledSignal(0.0, 1.0, np.concatenate((taps, [0.0])))
    return engine.causal_convolve(khat, SampledSignal(0.0, 1.0, x), float(len(taps) - 1))


@pytest.mark.parametrize("blocks", [1, 2, 10])
@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_causal_convolve_same_bytes_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, complex_x, blocks):
    # On two workers 2 blocks make two groups of one and 10 two of five, and
    # each block writes only its own stretch of the output. One block runs
    # inline even with a pool.
    n = (blocks - 1) * _CONV_BLOCK + 7777
    rng = np.random.default_rng(blocks)
    x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_x else 0.0)
    taps = rng.standard_normal(_TAPS)
    threads = _same_bytes_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, np.fft, "ifft" if complex_x else "irfft",
        lambda: _convolve(x, taps).values.tobytes())
    assert (threads == {threading.get_ident()}) == (blocks == 1)


def _raises_on_two_workers_one_worker_and_inline(monkeypatch, one_cpu, compute, error, match):
    monkeypatch.setattr(transforms, "_row_workers", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for workers in (2, 1):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(transforms, "_row_pool", pool)
                with pytest.raises(error, match=match):
                    compute()
        one_cpu()
        with pytest.raises(error, match=match):
            compute()


def test_causal_convolve_non_finite_x_past_a_group_boundary(monkeypatch, one_cpu):
    # Ten blocks on two workers: the second group starts at block 5.
    x = np.ones(9 * _CONV_BLOCK + 777)
    x[5 * _CONV_BLOCK] = math.nan
    _raises_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, lambda: _convolve(x, np.ones(_TAPS)),
        NonFiniteResult, "x has non-finite samples")


@pytest.mark.parametrize("nan_at, match", [(None, "the convolution overflowed"),
                                           (7 * _CONV_BLOCK, "x has non-finite samples")],
                         ids=["overflow", "and-a-later-nan"])
def test_causal_convolve_overflow_at_a_group_boundary(monkeypatch, one_cpu, nan_at, match):
    # x is 1 on the four samples either side of the second group's first
    # sample B: output samples past B sum up to eight of them, and those that
    # sum six or more overflow once the pieces are scaled by 1.5 * 2**1021,
    # while those before B sum at most four and stay finite. A true inverse
    # FFT cannot make such pieces (its unnormalized sum, L times larger,
    # overflows first), so the scaled irfft stands in for one. The overflow
    # is reported on two workers, on one and inline. With a NaN in a later
    # block of that group as well, every path names the NaN: x is checked
    # before any block is convolved, whichever worker would have come to it
    # first.
    boundary = 5 * _CONV_BLOCK
    x = np.zeros(9 * _CONV_BLOCK + 777)
    x[boundary - 4 : boundary + 4] = 1.0
    if nan_at is not None:
        x[nan_at] = math.nan
    irfft = np.fft.irfft

    def scaled(*args, **kwargs):
        piece = irfft(*args, **kwargs)
        piece *= 1.5 * 2.0**1021
        return piece

    monkeypatch.setattr(np.fft, "irfft", scaled)
    _raises_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, lambda: _convolve(x, np.ones(_TAPS)), NonFiniteResult, match)


def test_causal_convolve_runs_in_a_forked_child():
    x = np.random.default_rng(3).standard_normal(3 * _CONV_BLOCK)
    _finishes_in_a_forked_child(lambda: _convolve(x, np.ones(_TAPS)).values.tobytes(),
                                "causal convolution")


@pytest.mark.parametrize("workers", [4, 8])
def test_causal_convolve_runs_at_most_its_group_cap_at_once(monkeypatch, workers):
    # More workers than _CONVOLVE_GROUPS still make that many groups, each
    # with its own buffers, so the memory beyond the output does not grow
    # with the CPUs; the threads switch every microsecond and every call
    # gives the inline bytes.
    x = np.random.default_rng(4).standard_normal(7 * _CONV_BLOCK)
    taps = np.random.default_rng(5).standard_normal(_TAPS)
    monkeypatch.setattr(transforms, "_row_pool", None)
    expected = _convolve(x, taps).values.tobytes()
    monkeypatch.setattr(transforms, "_row_workers", workers)
    tasks = []
    map_row_blocks = engine._map_row_blocks

    def recorded(task, blocks):
        blocks = list(blocks)
        tasks.append(len(blocks))
        return map_row_blocks(task, blocks)

    monkeypatch.setattr(engine, "_map_row_blocks", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(transforms, "_row_pool", pool)
            for _ in range(3):
                assert _convolve(x, taps).values.tobytes() == expected
    finally:
        sys.setswitchinterval(interval)
    assert tasks == [engine._CONVOLVE_GROUPS] * 3
