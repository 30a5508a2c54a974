"""The library's one worker pool and the work that runs on it: the density
quadrature's row blocks and the band-limited inverse's row groups."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bandcast import RaisedCosineBump, transforms
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


def _inverse_bytes_and_threads(monkeypatch, invert, values):
    """The bytes of two calls (the second with other values, so the rows are
    re-zeroed between them) and the threads that ran irfft."""
    threads = set()
    irfft = np.fft.irfft

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded)
    out = invert(values)[0].tobytes() + invert(values[::-1])[0].tobytes()
    monkeypatch.setattr(np.fft, "irfft", irfft)
    return out, threads


@pytest.mark.parametrize("r", [8, 16, 64])
def test_band_limited_inverse_same_bytes_on_two_workers_one_worker_and_inline(
        monkeypatch, one_cpu, r):
    # At n = 2**20 the rows split into two groups; the per-row irffts and the
    # transposed copies give the same bytes whether the groups run on two
    # workers, one after the other on one, or inline without a pool.
    invert, values = _band_limited_case(2**20, r)
    main = threading.get_ident()
    monkeypatch.setattr(transforms, "_row_workers", 2)
    with ThreadPoolExecutor(2) as two_workers:
        monkeypatch.setattr(transforms, "_row_pool", two_workers)
        pooled, threads = _inverse_bytes_and_threads(monkeypatch, invert, values)
    assert len(transforms._row_groups(r, 2**19 + r)) == 2
    assert threads and main not in threads
    with ThreadPoolExecutor(1) as one_worker:
        monkeypatch.setattr(transforms, "_row_pool", one_worker)
        assert _inverse_bytes_and_threads(monkeypatch, invert, values)[0] == pooled
    one_cpu()
    inline, threads = _inverse_bytes_and_threads(monkeypatch, invert, values)
    assert inline == pooled and threads == {main}


@pytest.mark.parametrize("n, inline", [(2**11, True), (2**16, True), (2**17, False)])
def test_small_band_limited_inverses_run_inline(monkeypatch, n, inline):
    # An inverse of fewer than two row blocks (_BLOCK_ELEMENTS values) runs on
    # the calling thread, even with a pool: the n = 2048 configs do.
    invert, values = _band_limited_case(n, 8)
    monkeypatch.setattr(transforms, "_row_workers", 2)
    with ThreadPoolExecutor(2) as two_workers:
        monkeypatch.setattr(transforms, "_row_pool", two_workers)
        threads = _inverse_bytes_and_threads(monkeypatch, invert, values)[1]
    assert (threads == {threading.get_ident()}) == inline


def test_band_limited_inverse_groups_do_not_race(monkeypatch):
    # Four groups on four workers, more than the machine's CPUs, switching
    # threads every microsecond: each group writes only its own rows and
    # columns, so every call gives the bytes of the inline path.
    invert, values = _band_limited_case(2**18, 16)
    monkeypatch.setattr(transforms, "_row_pool", None)
    expected = invert(values)[0].tobytes()
    monkeypatch.setattr(transforms, "_row_workers", 4)
    assert len(transforms._row_groups(16, 2**17 + 16)) == 4
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


def test_band_limited_inverse_runs_in_a_forked_child():
    invert, values = _band_limited_case(2**17, 8)
    _finishes_in_a_forked_child(lambda: invert(values)[0].tobytes(), "band-limited inverse")
