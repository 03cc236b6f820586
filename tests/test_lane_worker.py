"""The fit's lane worker: the process `trainer.fit` forks on two workers or
more to sweep lane 1 of every step.  It is reaped on every way out of
`fit`, its errors come back with their type and message, it dies with a
killed fit, the returned state owns plain arrays, and the report's peak
RSS covers it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ndfreg import losses, trainer

from test_trainer import quick_config, tiny_series


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process forked during the test, in order."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:  # not a child any more: reaped
        return True
    return False


def _fail_in(monkeypatch, segment, error):
    """Make the loss segment `segment` raise `error`."""
    build = trainer.build_total_loss

    def failing(*args):
        if args[-1] == segment:
            raise error
        return build(*args)

    monkeypatch.setattr(trainer, "build_total_loss", failing)


def test_worker_is_reaped_when_fit_returns(forks):
    """On two workers a fit forks one worker, reaps it before it returns,
    and returns a state that owns plain arrays, not views of the shared
    map, with the model of a one-worker fit."""
    cfg = quick_config(iterations=3)
    want, _ = trainer.fit(tiny_series(), cfg)
    assert forks == []
    state, report = trainer.fit(tiny_series(), cfg, workers=2)
    assert len(forks) == 1 and _reaped(forks[0])
    assert all(a.base is None and a.flags.writeable for a in state.param_arrays())
    assert report.final_checksum == want.checksum()


def test_no_worker_without_a_second_lane(forks):
    """A step with no grid regularizer has one segment, hence one lane, and
    a fit forks no worker for it."""
    cfg = quick_config(iterations=2, weights=losses.LossWeights(alpha=0.0, beta=0.0, gamma=0.0))
    assert trainer._loss_chunks(cfg.weights, cfg.network, cfg.batch_points, 3, np.float64) == []
    trainer.fit(tiny_series(), cfg, workers=2)
    assert forks == []


def test_worker_is_reaped_on_a_numerical_abort(forks):
    """A diverging fit raises NumericalAbortError on two workers too, after
    the worker, which overflowed under the error state it was forked
    with, is reaped."""
    bad = quick_config(iterations=5, learning_rate=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(trainer.NumericalAbortError, match="non-finite"):
            trainer.fit(tiny_series(), bad, workers=2)
    assert len(forks) == 1 and _reaped(forks[0])


def test_a_failing_worker_lane_is_re_raised_after_the_reap(monkeypatch, forks):
    """A segment of lane 1 that raises in the worker makes `fit` raise the
    same type with the same message, with the worker already reaped."""
    _fail_in(monkeypatch, slice(0, 64), ValueError("lane 1 failed"))
    with pytest.raises(ValueError) as info:
        trainer.fit(tiny_series(), quick_config(iterations=2), workers=2)
    assert len(forks) == 1 and _reaped(forks[0])
    assert str(info.value) == "lane 1 failed"
    if hasattr(info.value, "__notes__"):  # the worker's traceback, where notes exist
        assert "in the fit lane worker" in info.value.__notes__[0]


class _Unpicklable(Exception):
    def __init__(self, detail, extra):  # pickle calls cls(*args) with one arg
        super().__init__(detail)
        self.extra = extra


def test_an_unpicklable_worker_error_comes_back_as_its_repr(monkeypatch, forks):
    """An error that does not survive pickling comes back as a RuntimeError
    that carries its repr."""
    _fail_in(monkeypatch, slice(0, 64), _Unpicklable("odd", extra=1))
    with pytest.raises(RuntimeError, match=r"_Unpicklable\('odd'\)"):
        trainer.fit(tiny_series(), quick_config(iterations=2), workers=2)
    assert len(forks) == 1 and _reaped(forks[0])


def test_worker_is_reaped_on_an_interrupt_in_lane_zero(monkeypatch, forks):
    """A KeyboardInterrupt in the calling process's lane, while the worker
    may still be sweeping, reaches the caller of `fit` with the worker
    killed and reaped."""
    _fail_in(monkeypatch, losses.SIMILARITY, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        trainer.fit(tiny_series(), quick_config(iterations=2), workers=2)
    assert len(forks) == 1 and _reaped(forks[0])


_KILLED_FIT = """
import os, sys
sys.path[:0] = sys.argv[1:3]
from ndfreg import trainer
from test_trainer import quick_config, tiny_series

fork = os.fork

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced
trainer.fit(tiny_series(), quick_config(iterations=10**6), workers=2)
"""


def _running(pid) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_killed_fit_leaves_no_worker_running():
    """SIGKILL to a fitting process, which runs no handler, still ends its
    worker: the worker's command pipe ends with the process."""
    paths = [str(Path(trainer.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_FIT, *paths],
                            stdout=subprocess.PIPE, env=env)
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.3)  # some steps in
        assert _running(pid)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 20
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("caller_kb", [1, 10**9])
def test_peak_rss_is_the_larger_of_both_processes(monkeypatch, process_log, caller_kb):
    """On two workers the report's peak RSS is the larger of the calling
    process's and the worker's, whose own reading comes back with each
    lane: with the caller's reading faked to 1 KiB the report reads the
    worker's, and with it faked to 10^9 KiB the caller's."""
    caller, peak = os.getpid(), trainer._peak_rss_kb

    def faked():
        if os.getpid() == caller:
            return caller_kb
        got = peak()
        process_log.write(got)
        return got

    monkeypatch.setattr(trainer, "_peak_rss_kb", faked)
    _, report = trainer.fit(tiny_series(), quick_config(iterations=3), workers=2)
    (worker_kb,) = {max(int(kb) for (kb,) in lines)
                    for pid, lines in process_log.by_process().items()}
    assert 1 < worker_kb < 10**9
    assert report.peak_rss_mb == max(caller_kb, worker_kb) / 1024.0


def test_peak_rss_on_one_worker_is_the_callers(monkeypatch):
    """On one worker no process is forked and the report's peak RSS is the
    calling process's own."""
    monkeypatch.setattr(trainer, "_peak_rss_kb", lambda: 123456)
    _, report = trainer.fit(tiny_series(), quick_config(iterations=3), workers=1)
    assert report.peak_rss_mb == 123456 / 1024.0
