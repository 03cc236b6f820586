"""Command-line process settings."""

import ctypes

import pytest

from ndfreg import cli

_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_getters():
    getters = []
    for path in cli.loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                getters.append(getter)
                break
    return getters


def test_threads_option_pins_the_loaded_openblas(monkeypatch, tmp_path):
    """numpy, and with it OpenBLAS, is loaded before `main` parses
    --threads, so the count must reach the loaded library, not only the
    environment."""
    getters = _openblas_getters()
    if not getters:
        pytest.skip("no loaded OpenBLAS exports a thread-count getter")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    before = [get() for get in getters]
    try:
        rc = cli.main(["phantom", "--out", str(tmp_path), "--dims", "4,4,4",
                       "--times", "0,12", "--threads", "1"])
        assert rc == cli.EXIT_OK
        assert [get() for get in getters] == [1] * len(getters)
    finally:
        cli.pin_blas_threads(before[0])
