"""Command-line process settings and input checks at the boundary."""

import ctypes
import os
import platform
import subprocess
import sys

import pytest

import ndfreg
from ndfreg import cli, network

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


def _tiny_model(tmp_path):
    from ndfreg import fileio, network

    config = network.NetworkConfig(
        hidden_width=4, depth=3, time_hidden_width=2, time_embed_width=2
    )
    path = str(tmp_path / "model.ndf")
    fileio.save_model(path, network.init_network(seed=0, config=config))
    return path


@pytest.mark.parametrize("command, extra", [
    ("predict", ["--time", "1"]),
    ("jacobian", ["--times", "1"]),
])
def test_dims_below_two_is_input_error(tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    rc = cli.main([command, "--model", _tiny_model(tmp_path), *extra,
                   "--dims", "0,4,4", "--out", str(out)])
    assert rc == cli.EXIT_INPUT
    assert "--dims entries must be >= 2" in capsys.readouterr().err
    assert not any(p.suffix == ".raw" for p in out.iterdir())


def test_threads_below_one_is_input_error(monkeypatch, tmp_path, capsys):
    """Rejected before the environment or any OpenBLAS is touched."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)

    def refuse(n):
        raise AssertionError(f"pin_blas_threads({n}) called")

    monkeypatch.setattr(cli, "pin_blas_threads", refuse)
    rc = cli.main(["phantom", "--out", str(tmp_path), "--dims", "4,4,4",
                   "--times", "0,12", "--threads", "0"])
    assert rc == cli.EXIT_INPUT
    assert "--threads must be >= 1" in capsys.readouterr().err
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert var not in os.environ
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--log-every", "0", "log_every must be >= 1"),
    ("--checkpoint-every", "-1", "checkpoint_every must be >= 0"),
])
def test_fit_bad_period_is_input_error(tmp_path, capsys, flag, value, message):
    data = tmp_path / "data"
    assert cli.main(["phantom", "--out", str(data), "--dims", "4,4,4",
                     "--times", "0,12"]) == cli.EXIT_OK
    out = tmp_path / "fit"
    rc = cli.main(["fit", "--manifest", str(data / "manifest.txt"), "--out", str(out),
                   "--iterations", "2", "--batch-points", "8", "--hidden-width", "4",
                   "--depth", "3", "--time-hidden-width", "2", "--time-embed-width", "2",
                   flag, value])
    assert rc == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (out / "model.ndf").exists()


# one cycle of three BLOCK_BYTES arrays, as an inference chunk allocates
# and frees them; prints minor page faults per cycle after a warm-up
_CHUNK_CYCLES = """
import resource
import numpy as np
from ndfreg import cli, network

print(cli.keep_freed_heap())
n = network.BLOCK_BYTES // 8


def cycle():
    a = np.ones(n)
    b = np.ones(n)
    c = a + b
    del a, b, c


for _ in range(3):
    cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_heap_policy_reuses_freed_chunk_arrays():
    """Under glibc's defaults each cycle faults about 1500 times, as its
    arrays are mmapped or trimmed off the heap top when freed; with the
    policy the freed heap is reused and a cycle faults (almost) never."""
    src = os.path.dirname(os.path.dirname(ndfreg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CHUNK_CYCLES], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 100


def test_chunk_arrays_stay_below_the_mmap_threshold():
    """An inference block above the threshold would be mmapped again and
    fault on every chunk."""
    assert network.BLOCK_BYTES < cli.HEAP_MMAP_THRESHOLD


@pytest.mark.parametrize("argv", [
    ["fit", "--manifest", "{tmp}/missing.txt", "--out", "{tmp}/out"],
    ["predict", "--model", "{tmp}/missing.ndf", "--time", "1", "--out", "{tmp}/out"],
    ["jacobian", "--model", "{tmp}/missing.ndf", "--times", "1", "--out", "{tmp}/out"],
    ["metrics", "--model", "{tmp}/missing.ndf", "--manifest", "{tmp}/missing.txt",
     "--times", "0", "--out", "{tmp}/out"],
    ["phantom", "--dims", "4,4,4", "--times", "0,12", "--out", "{tmp}/out"],
    ["gradcheck", "--threads", "0"],
    ["no-such-command"],
], ids=["fit", "predict", "jacobian", "metrics", "phantom", "gradcheck", "bad-command"])
def test_main_sets_the_heap_policy_once(monkeypatch, tmp_path, argv):
    """Once per command, before parsing, whether it succeeds, exits with
    an input error or is refused by the parser."""
    calls = []
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append(1) or True)
    try:
        rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == (cli.EXIT_OK if argv[0] == "phantom" else cli.EXIT_INPUT)
    assert calls == [1]


def test_metrics_holdout_writes_its_report(tmp_path):
    """`metrics --holdout` refits without the held-out scan and writes one
    row per label: its held-out Dice and mean |residual| of |J|."""
    import csv
    import math

    ph, fit, met = (str(tmp_path / d) for d in ("phantom", "fit", "metrics"))
    knobs = ["--iterations", "3", "--hidden-width", "8", "--depth", "3",
             "--batch-points", "128"]
    assert cli.main(["phantom", "--out", ph, "--preset", "clean", "--dims", "8,8,8"]) == 0
    manifest = os.path.join(ph, "manifest.txt")
    assert cli.main(["fit", "--manifest", manifest, "--out", fit, *knobs]) == cli.EXIT_OK
    rc = cli.main(["metrics", "--model", os.path.join(fit, "model.ndf"),
                   "--manifest", manifest, "--out", met, "--times", "0,12,24,36",
                   "--holdout", "24", *knobs])
    assert rc == cli.EXIT_OK
    with open(os.path.join(met, "holdout_report.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == ["label", "dice_holdout", "residual_mean_abs"]
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.values())


def test_fit_defaults_match_fit_config(tmp_path):
    """`_FIT_OPTIONS` repeats the defaults of FitConfig, LossWeights and
    NetworkConfig; a bare `fit` must build the same config."""
    from ndfreg.trainer import FitConfig

    args = cli.build_parser().parse_args(
        ["fit", "--manifest", str(tmp_path / "manifest.txt"), "--out", str(tmp_path)]
    )
    assert cli._fit_config_from(cli.resolve_options(args, cli._FIT_OPTIONS)) == FitConfig()
