"""Command-line process settings and input checks at the boundary."""

import ctypes
import os
import pathlib
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


# the smallest phantom grid whose labels hold a structure for `metrics`
# to score (a 4^3 phantom's labels are all background)
_LABELLED = "5,5,5"


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


def test_phantom_manifest_months_equal_the_truth(tmp_path, capsys):
    """The fit trains at the months the ground truth uses: `manifest.txt`
    keeps every digit of `--times`, as `truth.json` does; then a fit of
    it prints its point chunks and the similarity and largest regularizer
    segment tapes."""
    import json

    from ndfreg import fileio

    data = tmp_path / "data"
    assert cli.main(["phantom", "--out", str(data), "--dims", "4,4,4",
                     "--times", "0,12.3456789,36"]) == cli.EXIT_OK
    truth = json.loads((data / "truth.json").read_text())["times"]
    months = [m for m, _, _ in fileio.read_manifest(str(data / "manifest.txt"))]
    assert months == truth == [0.0, 12.3456789, 36.0]
    assert cli.main(["fit", "--manifest", str(data / "manifest.txt"),
                     "--out", str(tmp_path / "fit"), "--iterations", "1",
                     "--batch-points", "8", "--hidden-width", "4", "--depth", "3",
                     "--time-hidden-width", "2", "--time-embed-width", "2"]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "1 point chunks of up to 8 points, similarity segment tape " in err
    assert " MiB, largest regularizer segment tape " in err


@pytest.mark.parametrize("flag, value, message", [
    ("--log-every", "0", "log_every must be >= 1"),
    ("--checkpoint-every", "-1", "checkpoint_every must be >= 0"),
    # NaN passes every < check: each number of the fit, weights and network
    # configs must be finite, and the learning rate and a given horizon > 0
    ("--lambda", "nan", "lam must be finite"),
    ("--gamma", "inf", "gamma must be finite"),
    ("--t-extrap", "nan", "t_extrap must be finite"),
    ("--t-extrap", "inf", "t_extrap must be finite"),
    ("--time-horizon", "0", "time_horizon must be > 0"),
    ("--time-horizon", "inf", "time_horizon must be finite"),
    ("--time-horizon", "nan", "time_horizon must be finite"),
    ("--learning-rate", "0", "learning_rate must be > 0"),
    ("--learning-rate", "-1", "learning_rate must be > 0"),
    ("--learning-rate", "nan", "learning_rate must be finite"),
    ("--omega0", "inf", "omega0 must be finite"),
    ("--leaky-slope", "nan", "leaky_slope must be finite"),
    # numpy's generator refused it with a bare "expected non-negative integer"
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_fit_bad_period_is_input_error(tmp_path, capsys, flag, value, message):
    """A fit option no fit can use is an input error naming its field,
    raised before anything is written."""
    data = tmp_path / "data"
    assert cli.main(["phantom", "--out", str(data), "--dims", "4,4,4",
                     "--times", "0,12"]) == cli.EXIT_OK
    out = tmp_path / "fit"
    rc = cli.main(["fit", "--manifest", str(data / "manifest.txt"), "--out", str(out),
                   "--iterations", "2", "--batch-points", "8", "--hidden-width", "4",
                   "--depth", "3", "--time-hidden-width", "2", "--time-embed-width", "2",
                   flag, value])
    assert rc == cli.EXIT_INPUT
    assert f"ndfreg: {message}" in capsys.readouterr().err
    assert not (out / "model.ndf").exists() and not (out / "report.csv").exists()


# one cycle of three CHUNK_BYTES arrays, as a chunk allocates
# and frees them; prints minor page faults per cycle after a warm-up
_CHUNK_CYCLES = """
import resource
import numpy as np
from ndfreg import cli, network

print(cli.keep_freed_heap())
n = network.CHUNK_BYTES // 8


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
    """Under glibc's defaults each cycle faults about 740 times, as its
    arrays are mmapped or trimmed off the heap top when freed; with the
    policy the freed heap is reused and a cycle faults (almost) never."""
    src = os.path.dirname(os.path.dirname(ndfreg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CHUNK_CYCLES], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 100


# runs `jacobian` on a saved model; prints the exit code and whether
# OpenSSL's `_hashlib` was imported
_JACOBIAN_MODULES = """
import sys
from ndfreg import cli

rc = cli.main(["jacobian", "--model", sys.argv[1], "--times", "1", "--dims", "4,4,4",
               "--out", sys.argv[2]])
print(rc, "_hashlib" in sys.modules)
"""


def test_jacobian_loads_no_openssl(tmp_path):
    """The model checksum uses the built-in SHA-256, so an inference
    command never imports `_hashlib`, which maps OpenSSL's libcrypto (about
    3.5 MB of RSS)."""
    src = os.path.dirname(os.path.dirname(ndfreg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _JACOBIAN_MODULES, _tiny_model(tmp_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == [str(cli.EXIT_OK), "False"]


def test_chunk_arrays_stay_below_the_mmap_threshold():
    """A jet block above the threshold would be mmapped again and fault on
    every chunk or segment."""
    assert network.CHUNK_BYTES < cli.HEAP_MMAP_THRESHOLD


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
    row per label: its held-out Dice and mean |residual| of |J|.  The
    residual map is the refit's |J| minus the full fit's, bit for bit, as
    an in-process refit with the same configuration gives them."""
    import csv
    import math

    import numpy as np

    from ndfreg import fileio, trainer
    from ndfreg.volume import Volume4DSeries

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

    series = fileio.load_series(manifest)
    reduced = Volume4DSeries(series.baseline, [(m, v) for m, v in series.followups if m != 24],
                             labels=series.labels)
    config = trainer.FitConfig(iterations=3, batch_points=128, time_horizon=max(series.times),
                               network=network.NetworkConfig(hidden_width=8, depth=3))
    refit, _ = trainer.fit(reduced, config)
    full = fileio.load_model(os.path.join(fit, "model.ndf"))
    dims = series.baseline.dims
    want = (trainer.predict_field(refit, 24.0, dims).jac_det
            - trainer.predict_field(full, 24.0, dims).jac_det)
    got, _ = fileio._read_raw_array(os.path.join(met, "holdout_residual_jac.raw"))
    assert got.tobytes() == want.tobytes()
    base_labels = series.labels[0.0]
    for row in rows:
        core = base_labels == int(row["label"])
        assert float(row["residual_mean_abs"]) == float(np.abs(want[core]).mean())


def _refused(capsys, argv, flag):
    """Run `argv`: exit 2, by the parser or by the command, naming `flag`."""
    capsys.readouterr()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == cli.EXIT_INPUT
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--slice-axis", "w", "--slice-index", "0"], "--slice-axis"),
    (["--slice-index", "4"], "--slice-index"),
    (["--slice-axis", "x", "--slice-index", "-1"], "--slice-index"),
    (["--slice-index", "0", "--range", "1.5,0.5"], "--range"),
    (["--slice-index", "0", "--range", "0.5"], "--range"),
    (["--slice-index", "0", "--range", "nan,1"], "--range"),
    (["--slice-axis", "x"], "--slice-axis"),
    (["--range", "0.5,1.5"], "--range"),
], ids=["axis-w", "index-past-end", "index-negative", "range-reversed", "range-one",
        "range-nan", "axis-without-index", "range-without-index"])
def test_jacobian_bad_slice_flags_are_refused(tmp_path, capsys, flags, named):
    """A slice flag that makes no image is an input error that names it,
    raised before any map is written."""
    out = tmp_path / "out"
    _refused(capsys, ["jacobian", "--model", _tiny_model(tmp_path), "--times", "12",
                      "--dims", "4,4,4", "--out", str(out), *flags], named)
    assert not list(out.glob("*.raw"))


@pytest.mark.parametrize("flags, named", [
    (["--slice-axis", "w", "--slice-index", "99"], "--slice-axis"),
    (["--slice-axis", "x"], "--holdout"),
    (["--slice-index", "1"], "--holdout"),
    (["--holdout", "12", "--slice-axis", "w", "--slice-index", "1"], "--slice-axis"),
    (["--holdout", "12", "--slice-index", "99"], "--slice-index"),
    (["--holdout", "12", "--slice-axis", "y"], "--slice-axis"),
], ids=["axis-w", "axis-without-holdout", "index-without-holdout", "holdout-axis-w",
        "holdout-index-past-end", "holdout-axis-without-index"])
def test_metrics_bad_slice_flags_are_refused(tmp_path, capsys, flags, named):
    """`metrics` takes its slice flags only with --holdout, and refuses a
    bad one before anything is evaluated, the refit included."""
    ph, out = str(tmp_path / "phantom"), tmp_path / "out"
    assert cli.main(["phantom", "--out", ph, "--dims", _LABELLED, "--times", "0,12,24"]) == 0
    refit = ["--iterations", "1", "--batch-points", "8", "--hidden-width", "4",
             "--depth", "3"] if "--holdout" in flags else []
    _refused(capsys, ["metrics", "--model", _tiny_model(tmp_path), "--out", str(out),
                      "--manifest", os.path.join(ph, "manifest.txt"), "--times", "0,12",
                      *refit, *flags], named)
    assert not list(out.glob("*"))


@pytest.mark.parametrize("times, holdout, message", [
    ("0,12,24", "99", "--holdout 99.0: no scan at that time"),
    ("0,12", "12", "cannot hold out the only follow-up"),
], ids=["no-scan", "only-followup"])
def test_metrics_refuses_a_bad_holdout_before_writing(tmp_path, capsys, times, holdout,
                                                      message):
    """A --holdout month with no follow-up scan, or the only follow-up, is
    an input error raised before anything is evaluated or written."""
    ph, out = str(tmp_path / "phantom"), tmp_path / "out"
    assert cli.main(["phantom", "--out", ph, "--dims", _LABELLED, "--times", times]) == 0
    capsys.readouterr()
    assert cli.main(["metrics", "--model", _tiny_model(tmp_path), "--out", str(out),
                     "--manifest", os.path.join(ph, "manifest.txt"), "--times", "0,12",
                     "--holdout", holdout]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (out / "structure_metrics.csv").exists()


@pytest.mark.parametrize("flags, named", [
    (["--times", "12"], "--times"),
    (["--times", "0,12", "--label-ids", "1,99"], "--label-ids 99"),
], ids=["one-month", "absent-label"])
def test_metrics_holdout_refuses_bad_structure_args_before_the_refit(tmp_path, capsys, flags,
                                                                      named):
    """A --times grid of one month, or a --label-ids id that the baseline
    labels lack, is an input error naming it, raised before the held-out
    refit runs or writes anything."""
    ph, out = str(tmp_path / "phantom"), tmp_path / "out"
    assert cli.main(["phantom", "--out", ph, "--dims", "8,8,8", "--times", "0,12,24"]) == 0
    _refused(capsys, ["metrics", "--model", _tiny_model(tmp_path), "--out", str(out),
                      "--manifest", os.path.join(ph, "manifest.txt"), "--holdout", "12",
                      "--iterations", "1", "--batch-points", "8", *flags], named)
    assert not list(out.glob("*"))


@pytest.mark.parametrize("flags, field", [
    (["--times", "0,inf"], "times"),
    (["--times", "0,12,nan"], "times"),
    (["--growth", "nan"], "growth"),
    (["--sigma", "nan"], "sigma"),
    (["--edge-width", "0"], "edge_width"),
    (["--ring-period", "0"], "ring_period"),
    (["--dims", "4,4"], "dims"),
], ids=["times-inf", "times-nan", "growth-nan", "sigma-nan", "edge-width-0",
        "ring-period-0", "dims-two"])
def test_phantom_unusable_spec_is_input_error(tmp_path, capsys, flags, field):
    """`PhantomSpec.validate` refuses a spec whose outputs no command could
    use, naming the field, before anything is written."""
    out = tmp_path / "out"
    rc = cli.main(["phantom", "--out", str(out), "--dims", "4,4,4", "--times", "0,12",
                   *flags])
    assert rc == cli.EXIT_INPUT
    assert f"ndfreg: {field} must " in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("flags, named", [
    (["--config", "absent.ini"], "--config"),
    (["--iterations", "5"], "--iterations"),
    (["--lambda", "2"], "--lambda"),
    (["--hidden-width", "8"], "--hidden-width"),
], ids=["config", "fit", "weights", "network"])
def test_metrics_refuses_fit_options_without_holdout(tmp_path, capsys, flags, named):
    """Only the held-out refit reads --config and the fit, weights and
    network flags; without --holdout each is an input error that names it,
    raised before anything is written."""
    ph, met = str(tmp_path / "phantom"), tmp_path / "metrics"
    assert cli.main(["phantom", "--out", ph, "--dims", _LABELLED, "--times", "0,12"]) == 0
    argv = ["metrics", "--model", _tiny_model(tmp_path), "--out", str(met),
            "--manifest", os.path.join(ph, "manifest.txt"), "--times", "0,12"]
    capsys.readouterr()
    assert cli.main(argv + flags) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("ndfreg: metrics: ") and named in err and "--holdout" in err
    assert not (met / "structure_metrics.csv").exists()
    assert cli.main(argv) == cli.EXIT_OK  # the same command without the flag runs


class _Built(Exception):
    """Raised in place of running a command; carries the config it built."""


@pytest.fixture
def build(monkeypatch, tmp_path):
    """`build(command, flags, ini=None)`: the FitConfig that `fit` or the
    PhantomSpec that `phantom` builds from `ini` (INI text, passed with
    --config) and `flags`, caught before it is fitted or generated; the
    exit code if the command stops before that."""
    from ndfreg import phantom, trainer

    data = tmp_path / "data"
    assert cli.main(["phantom", "--out", str(data), "--dims", "4,4,4",
                     "--times", "0,12"]) == cli.EXIT_OK

    def stop(*args, **kwargs):
        raise _Built(args[-1])

    monkeypatch.setattr(trainer, "fit", stop)
    monkeypatch.setattr(phantom, "generate_phantom", stop)

    def run(command, flags, ini=None):
        argv = [command, "--out", str(tmp_path / "out"), *flags]
        if command == "fit":
            argv += ["--manifest", str(data / "manifest.txt")]
        if ini is not None:
            (tmp_path / "config.ini").write_text(ini)
            argv += ["--config", str(tmp_path / "config.ini")]
        try:
            return cli.main(argv)
        except _Built as built:
            return built.args[0]

    return run


def test_fit_defaults_match_fit_config(build):
    """A bare `fit` builds FitConfig's defaults, nested LossWeights and
    NetworkConfig included; only the checkpoint directory is --out."""
    import dataclasses

    from ndfreg.trainer import FitConfig

    config = build("fit", [])
    assert dataclasses.replace(config, checkpoint_dir=None) == FitConfig()


# (command, INI section, key, the field read off the built config, INI text
#  and the value it gives, INI text with flags and the value they give)
_LAYERS = [
    ("fit", "fit", "learning_rate", lambda c: c.learning_rate,
     ("0.002", 0.002), ("0.002", ["--learning-rate", "0.003"], 0.003)),
    ("fit", "fit", "reg_grid", lambda c: c.reg_time_grid_size,
     ("5", 5), ("5", ["--reg-grid", "6"], 6)),
    ("fit", "fit", "seed", lambda c: c.seed,
     ("5", 5), ("5", ["--seed", "6"], 6)),
    ("fit", "weights", "lam", lambda c: c.weights.lam,
     ("3.5", 3.5), ("3.5", ["--lambda", "4.5"], 4.5)),
    ("fit", "weights", "alpha", lambda c: c.weights.alpha,
     ("0.5", 0.5), ("0.5", ["--alpha", "0.25"], 0.25)),
    ("fit", "network", "hidden_width", lambda c: c.network.hidden_width,
     ("24", 24), ("24", ["--hidden-width", "40"], 40)),
    ("phantom", "phantom", "ring_period", lambda s: s.ring_period,
     ("0.25", 0.25), ("0.25", ["--ring-period", "0.3"], 0.3)),
    ("phantom", "phantom", "times", lambda s: s.times,
     ("0,6,18", (0.0, 6.0, 18.0)), ("0,6,18", ["--times", "0,12"], (0.0, 12.0))),
    ("phantom", "phantom", "sigma", lambda s: s.sigma,
     ("0.1", 0.1), ("0.1", ["--sigma", "0.2"], 0.2)),
    ("phantom", "phantom", "seed", lambda s: s.seed,
     ("5", 5), ("5", ["--seed", "6"], 6)),
]


@pytest.mark.parametrize("command, section, key, read, ini_only, ini_and_flag", _LAYERS,
                         ids=[f"{row[1]}.{row[2]}" for row in _LAYERS])
def test_options_layer_defaults_config_then_flags(build, command, section, key,
                                                   read, ini_only, ini_and_flag):
    """An option set nowhere keeps its dataclass default; the --config INI
    overrides the default, and a flag overrides the INI."""
    from ndfreg.phantom import PhantomSpec
    from ndfreg.trainer import FitConfig

    default = FitConfig() if command == "fit" else PhantomSpec()
    assert read(build(command, [])) == read(default)
    text, want = ini_only
    assert read(build(command, [], f"[{section}]\n{key} = {text}\n")) == want
    text, flags, want = ini_and_flag
    assert read(build(command, flags, f"[{section}]\n{key} = {text}\n")) == want


def test_percent_in_a_config_path_is_literal(build, tmp_path):
    """INI values are read without interpolation: `%` in a mask path is
    part of the file name."""
    import shutil

    mask = tmp_path / "%subj.raw"
    shutil.copy(tmp_path / "data" / "labels_00.raw", mask)
    config = build("fit", [], f"[fit]\nmask = {mask}\n")
    assert config.mask is not None and config.mask.shape == (4, 4, 4)


@pytest.mark.parametrize("ini, message", [
    ("iterations = 3\n", "no section headers"),
    (None, "config file"),
    ("[fit]\niterations = 3\n[fit]\nseed = 1\n", "already exists"),
], ids=["no-section-header", "directory", "duplicate-section"])
def test_unreadable_config_is_input_error(tmp_path, capsys, ini, message):
    config = tmp_path / "config.ini"
    if ini is None:
        config.mkdir()
    else:
        config.write_text(ini)
    rc = cli.main(["phantom", "--out", str(tmp_path / "out"), "--dims", "4,4,4",
                   "--times", "0,12", "--config", str(config)])
    assert rc == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("ndfreg: ") and message in err
    assert not (tmp_path / "out" / "manifest.txt").exists()


@pytest.mark.parametrize("command, ini, key", [
    ("phantom", "[phantom]\nsigmaa = 0.3\n", "sigmaa"),
    ("fit", "[weights]\nlamda = 1\n", "lamda"),
    ("fit", "[network]\nwidth = 8\n", "width"),
    ("fit", "[fit]\nreg_time_grid_size = 4\n", "reg_time_grid_size"),
    ("fit", "[fit]\noptimizer = adam\n", "optimizer"),
    ("fit", "[network]\nconcat_every_layer = yes\n", "concat_every_layer"),
], ids=["phantom", "weights", "network", "fit-field-name", "retired-fit", "retired-network"])
def test_unknown_config_key_is_input_error(build, capsys, command, ini, key):
    """A key that no option reads, in a section the command reads, is
    rejected and named."""
    capsys.readouterr()
    assert build(command, [], ini) == cli.EXIT_INPUT
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, ini, where", [
    ("fit", "[fit]\niterations = abc\n", "[fit] iterations: "),
    ("phantom", "[phantom]\ndims = 4,x,4\n", "[phantom] dims: "),
], ids=["int", "ints"])
def test_bad_config_value_names_its_key(build, tmp_path, capsys, command, ini, where):
    """A value its converter rejects is an input error that names the file,
    the section and the key."""
    capsys.readouterr()
    assert build(command, [], ini) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"ndfreg: config file {tmp_path / 'config.ini'}: {where}")


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "m.ndf", "--time", "1", "--out", "o", "--config", "c.ini"],
    ["predict", "--model", "m.ndf", "--time", "1", "--out", "o", "--seed", "5"],
    ["jacobian", "--model", "m.ndf", "--times", "1", "--out", "o", "--config", "c.ini"],
    ["jacobian", "--model", "m.ndf", "--times", "1", "--out", "o", "--seed", "5"],
    ["gradcheck", "--config", "c.ini"],
    ["gradcheck", "--out", "o"],
], ids=["predict-config", "predict-seed", "jacobian-config", "jacobian-seed",
        "gradcheck-config", "gradcheck-out"])
def test_flags_a_command_does_not_read_are_refused(monkeypatch, tmp_path, capsys, argv):
    """A command takes only the flags it reads: the parser refuses the rest
    with exit 2 before anything runs."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_NEEDS = {
    "predict": ["--time", "1", "--dims", "4,4,4"],
    "jacobian": ["--times", "1", "--dims", "4,4,4"],
    "metrics": ["--manifest", "manifest.txt", "--times", "0,12"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("predict", "--time", "nan"),
    ("predict", "--time", "inf"),
    ("jacobian", "--times", "nan,12"),
    ("metrics", "--times", "-12,0"),
    ("metrics", "--deadband", "-1"),
], ids=["predict-time-nan", "predict-time-inf", "jacobian-times-nan",
        "metrics-times-negative", "metrics-deadband-negative"])
def test_time_or_deadband_not_finite_and_nonnegative_is_refused(
        monkeypatch, tmp_path, capsys, command, flag, value):
    """A time or a dead band must be a finite number >= 0: the parser
    refuses any other with exit 2, naming its flag, before anything is
    read or written (a NaN time wrote NaN volumes, a negative dead band
    scored every label 0)."""
    monkeypatch.chdir(tmp_path)
    model = _tiny_model(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--model", model, "--out", "o", *_NEEDS[command], f"{flag}={value}"])
    assert exited.value.code == cli.EXIT_INPUT
    assert f"argument {flag}: must be a finite number >= 0, got " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_config_serves_phantom_and_fit(build):
    """Each command reads its own sections and leaves the others' alone;
    a [DEFAULT] key applies in every section whose options read it."""
    ini = ("[DEFAULT]\nseed = 3\n[phantom]\nsigma = 0.1\n[fit]\niterations = 3\n"
           "[network]\ndepth = 4\n")
    spec = build("phantom", [], ini)
    assert (spec.sigma, spec.seed) == (0.1, 3)
    config = build("fit", [], ini)
    assert (config.iterations, config.network.depth, config.seed) == (3, 4, 3)


def test_preset_and_sigma_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exited:
        cli.main(["phantom", "--out", str(tmp_path), "--dims", "4,4,4",
                  "--preset", "clean", "--sigma", "0.2"])
    assert exited.value.code == cli.EXIT_INPUT
    assert not (tmp_path / "manifest.txt").exists()


def _echo(out):
    import configparser

    ini = configparser.ConfigParser(interpolation=None)
    ini.read(os.path.join(out, "config.echo.ini"))
    return dict(ini["resolved"])


def test_echo_writes_every_resolved_option(tmp_path):
    """Each command echoes all the values it resolved, the alphabetically
    first included."""
    from ndfreg.phantom import PhantomSpec

    ph, fit, out = (str(tmp_path / d) for d in ("phantom", "fit", "out"))
    assert cli.main(["phantom", "--out", ph, "--dims", "8,8,8", "--times", "0,12"]) == 0
    spec = PhantomSpec()
    assert _echo(ph) == {"dims": "8,8,8", "times": "0.0,12.0", **{
        key: str(getattr(spec, key)) for key in
        ("sigma", "growth", "radius", "edge_width", "ring_amplitude", "ring_period", "seed")
    }}
    manifest = os.path.join(ph, "manifest.txt")
    assert cli.main(["fit", "--manifest", manifest, "--out", fit, "--iterations", "0",
                     "--alpha", "0.5", "--hidden-width", "4", "--depth", "3"]) == 0
    echo = _echo(fit)
    assert (len(echo), echo["alpha"], echo["hidden_width"], echo["mask"]) == (
        21, "0.5", "4", "None")
    model = os.path.join(fit, "model.ndf")
    assert cli.main(["predict", "--model", model, "--time", "6", "--dims", "8,8,8",
                     "--out", out]) == 0
    assert _echo(out) == {"dims": "8,8,8", "time": "6.0"}
    assert cli.main(["jacobian", "--model", model, "--times", "6,12", "--dims", "8,8,8",
                     "--out", out]) == 0
    assert _echo(out) == {"dims": "8,8,8", "times": "6.0,12.0"}
    assert cli.main(["metrics", "--model", model, "--manifest", manifest,
                     "--times", "0,12", "--out", out]) == 0
    assert _echo(out) == {"holdout": "None", "label_ids": "1", "times": "0.0,12.0"}


_TINY_FIT = ["--batch-points", "8", "--hidden-width", "4", "--depth", "3",
             "--time-hidden-width", "2", "--time-embed-width", "2"]


def _phantom(tmp_path, times="0,12", dims="4,4,4"):
    """A phantom series, 4^3 by default; returns its manifest path."""
    ph = str(tmp_path / "phantom")
    assert cli.main(["phantom", "--out", ph, "--dims", dims, "--times", times]) == 0
    return os.path.join(ph, "manifest.txt")


def test_metrics_holdout_refuses_a_zero_time_horizon(tmp_path, capsys):
    """The held-out refit checks its config too: a time horizon of 0 is
    refused, not read as "the largest month"."""
    manifest = _phantom(tmp_path, "0,12,24", _LABELLED)
    out = tmp_path / "metrics"
    capsys.readouterr()
    rc = cli.main(["metrics", "--model", _tiny_model(tmp_path), "--manifest", manifest,
                   "--out", str(out), "--times", "0,12", "--holdout", "12",
                   "--iterations", "1", *_TINY_FIT, "--time-horizon", "0"])
    assert rc == cli.EXIT_INPUT
    assert "ndfreg: time_horizon must be > 0" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("shape", [(3, 3, 3), (1, 4, 4)], ids=["smaller", "one-slice"])
def test_fit_refuses_a_mask_of_another_grid(tmp_path, capsys, shape):
    """A mask must have the scans' grid: a smaller one was sampled as if it
    were theirs (exit 0), and a one-slice one divided by zero in
    `voxel_centers` (exit 3).  Exit 2, naming both shapes, no model."""
    import numpy as np

    from ndfreg import fileio

    manifest = _phantom(tmp_path)
    mask = str(tmp_path / "mask.raw")
    fileio.write_raw(mask, np.ones(shape, dtype=np.int32))
    out = tmp_path / "fit"
    capsys.readouterr()
    rc = cli.main(["fit", "--manifest", manifest, "--out", str(out), "--iterations", "1",
                   *_TINY_FIT, "--mask", mask])
    assert rc == cli.EXIT_INPUT
    assert f"ndfreg: mask of shape {shape} does not match the scans' grid (4, 4, 4)" in (
        capsys.readouterr().err)
    assert not (out / "model.ndf").exists()


def test_metrics_holdout_refuses_a_mask_of_another_grid(tmp_path, capsys):
    """The held-out refit reads the fit's --mask, and refuses it the same
    way, before anything is written."""
    import numpy as np

    from ndfreg import fileio

    manifest = _phantom(tmp_path, "0,12,24", _LABELLED)
    mask = str(tmp_path / "mask.raw")
    fileio.write_raw(mask, np.ones((3, 3, 3), dtype=np.int32))
    out = tmp_path / "metrics"
    capsys.readouterr()
    rc = cli.main(["metrics", "--model", _tiny_model(tmp_path), "--manifest", manifest,
                   "--out", str(out), "--times", "0,12", "--holdout", "12",
                   "--iterations", "1", *_TINY_FIT, "--mask", mask])
    assert rc == cli.EXIT_INPUT
    assert "does not match the scans' grid (5, 5, 5)" in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, extra, times", [
    ("jacobian", ["--dims", "4,4,4"], ""),
    ("jacobian", ["--dims", "4,4,4"], ","),
    ("metrics", ["--manifest", "manifest.txt"], ""),
], ids=["jacobian-empty", "jacobian-comma", "metrics-empty"])
def test_empty_times_are_refused(monkeypatch, tmp_path, capsys, command, extra, times):
    """--times with no time is refused by the parser, naming the flag
    (`jacobian` wrote a summary of only its header, exit 0)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--model", _tiny_model(tmp_path), "--out", "o", *extra,
                  "--times", times])
    assert exited.value.code == cli.EXIT_INPUT
    assert "argument --times: needs at least one time" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gradcheck_refuses_no_points(capsys):
    """`gradcheck --points 0` is refused by name (it failed inside numpy
    on an empty reduction)."""
    with pytest.raises(SystemExit) as exited:
        cli.main(["gradcheck", "--points", "0"])
    assert exited.value.code == cli.EXIT_INPUT
    assert "argument --points: must be >= 1, got 0" in capsys.readouterr().err


def test_gradcheck_refuses_a_negative_seed(capsys):
    """`gradcheck --seed -1` is refused by name (numpy's generator refused
    it with a bare "expected non-negative integer")."""
    with pytest.raises(SystemExit) as exited:
        cli.main(["gradcheck", "--seed", "-1"])
    assert exited.value.code == cli.EXIT_INPUT
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_metrics_refuses_empty_label_ids(monkeypatch, tmp_path, capsys):
    """--label-ids with no id is refused by the parser, naming the flag (it
    scored every label, exit 0)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli.main(["metrics", "--model", "m.ndf", "--manifest", "manifest.txt", "--out", "o",
                  "--times", "12", "--label-ids", ""])
    assert exited.value.code == cli.EXIT_INPUT
    assert "argument --label-ids: needs at least one label id" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("holdout", [[], ["--holdout", "12", "--iterations", "1", *_TINY_FIT]],
                         ids=["plain", "holdout"])
def test_metrics_refuses_background_only_baseline_labels(tmp_path, capsys, holdout):
    """Baseline labels that hold only background (a 4^3 phantom's) leave no
    structure to score: without --label-ids that is an input error naming
    the baseline labels, raised before the held-out refit or any write (it
    wrote a header-only structure_metrics.csv, exit 0)."""
    manifest = _phantom(tmp_path, "0,12,24")
    out = tmp_path / "metrics"
    _refused(capsys, ["metrics", "--model", _tiny_model(tmp_path), "--manifest", manifest,
                      "--out", str(out), "--times", "0,12", *holdout],
             "the baseline labels hold only background")
    assert not list(out.glob("*"))


def _spacing(path):
    from ndfreg import fileio

    return fileio._read_raw_array(path)[1]


def test_raw_outputs_carry_the_grid_spacing(tmp_path):
    """`predict --scan` and `jacobian --scan` write the scan's voxel
    spacing into every raw output, and `metrics --holdout` the baseline's;
    `--dims` writes unit spacing.  `predict --with-djdt` writes d|J|/dt
    and `--scan` the scan warped into the baseline frame, as
    `predict_field` and `warp_volume` give them."""
    import numpy as np

    from ndfreg import fileio, trainer

    manifest = _phantom(tmp_path, "0,12,24", _LABELLED)
    spacing = (1.5, 1.5, 2.0)
    baseline = os.path.join(os.path.dirname(manifest), "vol_00.raw")
    values, _ = fileio._read_raw_array(baseline)
    fileio.write_raw(baseline, values, spacing)
    model = _tiny_model(tmp_path)
    pred, jac, met = (str(tmp_path / d) for d in ("predict", "jacobian", "metrics"))
    assert cli.main(["predict", "--model", model, "--time", "6", "--scan", baseline,
                     "--with-djdt", "--out", pred]) == cli.EXIT_OK
    names = ["disp_x", "disp_y", "disp_z", "jacdet", "jacdet_dt", "warped"]
    assert sorted(p.stem for p in pathlib.Path(pred).glob("*.raw")) == sorted(names)
    assert {_spacing(os.path.join(pred, f"{n}.raw")) for n in names} == {spacing}
    state, scan = fileio.load_model(model), fileio.load_volume(baseline)
    with_djdt = network.DerivativeRequest(spatial=True, temporal=True)
    field = trainer.predict_field(state, 6.0, scan.dims, with_djdt)
    got = fileio._read_raw_array(os.path.join(pred, "jacdet_dt.raw"))[0]
    assert got.tobytes() == np.asarray(field.jac_det_dt).tobytes()
    got = fileio._read_raw_array(os.path.join(pred, "warped.raw"))[0]
    assert got.tobytes() == trainer.warp_volume(scan, field.phi).values.tobytes()
    assert cli.main(["jacobian", "--model", model, "--times", "6", "--scan", baseline,
                     "--out", jac]) == cli.EXIT_OK
    assert _spacing(os.path.join(jac, "jac_6.raw")) == spacing
    assert cli.main(["predict", "--model", model, "--time", "6", "--dims", "4,4,4",
                     "--out", pred]) == cli.EXIT_OK
    assert _spacing(os.path.join(pred, "jacdet.raw")) == (1.0, 1.0, 1.0)
    assert cli.main(["metrics", "--model", model, "--manifest", manifest, "--out", met,
                     "--times", "0,12", "--holdout", "12", "--iterations", "1",
                     *_TINY_FIT]) == cli.EXIT_OK
    assert _spacing(os.path.join(met, "holdout_residual_jac.raw")) == spacing


def test_gradcheck_command_exit_codes(capsys):
    """`gradcheck` exits 0 when every check passes, and 1 with a fault
    hook, naming the worst failing check."""
    small = ["--width", "8", "--points", "20"]
    assert cli.main(["gradcheck", *small]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS ncc-gradient: " in out
    assert cli.main(["gradcheck", *small, "--corrupt", "ncc"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL ncc-gradient: " in out
    assert out.splitlines()[-1].startswith("worst offender: ncc-gradient (")


def test_fit_numerical_abort_exits_3(tmp_path, capsys):
    """A learning rate that diverges overflows the weights after the first
    step; the next two totals are non-finite, and the fit aborts with exit
    3 and writes no model."""
    import numpy as np

    manifest = _phantom(tmp_path)
    out = tmp_path / "fit"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["fit", "--manifest", manifest, "--out", str(out), "--iterations", "5",
                       *_TINY_FIT, "--learning-rate", "1e300"])
    assert rc == cli.EXIT_NUMERIC
    assert "ndfreg: numerical abort: non-finite total loss at iterations 2 and 3" in (
        capsys.readouterr().err)
    assert not (out / "model.ndf").exists()


def test_fit_checkpoints_load_back(tmp_path):
    """`--checkpoint-every 2` writes a model file every second iteration;
    each loads, and the last is the fitted model, byte for byte."""
    from ndfreg import fileio

    manifest = _phantom(tmp_path)
    out = tmp_path / "fit"
    assert cli.main(["fit", "--manifest", manifest, "--out", str(out), "--iterations", "4",
                     *_TINY_FIT, "--checkpoint-every", "2"]) == cli.EXIT_OK
    names = sorted(p.name for p in out.glob("checkpoint_*.ndf"))
    assert names == ["checkpoint_0000002.ndf", "checkpoint_0000004.ndf"]
    first, last = (fileio.load_model(str(out / n)) for n in names)
    assert first.checksum() != last.checksum()
    assert (out / names[-1]).read_bytes() == (out / "model.ndf").read_bytes()


def _chunked_model(tmp_path):
    """A width-32 model whose 12^3 grid is 2 chunks with J alone and 4 with
    d|J|/dt, the last one short and padded; returns its path."""
    from ndfreg import fileio

    config = network.NetworkConfig(hidden_width=32, depth=4, time_hidden_width=4,
                                   time_embed_width=8)
    state = network.init_network(seed=3, config=config, time_horizon=36.0)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    path = str(tmp_path / "chunked.ndf")
    fileio.save_model(path, state)
    return path


def _inference_argvs(model, scan, out):
    return [
        ["jacobian", "--model", model, "--out", out, "--times", "12,24,36",
         "--dims", "12,12,12"],
        ["predict", "--model", model, "--out", out, "--time", "18", "--with-djdt",
         "--scan", scan],
    ]


def test_inference_threads_write_identical_files(tmp_path):
    """`jacobian` and `predict --with-djdt --scan` write the same bytes on
    one chunk worker and on two."""
    model = _chunked_model(tmp_path)
    scan = os.path.join(os.path.dirname(_phantom(tmp_path, "0,12", "12,12,12")),
                        "vol_01.raw")
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for argv in _inference_argvs(model, scan, str(out)):
            assert cli.main(argv + ["--threads", threads]) == cli.EXIT_OK
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    # 3 |J| maps and their summary, 6 predict outputs and the config echo
    assert len(written["1"]) == 11
    assert written["1"] == written["2"]


def test_a_failing_chunk_worker_maps_to_its_exit_code(monkeypatch, tmp_path, capsys, forks):
    """An input error raised on a forked chunk worker reaches `main` as in
    the calling process: exit 2 with its message, and the worker reaped.
    The second chunk fails, which --threads 2 deals to the worker."""
    write_chunk = network._write_chunk

    def failing(*args):
        if args[1].start == args[3].shape[1]:
            raise ValueError("chunk failed")
        write_chunk(*args)

    model = _chunked_model(tmp_path)
    scan = os.path.join(os.path.dirname(_phantom(tmp_path, "0,12", "12,12,12")),
                        "vol_01.raw")
    monkeypatch.setattr(network, "_write_chunk", failing)
    for argv in _inference_argvs(model, scan, str(tmp_path / "out")):
        capsys.readouterr()
        forks.clear()
        assert cli.main(argv + ["--threads", "2"]) == cli.EXIT_INPUT
        assert "ndfreg: chunk failed" in capsys.readouterr().err
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# saves a paper-width model, then runs a long `jacobian --threads 2` on it,
# printing the pid of each worker it forks
_KILLED_JACOBIAN = """
import os, sys
sys.path[:0] = sys.argv[1:2]
from ndfreg import cli, fileio, network

model = os.path.join(sys.argv[2], "model.ndf")
fileio.save_model(model, network.init_network(seed=0))
fork = os.fork

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced
cli.main(["jacobian", "--model", model, "--times", ",".join(map(str, range(1, 13))),
          "--dims", "40,40,40", "--out", sys.argv[2], "--threads", "2"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_killed_jacobian_leaves_no_worker_running(tmp_path):
    """SIGKILL to a `jacobian` process still ends its forked chunk worker,
    mid-command: before each chunk the worker checks that its parent is
    still the process that forked it.  The command runs about 15 s on two
    workers; the worker must end within 5."""
    from test_lane_worker import kill_mid_run

    kill_mid_run(_KILLED_JACOBIAN, [os.path.dirname(os.path.dirname(ndfreg.__file__)),
                                    str(tmp_path)], 5)


@pytest.mark.parametrize("command", ["predict", "jacobian", "metrics"])
def test_inference_threads_count_chunk_workers(monkeypatch, tmp_path, command):
    """For the inference commands --threads is the chunk-worker count, by
    default two, or one on one usable CPU, and BLAS runs one thread per
    worker; every dense evaluation gets that count."""
    manifest = _phantom(tmp_path, "0,12", _LABELLED)
    argv = {
        "predict": ["--time", "6", "--dims", "4,4,4"],
        "jacobian": ["--times", "6", "--dims", "4,4,4"],
        "metrics": ["--manifest", manifest, "--times", "0,12"],
    }[command]
    argv = [command, "--model", _tiny_model(tmp_path), "--out", str(tmp_path / "out"), *argv]
    workers, pinned = [], []
    evaluate = network.forward_with_derivatives

    def spy(*args, **kwargs):
        workers.append(kwargs.get("workers", 1))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(network, "forward_with_derivatives", spy)
    monkeypatch.setattr(cli, "pin_blas_threads", pinned.append)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    for cpus, extra, count in ((3, [], 2), (1, [], 1), (1, ["--threads", "3"], 3)):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        workers.clear()
        assert cli.main(argv + extra) == cli.EXIT_OK
        assert workers and set(workers) == {count}
    assert pinned == [1, 1, 1]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_metrics_holdout_refits_on_the_chunk_workers(monkeypatch, tmp_path):
    """A `metrics --holdout` refit is a fit: it runs its lanes on the
    --threads workers, by default two, with BLAS pinned to one thread once
    for the refit and the dense evaluations alike."""
    from ndfreg import trainer

    manifest = _phantom(tmp_path, "0,12,24", _LABELLED)
    argv = ["metrics", "--model", _tiny_model(tmp_path), "--out", str(tmp_path / "out"),
            "--manifest", manifest, "--times", "0,12", "--holdout", "12",
            "--iterations", "1", *_TINY_FIT]
    pinned, at_fit, at_eval = [], [], []
    fit, evaluate = trainer.fit, network.forward_with_derivatives

    def fit_spy(*args, **kwargs):
        at_fit.append(kwargs.get("workers", 1))
        return fit(*args, **kwargs)

    def eval_spy(*args, **kwargs):
        at_eval.append(kwargs.get("workers", 1))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(trainer, "fit", fit_spy)
    monkeypatch.setattr(network, "forward_with_derivatives", eval_spy)
    monkeypatch.setattr(cli, "pin_blas_threads", pinned.append)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for extra, count in (([], 2), (["--threads", "3"], 3)):
        pinned.clear(), at_fit.clear(), at_eval.clear()
        assert cli.main(argv + extra) == cli.EXIT_OK
        assert pinned == [1] and at_fit == [count] and at_eval and set(at_eval) == {count}


@pytest.mark.parametrize("command", ["fit", "phantom"])
def test_threads_pins_blas_for_fit_and_phantom(monkeypatch, tmp_path, command):
    """`fit` pins BLAS to one thread per worker, and --threads is its worker
    count (by default two where two CPUs are usable); for `phantom`
    --threads is still the BLAS pool, and without it the pool is left
    alone."""
    from ndfreg import trainer

    manifest = _phantom(tmp_path, "0,12")
    argv = {
        "fit": ["fit", "--manifest", manifest, "--iterations", "1", *_TINY_FIT],
        "phantom": ["phantom", "--dims", "4,4,4", "--times", "0,12"],
    }[command] + ["--out", str(tmp_path / "out")]
    pinned, workers = [], []
    fit = trainer.fit

    def fit_spy(*args, **kwargs):
        workers.append(kwargs.get("workers", 1))
        return fit(*args, **kwargs)

    monkeypatch.setattr(trainer, "fit", fit_spy)
    monkeypatch.setattr(cli, "pin_blas_threads", pinned.append)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert cli.main(argv) == cli.EXIT_OK
    if command == "fit":
        assert pinned == [1] and os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert workers == [2]
    else:
        assert pinned == [] and "OPENBLAS_NUM_THREADS" not in os.environ
    pinned.clear(), workers.clear()
    assert cli.main(argv + ["--threads", "3"]) == cli.EXIT_OK
    if command == "fit":
        assert pinned == [1] and os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert workers == [3]
    else:
        assert pinned == [3] and os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_fit_threads_write_identical_files(tmp_path):
    """`fit` writes the same model file, config echo and report, but for
    the report's wall-clock column, at --threads 1, 2 and 3, over 3
    regularizer chunks of a 1100-point batch (2 segments per lane)."""
    manifest = _phantom(tmp_path)
    written = {}
    for threads in ("1", "2", "3"):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["fit", "--manifest", manifest, "--out", str(out),
                         "--iterations", "3", "--log-every", "1", *_TINY_FIT,
                         "--batch-points", "1100", "--threads", threads]) == cli.EXIT_OK
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        report = files.pop("report.csv").decode().splitlines()
        assert report[0].endswith(",wall_ms") and len(report) == 4
        files["report.csv"] = [line.rsplit(",", 1)[0] for line in report]
        written[threads] = files
    assert "model.ndf" in written["1"]
    assert written["1"] == written["2"] == written["3"]


def test_fit_reads_no_labels_and_metrics_does(monkeypatch, tmp_path, capsys):
    """`fit` loads the manifest's scans only: the trainer reads no label
    grid.  `metrics` still reads them."""
    from ndfreg import fileio

    manifest = _phantom(tmp_path, "0,12", _LABELLED)

    def refuse(path):
        raise OSError(f"label grid {os.path.basename(path)} read")

    monkeypatch.setattr(fileio, "load_labels", refuse)
    out = tmp_path / "fit"
    assert cli.main(["fit", "--manifest", manifest, "--out", str(out),
                     "--iterations", "1", *_TINY_FIT]) == cli.EXIT_OK
    capsys.readouterr()
    rc = cli.main(["metrics", "--model", str(out / "model.ndf"), "--manifest", manifest,
                   "--times", "0,12", "--out", str(tmp_path / "metrics")])
    assert rc == cli.EXIT_INPUT
    assert "label grid labels_00.raw read" in capsys.readouterr().err
