"""Batch command-line surface: fit, predict, jacobian, metrics, phantom,
gradcheck.  Non-interactive; everything lands in files under --out.

Options resolve in three layers: the defaults of the config dataclasses
(FitConfig, LossWeights, NetworkConfig, PhantomSpec), then the optional
INI config file (--config), then explicit flags, which win.  The INI
sections are [fit], [weights] and [network], which `fit` and
`metrics --holdout` read (without --holdout, `metrics` refuses --config
and every fit flag), and [phantom], which `phantom` reads; one file may
hold them all.  `predict`, `jacobian` and `gradcheck` read no section
and take no --config.  A key that no option reads, in a section the
command reads, or a value its converter rejects, is an input error that
names the file, section and key.  A time in months (`predict --time`,
`--times` of `jacobian` and `metrics`) and `metrics --deadband` must be
finite numbers >= 0; the parser refuses any other value, naming the flag,
before anything is read or written.  It also refuses a `--slice-axis`
other than x, y or z and a `jacobian --range` other than two finite
numbers lo < hi (default 0.5,1.5).  Either needs `--slice-index`, which
the command checks against the grid before anything is evaluated, and
`metrics` takes slice flags only with --holdout.  `metrics` refuses a
`--times` grid of one month, a `--label-ids` id that the baseline labels
lack, and, without `--label-ids`, baseline labels that hold only
background, before its held-out refit, which runs first, so those and a
month with no follow-up scan, or the only one, are refused before
anything is written.  The resolved
configuration is echoed into the output directory next to the results.
All randomness flows from --seed.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 numerical abort.

--threads N: for `fit`, `predict`, `jacobian` and `metrics` it is the
number of workers, each with one BLAS thread, so these commands pin BLAS
to one thread.  A worker past the first is a forked process
(`network.Worker`), reaped before its call returns or raises.  `fit`
runs each step's two lanes (`trainer.LANES`) on min(N, 2) of them: at
N >= 2 a lane worker sweeps lane 1 of every step while the fit's own
process sweeps lane 0 (`trainer.LaneWorker`).  `predict`, `jacobian` and
`metrics` deal the chunks of each dense evaluation
(`network.forward_with_derivatives`) to this process and N - 1 workers,
and a `metrics --holdout` refit is a fit on the same count.  The peak RSS
on the `fit:` line is the larger of the fit process's and the lane
worker's (`FitReport.peak_rss_mb`); each counts the pages it shares with
the other from the fork on.  Without --threads the count is two
(`DEFAULT_WORKERS`), or one where the process may run on one CPU only
(its affinity mask, `usable_cpus`; a CPU quota is not read).  Models and
outputs are byte-identical at any count; --threads 1 runs them on one
core.  Each worker holds its own chunk working set in its own process,
so no process's peak RSS grows with the count: on the paper-width model
at 24^3 (f64, 2-CPU host, 6 runs each, the largest peak of a command's
processes) `jacobian --times 12,24,36` read 40.3-40.6 MB at one to four
workers, `predict --with-djdt --scan` 40.7-41.3 and `metrics` 40.9-41.6.
For `phantom` and `gradcheck`, --threads N pins the BLAS thread pool,
and without it the pool is left as the library starts it.  Importing
this module runs the package `__init__`, which loads numpy and its
OpenBLAS, so the BLAS count is set twice: through the loaded OpenBLAS's
own setter, found with ctypes, and through the environment variables
that a library loaded later reads.

Every command first sets glibc's heap policy (`keep_freed_heap`), which
forked workers inherit: arrays up to 32 MiB come from the heap rather
than from their own mmap, and the heap keeps 64 MiB of freed top in
reserve rather than trimming it.  By default glibc mmaps each 1 MiB jet
block (`network.CHUNK_BYTES`) of an inference chunk or a fit segment, or
trims it off the heap top when it is freed, so every chunk touches fresh
pages.  Measured per process on a paper-width model at 24^3 (one BLAS
thread, 2-CPU host, 8 MiB chunk arrays), without and with the policy:
`jacobian` at three times 91-96k -> 9.4k minor page faults and 0.30-0.55
-> 0.04-0.07 s of kernel time, `predict --with-djdt` 99-100k -> 9.7k and
0.36-0.46 -> 0.04-0.06 s, `metrics` 39-40k -> 11k and 0.16-0.19 -> 0.05-
0.06 s.  Where the C library has no `mallopt` the policy is not applied.
The grid-size products an inference returns are not heap: they live on
a shared map (`network.shared_arrays`).
The kept top also lets each segment of a fit step reuse the heap the
last one freed rather than fault it in again.  A regularizer segment is
one `network.CHUNK_BYTES` time group, 5.8-7.6 MiB of tape at any batch,
and a step holds one per lane, lane 1's in the lane worker at N >= 2.
The similarity segment is a value-only trace of the whole batch, about
47 KiB per point at paper width, f64: with a regularizer segment beside
it, within the kept top up to about 1200 points (7.7 MiB at B=128; 374
MiB at B=8192, whose layer arrays pass the mmap threshold from 16384
points on).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

# setters of the OpenBLAS builds numpy ships or links against
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

# glibc's mallopt parameters (malloc.h) and the values `keep_freed_heap`
# sets: the mmap threshold at glibc's ceiling, 32 times
# network.CHUNK_BYTES, so that every chunk array is heap memory, and a
# kept top that holds a fit step's segments up to B of about 1200 at paper
# width, f64
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TOP_PAD = 64 << 20

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _floats(text):
    return tuple(float(v) for v in str(text).split(",") if v != "")


def _finite_nonnegative(text):
    """A time in months or a dead band: a finite number >= 0; the parser
    names the flag of a value that is not (exit 2)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _months(text):
    months = tuple(_finite_nonnegative(v) for v in str(text).split(",") if v != "")
    if not months:
        raise argparse.ArgumentTypeError(f"needs at least one time, got {text!r}")
    return months


def _at_least(low):
    """An integer >= `low`; the parser names the flag of one that is not."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    return integer


def _value_range(text):
    """A window lo,hi: two finite numbers with lo < hi."""
    values = _floats(text)
    if not (len(values) == 2 and all(map(math.isfinite, values)) and values[0] < values[1]):
        raise argparse.ArgumentTypeError(f"needs two finite numbers lo < hi, got {text}")
    return values


def _ints(text):
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _label_ids(text):
    ids = _ints(text)
    if not ids:
        raise argparse.ArgumentTypeError(f"needs at least one label id, got {text!r}")
    return ids


@dataclass
class _Option:
    """One option: its INI section and key, which is also its argparse
    dest, and its converter.  The config field it sets and its flag are
    the key's, unless given.  The default is the field's, in its config
    dataclass."""

    section: str
    key: str
    conv: object
    field: str = ""
    flag: str = ""
    choices: tuple | None = None

    def __post_init__(self):
        self.field = self.field or self.key
        self.flag = self.flag or "--" + self.key.replace("_", "-")


# sections: fit -> FitConfig, weights -> LossWeights, network ->
# NetworkConfig, phantom -> PhantomSpec
_OPTIONS = (
    _Option("fit", "iterations", int),
    _Option("fit", "batch_points", int),
    _Option("fit", "learning_rate", float),
    _Option("fit", "reg_grid", int, field="reg_time_grid_size"),
    _Option("fit", "t_extrap", float),
    _Option("fit", "time_horizon", float),
    _Option("fit", "log_every", int),
    _Option("fit", "checkpoint_every", int),
    _Option("fit", "precision", str, choices=("f32", "f64")),
    _Option("fit", "mask", str),  # a path; `_fit_config` loads the labels
    _Option("fit", "seed", int),
    _Option("weights", "lam", float, flag="--lambda"),
    _Option("weights", "alpha", float),
    _Option("weights", "beta", float),
    _Option("weights", "gamma", float),
    _Option("network", "hidden_width", int),
    _Option("network", "depth", int),
    _Option("network", "time_hidden_width", int),
    _Option("network", "time_embed_width", int),
    _Option("network", "omega0", float),
    _Option("network", "leaky_slope", float),
    _Option("phantom", "dims", _ints),
    _Option("phantom", "times", _floats),
    _Option("phantom", "sigma", float),
    _Option("phantom", "growth", float),
    _Option("phantom", "radius", float),
    _Option("phantom", "edge_width", float),
    _Option("phantom", "ring_amplitude", float),
    _Option("phantom", "ring_period", float),
    _Option("phantom", "seed", int),
)

_FIT_SECTIONS = ("fit", "weights", "network")

# the commands whose --threads is their worker count: the lanes of a fit
# step (`trainer.fit`, also a `metrics --holdout` refit) or the chunks of
# a dense evaluation (`network.forward_with_derivatives`)
_WORKER_COMMANDS = ("fit", "predict", "jacobian", "metrics")

# their default worker count where the CPUs allow it: a fit step has two
# lanes, and no benchmark workload measures a host of more than two CPUs
DEFAULT_WORKERS = 2

# --threads of each command: its worker count, or its BLAS thread pool
_WORKERS = " (default 2, or 1 where one CPU is usable), each with one BLAS thread"
_DENSE = "workers of each dense evaluation, this process and N-1 forked ones"
_THREADS_HELP = {
    "fit": "workers; at 2 or more a forked one sweeps lane 1 of every step" + _WORKERS,
    "predict": _DENSE + _WORKERS,
    "jacobian": _DENSE + _WORKERS,
    "metrics": _DENSE + ", and of a --holdout refit" + _WORKERS,
    **dict.fromkeys(("phantom", "gradcheck"), "BLAS threads (default: as the library starts)"),
}

_NOISE_PRESETS = {"clean": 0.0, "noisy015": 0.15, "noisy02": 0.2, "noisy025": 0.25}

_SLICE_AXES = ("x", "y", "z")
_SLICE_FLAGS = (("--slice-axis", "slice_axis"), ("--slice-index", "slice_index"),
                ("--range", "value_range"))


def build_parser():
    from .gradcheck import CORRUPT_HOOKS

    top = argparse.ArgumentParser(prog="ndfreg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, sections=(), groups=None):
        """Shared flags, then, for a command that reads option sections,
        --config and one flag per option of `sections`, each in
        `groups[key]` where given."""
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help=_THREADS_HELP[p.prog.split()[-1]])
        if sections:
            p.add_argument("--config", help="INI config file")
        for opt in _OPTIONS:
            if opt.section not in sections:
                continue
            into = (groups or {}).get(opt.key, p)
            into.add_argument(opt.flag, dest=opt.key, type=opt.conv, choices=opt.choices)

    p = sub.add_parser("fit", help="fit one subject's series")
    common(p, _FIT_SECTIONS)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("predict", help="dense field products at one time")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--time", type=_finite_nonnegative, required=True,
                   help="months since baseline")
    p.add_argument("--dims", type=_ints, default=None)
    p.add_argument("--scan", default=None, help="volume to warp into baseline frame")
    p.add_argument("--with-djdt", dest="with_djdt", action="store_true")

    p = sub.add_parser("jacobian", help="|J| maps and slice images")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--times", type=_months, required=True)
    p.add_argument("--dims", type=_ints, default=None)
    p.add_argument("--scan", default=None)
    p.add_argument("--slice-axis", dest="slice_axis", choices=_SLICE_AXES, default=None)
    p.add_argument("--slice-index", dest="slice_index", type=int, default=None)
    p.add_argument("--range", dest="value_range", type=_value_range, default=None)

    p = sub.add_parser("metrics", help="structure metrics and held-out protocol")
    common(p, _FIT_SECTIONS)  # the held-out refit reuses the fit configuration
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--times", type=_months, required=True)
    p.add_argument("--label-ids", dest="label_ids", type=_label_ids, default=None)
    p.add_argument("--holdout", type=float, default=None)
    p.add_argument("--deadband", type=_finite_nonnegative, default=1e-6)
    p.add_argument("--slice-axis", dest="slice_axis", choices=_SLICE_AXES, default=None)
    p.add_argument("--slice-index", dest="slice_index", type=int, default=None)

    p = sub.add_parser("phantom", help="generate a synthetic ground-truth series")
    noise = p.add_mutually_exclusive_group()  # a preset names a sigma
    noise.add_argument("--preset", choices=sorted(_NOISE_PRESETS), default=None)
    common(p, ("phantom",), groups={"sigma": noise})

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP["gradcheck"])
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--points", type=_at_least(1), default=200)
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--corrupt", choices=CORRUPT_HOOKS, default=None,
                   help="fault-injection hook (testing)")

    return top


def _read_config(path, sections):
    """{section: {key: text}} of the INI file's `sections`; a key that no
    option reads is an error there, other sections are not checked, and
    [DEFAULT] keys count only where an option reads them."""
    if path is None:
        return {}
    ini = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    known = {(opt.section, opt.key) for opt in _OPTIONS}
    config = {s: dict(ini[s]) for s in sections if ini.has_section(s)}
    for section, values in config.items():
        for key in values:
            if (section, key) not in known and key not in ini.defaults():
                raise ValueError(f"config file {path}: unknown key {key!r} in [{section}]")
    return config


def resolve_options(args, sections):
    """{section: {field: value}} of the options of `sections` that the
    --config INI or a flag sets; a flag wins.  An option set by neither is
    left out, so its field keeps the dataclass default."""
    config = _read_config(args.config, sections)
    resolved = {s: {} for s in sections}
    for opt in _OPTIONS:
        if opt.section not in sections:
            continue
        value = getattr(args, opt.key)
        if value is None and opt.key in config.get(opt.section, {}):
            try:
                value = opt.conv(config[opt.section][opt.key])
            except ValueError as exc:
                raise ValueError(
                    f"config file {args.config}: [{opt.section}] {opt.key}: {exc}"
                ) from None
        if value is not None:
            resolved[opt.section][opt.field] = value
    return resolved


def _option_values(configs):
    """{key: value} of every option of the sections in `configs`, read off
    the config object that holds each section's fields."""
    return {
        opt.key: getattr(configs[opt.section], opt.field)
        for opt in _OPTIONS if opt.section in configs
    }


def _echo_config(out_dir, command, resolved):
    ini = configparser.ConfigParser(interpolation=None)
    ini["command"] = {"name": command}
    ini["resolved"] = {}
    for name, value in sorted(resolved.items()):
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        ini["resolved"][name] = str(value)
    path = os.path.join(out_dir, "config.echo.ini")
    import io as _io

    buf = _io.StringIO()
    ini.write(buf)
    from .fileio import atomic_write

    atomic_write(path, buf.getvalue().encode("utf-8"))


def loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux:
    read from /proc/self/maps; empty elsewhere)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def pin_blas_threads(n: int):
    """Set the thread count of every loaded OpenBLAS that exports a known
    setter; a library without one keeps its count."""
    import ctypes

    for path in loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(n)
                break


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def keep_freed_heap() -> bool:
    """Let the allocator keep and reuse freed memory: allocations up to
    HEAP_MMAP_THRESHOLD come from the heap, and HEAP_TOP_PAD of freed heap
    top is kept rather than returned to the kernel.  A forked worker
    inherits both.  True when the C library's `mallopt` accepted both
    settings; False where it has none or refused one."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    accepted = [mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD),
                mallopt(_M_TOP_PAD, HEAP_TOP_PAD)]
    return accepted == [1, 1]


def main(argv=None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print(f"ndfreg: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_INPUT
    blas_threads = args.threads
    if args.command in _WORKER_COMMANDS:  # --threads counts workers
        args.workers = args.threads or min(usable_cpus(), DEFAULT_WORKERS)
        blas_threads = 1
    if blas_threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(blas_threads)
        pin_blas_threads(blas_threads)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return EXIT_INPUT
    except Exception as exc:  # mapped to the documented exit codes
        from .trainer import NumericalAbortError

        if isinstance(exc, NumericalAbortError):
            print(f"ndfreg: numerical abort: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if isinstance(exc, (ValueError, OSError, KeyError)):
            print(f"ndfreg: {exc}", file=sys.stderr)
            return EXIT_INPUT
        raise


def _dispatch(args) -> int:
    if args.command != "gradcheck":
        os.makedirs(args.out, exist_ok=True)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "jacobian":
        return _cmd_jacobian(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "phantom":
        return _cmd_phantom(args)
    if args.command == "gradcheck":
        return _cmd_gradcheck(args)
    raise ValueError(f"unknown command {args.command}")


def _fit_config(resolved, out_dir=None):
    from .fileio import load_labels
    from .losses import LossWeights
    from .network import NetworkConfig
    from .trainer import FitConfig

    fit = dict(resolved["fit"])
    mask = fit.pop("mask", None)
    return FitConfig(
        **fit,
        mask=load_labels(mask) if mask else None,
        checkpoint_dir=out_dir,
        weights=LossWeights(**resolved["weights"]),
        network=NetworkConfig(**resolved["network"]),
    )


def _cmd_fit(args) -> int:
    from . import fileio, trainer

    resolved = resolve_options(args, _FIT_SECTIONS)
    series = fileio.load_series(args.manifest, labels=False)  # the fit reads none
    config = _fit_config(resolved, args.out)
    state, report = trainer.fit(series, config, workers=args.workers)
    fileio.save_model(os.path.join(args.out, "model.ndf"), state)
    fileio.write_csv(os.path.join(args.out, "report.csv"), report.to_rows())
    echo = _option_values({"fit": config, "weights": config.weights,
                           "network": config.network})
    echo["mask"] = resolved["fit"].get("mask")  # the path, not the labels
    _echo_config(args.out, "fit", echo)
    chunks = report.chunk_points
    print(
        f"fit: {config.iterations} iterations, checksum {report.final_checksum[:16]}, "
        f"{report.rejected_steps} rejected steps, peak RSS {report.peak_rss_mb:.1f} MB, "
        f"{len(chunks)} point chunks of up to {max(chunks, default=0)} points, "
        f"similarity segment tape {report.similarity_tape_mb:.1f} MiB, "
        f"largest regularizer segment tape {report.regularizer_tape_mb:.1f} MiB",
        file=sys.stderr,
    )
    return EXIT_OK


def _require_dims(args, fileio):
    """The grid of --scan or --dims: its dims, the scan (None for --dims)
    and the voxel spacing its raw outputs carry."""
    if args.scan:
        vol = fileio.load_volume(args.scan)
        return vol.dims, vol, vol.spacing
    if args.dims:
        if len(args.dims) != 3:
            raise ValueError("--dims needs three comma-separated values")
        if min(args.dims) < 2:
            raise ValueError(f"--dims entries must be >= 2, got {args.dims}")
        return tuple(args.dims), None, (1.0, 1.0, 1.0)
    raise ValueError("either --scan or --dims is required")


def _slice_flags(args) -> list:
    """The slice flags given on the command line."""
    return [flag for flag, dest in _SLICE_FLAGS if getattr(args, dest, None) is not None]


def _check_slice(args, dims):
    """Refuse slice flags that make no image, before anything is
    evaluated: --slice-axis or --range without --slice-index, or an index
    outside `dims` along the axis (default z)."""
    axis = args.slice_axis or "z"
    if args.slice_index is None and _slice_flags(args):
        raise ValueError(f"{args.command}: {', '.join(_slice_flags(args))} needs --slice-index")
    if args.slice_index is not None and not 0 <= args.slice_index < dims[_SLICE_AXES.index(axis)]:
        raise ValueError(f"{args.command}: --slice-index {args.slice_index} is outside "
                         f"the grid {tuple(dims)} along {axis}")


def _cmd_predict(args) -> int:
    from . import fileio, trainer
    from .network import DerivativeRequest

    state = fileio.load_model(args.model)
    dims, scan, spacing = _require_dims(args, fileio)
    request = DerivativeRequest(spatial=True, temporal=args.with_djdt)
    field = trainer.predict_field(state, args.time, dims, request, workers=args.workers)
    outputs = {f"disp_{name}": field.displacement[axis] for axis, name in enumerate("xyz")}
    outputs["jacdet"] = field.jac_det
    if args.with_djdt:
        outputs["jacdet_dt"] = field.jac_det_dt
    if scan is not None:
        outputs["warped"] = trainer.warp_volume(scan, field.phi).values
    for name, values in outputs.items():
        fileio.write_raw(os.path.join(args.out, f"{name}.raw"), values, spacing)
    _echo_config(args.out, "predict", {"time": args.time, "dims": list(dims)})
    print(
        f"predict: t={args.time} months, folded voxels {field.folded_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    from . import fileio, trainer

    state = fileio.load_model(args.model)
    dims, _, spacing = _require_dims(args, fileio)
    _check_slice(args, dims)
    rows = [["time_months", "folded_count", "mean_jac"]]
    fields = trainer.predict_field(state, args.times, dims, workers=args.workers)
    for t, field in zip(args.times, fields):
        tag = f"{t:g}".replace(".", "p")
        fileio.write_raw(os.path.join(args.out, f"jac_{tag}.raw"), field.jac_det, spacing)
        if args.slice_index is not None:
            fileio.write_slice_image(
                field.jac_det, args.slice_axis or "z", args.slice_index,
                args.value_range or (0.5, 1.5), os.path.join(args.out, f"jac_{tag}.pgm"),
            )
        rows.append([t, field.folded_count, float(field.jac_det.mean())])
    fileio.write_csv(os.path.join(args.out, "jacobian_summary.csv"), rows)
    _echo_config(args.out, "jacobian", {"times": args.times, "dims": list(dims)})
    return EXIT_OK


def _cmd_metrics(args) -> int:
    import numpy as np

    from . import fileio, metrics, trainer
    from .network import DerivativeRequest

    if args.holdout is None:  # only the held-out refit reads these
        given = ["--config"] if args.config is not None else []
        given += [opt.flag for opt in _OPTIONS
                  if opt.section in _FIT_SECTIONS and getattr(args, opt.key) is not None]
        given += _slice_flags(args)
        if given:
            raise ValueError(f"metrics: {', '.join(given)} needs --holdout")
    state = fileio.load_model(args.model)
    series = fileio.load_series(args.manifest)
    if not series.labels or 0.0 not in series.labels:
        raise ValueError("metrics needs baseline labels in the manifest")
    base_labels = series.labels[0.0]
    label_ids = args.label_ids or sorted(
        int(v) for v in np.unique(base_labels) if v != 0
    )
    if not label_ids:
        raise ValueError("metrics: the baseline labels hold only background (0), "
                         "so there is no structure to score")
    times = args.times
    if len(times) < 2:
        raise ValueError(f"metrics: --times needs at least two months, got {len(times)}")
    absent = [lid for lid in label_ids if not (base_labels == lid).any()]
    if absent:
        raise ValueError(f"metrics: --label-ids {absent[0]} is not a baseline label")
    dims = series.baseline.dims
    _check_slice(args, dims)
    if args.holdout is not None:  # refuses a bad month before anything is written
        _holdout_protocol(args, state, series, base_labels, label_ids)

    trajectories = metrics.structure_trajectories(
        state, base_labels, label_ids, times, deadband=args.deadband, workers=args.workers
    )
    # Dice at the labelled follow-ups the rows read: displacement alone,
    # all times at once
    followups = [m for m in series.labels if m != 0.0 and m in times]
    dice_at = {}
    if followups:
        fields = trainer.predict_field(state, followups, dims, DerivativeRequest(),
                                       workers=args.workers)
        for months, field in zip(followups, fields):
            warped = metrics.warp_labels(series.labels[months], field.phi)
            dice_at[months] = {
                lid: metrics.dice(base_labels, warped, lid) for lid in label_ids
            }

    rows = [["time", "label", "mean_jac", "mean_djac_dt", "dice", "sign_consistency"]]
    for tr in trajectories:
        for k, t in enumerate(tr.times):
            dice_val = dice_at.get(t, {}).get(tr.label, "")
            rows.append(
                [t, tr.label, tr.mean_jac[k], tr.mean_djdt[k], dice_val,
                 tr.sign_consistency]
            )
    fileio.write_csv(os.path.join(args.out, "structure_metrics.csv"), rows)

    _echo_config(
        args.out, "metrics",
        {"times": times, "label_ids": label_ids, "holdout": args.holdout},
    )
    return EXIT_OK


def _holdout_protocol(args, full_state, series, base_labels, label_ids):
    import numpy as np

    from . import fileio, metrics, trainer
    from .volume import Volume4DSeries

    months = args.holdout
    keep = [(m, v) for m, v in series.followups if m != months]
    if len(keep) == len(series.followups):
        raise ValueError(f"--holdout {months}: no scan at that time")
    if not keep:
        raise ValueError("cannot hold out the only follow-up")
    reduced = Volume4DSeries(series.baseline, keep, labels=series.labels)
    config = _fit_config(resolve_options(args, _FIT_SECTIONS))
    if config.time_horizon is None:
        config.time_horizon = max(series.times)
    refit_state, _ = trainer.fit(reduced, config, workers=args.workers)

    dims = series.baseline.dims
    field_h = trainer.predict_field(refit_state, months, dims, workers=args.workers)
    field_f = trainer.predict_field(full_state, months, dims, workers=args.workers)
    residual = field_h.jac_det - field_f.jac_det
    fileio.write_raw(os.path.join(args.out, "holdout_residual_jac.raw"), residual,
                     series.baseline.spacing)
    if args.slice_index is not None:
        fileio.write_slice_image(
            residual, args.slice_axis or "z", args.slice_index, (-0.2, 0.2),
            os.path.join(args.out, "holdout_residual_jac.pgm"),
        )
    rows = [["label", "dice_holdout", "residual_mean_abs"]]
    held_labels = series.labels.get(months)
    warped = None if held_labels is None else metrics.warp_labels(held_labels, field_h.phi)
    for lid in label_ids:
        dice_val = "" if warped is None else metrics.dice(base_labels, warped, lid)
        core = base_labels == lid
        rows.append([lid, dice_val, float(np.abs(residual[core]).mean())])
    fileio.write_csv(os.path.join(args.out, "holdout_report.csv"), rows)


def _cmd_phantom(args) -> int:
    import json

    from . import fileio
    from .phantom import PhantomSpec, generate_phantom

    if args.preset is not None:
        args.sigma = _NOISE_PRESETS[args.preset]
    spec = PhantomSpec(**resolve_options(args, ("phantom",))["phantom"])
    series, truth = generate_phantom(spec)
    entries = []
    for i, months in enumerate(spec.times):
        vol_name = f"vol_{i:02d}.raw"
        lab_name = f"labels_{i:02d}.raw"
        vol = series.baseline if months == 0.0 else series.volume_at(months)
        fileio.write_raw(os.path.join(args.out, vol_name), vol.values)
        fileio.write_raw(os.path.join(args.out, lab_name), series.labels[months])
        entries.append((months, vol_name, lab_name))
    fileio.write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    sidecar = json.dumps(truth.to_dict(), sort_keys=True, indent=2, default=list)
    fileio.atomic_write(os.path.join(args.out, "truth.json"), sidecar.encode())
    _echo_config(args.out, "phantom", _option_values({"phantom": spec}))
    print(f"phantom: {len(spec.times)} volumes at {spec.dims}", file=sys.stderr)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    report = run_gradcheck(
        seed=args.seed,
        width=args.width,
        points=args.points,
        precision=args.precision,
        corrupt=args.corrupt,
    )
    ok = True
    worst_line = None
    for entry in report:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{status} {entry.name}: worst={entry.worst:.3e} tol={entry.tol:.0e}")
        if not entry.passed and (worst_line is None or entry.worst > worst_line.worst):
            worst_line = entry
        ok = ok and entry.passed
    if not ok:
        print(f"worst offender: {worst_line.name} ({worst_line.worst:.3e})")
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
