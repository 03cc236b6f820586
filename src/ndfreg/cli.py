"""Batch command-line surface: fit, predict, jacobian, metrics, phantom,
gradcheck.  Non-interactive; everything lands in files under --out.

Options resolve in three layers: built-in defaults, then the optional INI
config file (--config), then explicit flags, which win.  The resolved
configuration is echoed into the output directory next to the results.
All randomness flows from --seed.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 numerical abort.

Only stdlib is imported at module level: --threads pins the BLAS thread
pool through environment variables, which must happen before numpy loads
(reproducibility mode is --threads 1 in a fresh process).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _bool(text):
    if isinstance(text, bool):
        return text
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _ints(text):
    return [int(v) for v in str(text).split(",") if v != ""]


# option table: name -> (config section, converter, default)
_FIT_OPTIONS = {
    "iterations": ("fit", int, 20000),
    "batch_points": ("fit", int, 8192),
    "learning_rate": ("fit", float, 1e-4),
    "reg_grid": ("fit", int, 8),
    "t_extrap": ("fit", float, 1.0),
    "time_horizon": ("fit", float, None),
    "log_every": ("fit", int, 100),
    "checkpoint_every": ("fit", int, 0),
    "optimizer": ("fit", str, "adam"),
    "precision": ("fit", str, "f64"),
    "spatial_raw_jacobian": ("fit", _bool, False),
    "mask": ("fit", str, None),
    "lam": ("weights", float, 10.0),
    "alpha": ("weights", float, 1.0),
    "beta": ("weights", float, 1.0),
    "gamma": ("weights", float, 0.1),
    "hidden_width": ("network", int, 256),
    "depth": ("network", int, 5),
    "time_hidden_width": ("network", int, 10),
    "time_embed_width": ("network", int, 64),
    "omega0": ("network", float, 30.0),
    "leaky_slope": ("network", float, 0.01),
    "embed_output_leaky": ("network", _bool, True),
    "concat_every_layer": ("network", _bool, True),
    "seed": ("fit", int, 0),
}

_PHANTOM_OPTIONS = {
    "dims": ("phantom", _ints, [48, 48, 48]),
    "times": ("phantom", _floats, [0.0, 12.0, 24.0, 36.0]),
    "sigma": ("phantom", float, 0.0),
    "growth": ("phantom", float, 0.1),
    "radius": ("phantom", float, 0.4),
    "edge_width": ("phantom", float, 0.08),
    "ring_amplitude": ("phantom", float, 0.3),
    "ring_period": ("phantom", float, 0.18),
    "seed": ("phantom", int, 0),
}

_NOISE_PRESETS = {"clean": 0.0, "noisy015": 0.15, "noisy02": 0.2, "noisy025": 0.25}


def build_parser():
    top = argparse.ArgumentParser(prog="ndfreg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)

    def fit_knobs(p):
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--batch-points", dest="batch_points", type=int, default=None)
        p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
        p.add_argument("--reg-grid", dest="reg_grid", type=int, default=None)
        p.add_argument("--t-extrap", dest="t_extrap", type=float, default=None)
        p.add_argument("--time-horizon", dest="time_horizon", type=float, default=None)
        p.add_argument("--log-every", dest="log_every", type=int, default=None)
        p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
        p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
        p.add_argument("--precision", choices=("f32", "f64"), default=None)
        p.add_argument(
            "--spatial-raw-jacobian", dest="spatial_raw_jacobian",
            action="store_const", const=True, default=None,
        )
        p.add_argument("--mask", default=None, help="NDVOL/NIfTI mask for sampling")
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--hidden-width", dest="hidden_width", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--time-hidden-width", dest="time_hidden_width", type=int, default=None)
        p.add_argument("--time-embed-width", dest="time_embed_width", type=int, default=None)
        p.add_argument("--omega0", type=float, default=None)
        p.add_argument("--leaky-slope", dest="leaky_slope", type=float, default=None)
        p.add_argument(
            "--embed-output-linear", dest="embed_output_leaky",
            action="store_const", const=False, default=None,
        )
        p.add_argument(
            "--concat-first-only", dest="concat_every_layer",
            action="store_const", const=False, default=None,
        )

    p = sub.add_parser("fit", help="fit one subject's series")
    common(p)
    p.add_argument("--manifest", required=True)
    fit_knobs(p)

    p = sub.add_parser("predict", help="dense field products at one time")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--time", type=float, required=True, help="months since baseline")
    p.add_argument("--dims", type=_ints, default=None)
    p.add_argument("--scan", default=None, help="volume to warp into baseline frame")
    p.add_argument("--with-djdt", dest="with_djdt", action="store_true")
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=4096)

    p = sub.add_parser("jacobian", help="|J| maps and slice images")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--times", type=_floats, required=True)
    p.add_argument("--dims", type=_ints, default=None)
    p.add_argument("--scan", default=None)
    p.add_argument("--slice-axis", dest="slice_axis", default=None)
    p.add_argument("--slice-index", dest="slice_index", type=int, default=None)
    p.add_argument("--range", dest="value_range", type=_floats, default=[0.5, 1.5])

    p = sub.add_parser("metrics", help="structure metrics and held-out protocol")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--times", type=_floats, required=True)
    p.add_argument("--label-ids", dest="label_ids", type=_ints, default=None)
    p.add_argument("--holdout", type=float, default=None)
    p.add_argument("--deadband", type=float, default=1e-6)
    p.add_argument("--slice-axis", dest="slice_axis", default=None)
    p.add_argument("--slice-index", dest="slice_index", type=int, default=None)
    fit_knobs(p)  # the held-out refit reuses the fit configuration

    p = sub.add_parser("phantom", help="generate a synthetic ground-truth series")
    common(p)
    p.add_argument("--preset", choices=sorted(_NOISE_PRESETS), default=None)
    p.add_argument("--dims", type=_ints, default=None)
    p.add_argument("--times", type=_floats, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--growth", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--edge-width", dest="edge_width", type=float, default=None)
    p.add_argument("--ring-amplitude", dest="ring_amplitude", type=float, default=None)
    p.add_argument("--ring-period", dest="ring_period", type=float, default=None)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    common(p, out_required=False)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--precision", choices=("f32", "f64"), default="f64")
    p.add_argument("--corrupt", default=None, help="fault-injection hook (testing)")

    return top


def _read_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    ini.read(path)
    return {s: dict(ini[s]) for s in ini.sections()}


def resolve_options(args, table):
    """defaults < config file < explicit flags."""
    config = _read_config(getattr(args, "config", None))
    resolved = {}
    for name, (section, conv, default) in table.items():
        value = default
        if section in config and name in config[section]:
            value = conv(config[section][name])
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            value = cli_value
        resolved[name] = value
    return resolved


def _echo_config(out_dir, command, resolved):
    ini = configparser.ConfigParser()
    ini["command"] = {"name": command}
    for name, value in sorted(resolved.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        ini.setdefault("resolved", {})[name] = str(value)
    path = os.path.join(out_dir, "config.echo.ini")
    import io as _io

    buf = _io.StringIO()
    ini.write(buf)
    from .fileio import atomic_write

    atomic_write(path, buf.getvalue().encode("utf-8"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
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


def _fit_config_from(resolved, out_dir=None):
    from .losses import LossWeights
    from .network import NetworkConfig
    from .trainer import FitConfig
    from .fileio import read_raw_labels, read_nifti_labels

    mask = None
    if resolved["mask"]:
        path = resolved["mask"]
        grid = (
            read_nifti_labels(path)
            if path.endswith((".nii", ".nii.gz"))
            else read_raw_labels(path)
        )
        mask = grid
    network = NetworkConfig(
        hidden_width=resolved["hidden_width"],
        depth=resolved["depth"],
        time_hidden_width=resolved["time_hidden_width"],
        time_embed_width=resolved["time_embed_width"],
        omega0=resolved["omega0"],
        leaky_slope=resolved["leaky_slope"],
        time_embed_output_leaky=resolved["embed_output_leaky"],
        concat_every_layer=resolved["concat_every_layer"],
    )
    return FitConfig(
        iterations=resolved["iterations"],
        batch_points=resolved["batch_points"],
        learning_rate=resolved["learning_rate"],
        weights=LossWeights(
            lam=resolved["lam"],
            alpha=resolved["alpha"],
            beta=resolved["beta"],
            gamma=resolved["gamma"],
        ),
        reg_time_grid_size=resolved["reg_grid"],
        t_extrap=resolved["t_extrap"],
        time_horizon=resolved["time_horizon"],
        seed=resolved["seed"],
        precision=resolved["precision"],
        log_every=resolved["log_every"],
        checkpoint_every=resolved["checkpoint_every"],
        checkpoint_dir=out_dir,
        optimizer=resolved["optimizer"],
        spatial_raw=resolved["spatial_raw_jacobian"],
        mask=mask,
        network=network,
    )


def _cmd_fit(args) -> int:
    from . import fileio, trainer

    resolved = resolve_options(args, _FIT_OPTIONS)
    series = fileio.load_series(args.manifest)
    config = _fit_config_from(resolved, args.out)
    state, report = trainer.fit(series, config)
    fileio.save_model(os.path.join(args.out, "model.ndf"), state)
    fileio.write_csv(os.path.join(args.out, "report.csv"), report.to_rows())
    _echo_config(args.out, "fit", resolved)
    print(
        f"fit: {config.iterations} iterations, checksum {report.final_checksum[:16]}",
        file=sys.stderr,
    )
    return EXIT_OK


def _require_dims(args, fileio):
    if args.scan:
        vol = fileio.read_nifti(args.scan) if args.scan.endswith(
            (".nii", ".nii.gz")
        ) else fileio.read_raw(args.scan)
        return vol.dims, vol
    if args.dims:
        if len(args.dims) != 3:
            raise ValueError("--dims needs three comma-separated values")
        return tuple(args.dims), None
    raise ValueError("either --scan or --dims is required")


def _cmd_predict(args) -> int:
    from . import fileio, trainer

    if args.time < 0:
        raise ValueError("--time must be >= 0 months")
    state = fileio.load_model(args.model)
    dims, scan = _require_dims(args, fileio)
    field = trainer.predict_field(
        state, args.time, dims, chunk_size=args.chunk_size, want_djdt=args.with_djdt
    )
    for axis, name in enumerate("xyz"):
        fileio.write_raw(
            os.path.join(args.out, f"disp_{name}.raw"), field.displacement[axis]
        )
    fileio.write_raw(os.path.join(args.out, "jacdet.raw"), field.jac_det)
    if args.with_djdt:
        fileio.write_raw(os.path.join(args.out, "jacdet_dt.raw"), field.jac_det_dt)
    if scan is not None:
        warped = trainer.warp_volume(scan, field)
        fileio.write_raw(os.path.join(args.out, "warped.raw"), warped.values)
    _echo_config(args.out, "predict", {"time": args.time, "dims": list(dims)})
    print(
        f"predict: t={args.time} months, folded voxels {field.folded_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    from . import fileio, trainer

    state = fileio.load_model(args.model)
    dims, _ = _require_dims(args, fileio)
    rows = [["time_months", "folded_count", "mean_jac"]]
    for t in args.times:
        if t < 0:
            raise ValueError("times must be >= 0 months")
        field = trainer.predict_field(state, t, dims)
        tag = f"{t:g}".replace(".", "p")
        fileio.write_raw(os.path.join(args.out, f"jac_{tag}.raw"), field.jac_det)
        if args.slice_index is not None:
            axis = args.slice_axis or "z"
            lo, hi = args.value_range
            fileio.write_slice_image(
                field.jac_det, axis, args.slice_index, (lo, hi),
                os.path.join(args.out, f"jac_{tag}.pgm"),
            )
        rows.append([t, field.folded_count, float(field.jac_det.mean())])
    fileio.write_csv(os.path.join(args.out, "jacobian_summary.csv"), rows)
    _echo_config(args.out, "jacobian", {"times": args.times, "dims": list(dims)})
    return EXIT_OK


def _cmd_metrics(args) -> int:
    import numpy as np

    from . import fileio, metrics, trainer
    from .volume import Volume4DSeries

    state = fileio.load_model(args.model)
    series = fileio.load_series(args.manifest)
    if not series.labels or 0.0 not in series.labels:
        raise ValueError("metrics needs baseline labels in the manifest")
    base_labels = series.labels[0.0]
    label_ids = args.label_ids or sorted(
        int(v) for v in np.unique(base_labels) if v != 0
    )
    times = args.times
    dims = series.baseline.dims

    trajectories = metrics.structure_trajectories(
        state, base_labels, label_ids, times, deadband=args.deadband
    )
    dice_at = {}
    for months, grid in series.labels.items():
        if months == 0.0:
            continue
        field = trainer.predict_field(state, months, dims)
        warped = metrics.warp_labels(grid, field.phi)
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

    if args.holdout is not None:
        _holdout_protocol(args, state, series, base_labels, label_ids)
    _echo_config(
        args.out, "metrics",
        {"times": times, "label_ids": label_ids, "holdout": args.holdout},
    )
    return EXIT_OK


def _holdout_protocol(args, full_state, series, base_labels, label_ids):
    import numpy as np

    from . import fileio, metrics, trainer
    from .metrics import JacobianMap
    from .volume import Volume4DSeries

    months = args.holdout
    keep = [(m, v) for m, v in series.followups if m != months]
    if len(keep) == len(series.followups):
        raise ValueError(f"--holdout {months}: no scan at that time")
    if not keep:
        raise ValueError("cannot hold out the only follow-up")
    reduced = Volume4DSeries(series.baseline, keep, labels=series.labels)
    resolved = resolve_options(args, _FIT_OPTIONS)
    config = _fit_config_from(resolved)
    config.time_horizon = config.time_horizon or max(series.times)
    refit_state, _ = trainer.fit(reduced, config)

    dims = series.baseline.dims
    field_h = trainer.predict_field(refit_state, months, dims)
    field_f = trainer.predict_field(full_state, months, dims)
    residual = metrics.residual_jacobian(
        JacobianMap(months, field_h.jac_det), JacobianMap(months, field_f.jac_det)
    )
    fileio.write_raw(os.path.join(args.out, "holdout_residual_jac.raw"), residual)
    if args.slice_index is not None:
        fileio.write_slice_image(
            residual, args.slice_axis or "z", args.slice_index, (-0.2, 0.2),
            os.path.join(args.out, "holdout_residual_jac.pgm"),
        )
    rows = [["label", "dice_holdout", "residual_mean_abs"]]
    held_labels = series.labels.get(months)
    for lid in label_ids:
        dice_val = ""
        if held_labels is not None:
            warped = metrics.warp_labels(held_labels, field_h.phi)
            dice_val = metrics.dice(base_labels, warped, lid)
        core = base_labels == lid
        rows.append([lid, dice_val, float(np.abs(residual[core]).mean())])
    fileio.write_csv(os.path.join(args.out, "holdout_report.csv"), rows)


def _cmd_phantom(args) -> int:
    import json

    from . import fileio
    from .phantom import PhantomSpec, generate_phantom, generate_raw

    resolved = resolve_options(args, _PHANTOM_OPTIONS)
    if args.preset is not None:
        resolved["sigma"] = _NOISE_PRESETS[args.preset]
    seed = resolved["seed"] if args.seed is None else args.seed
    spec = PhantomSpec(
        dims=tuple(resolved["dims"]),
        times=tuple(resolved["times"]),
        sigma=resolved["sigma"],
        growth=resolved["growth"],
        radius=resolved["radius"],
        edge_width=resolved["edge_width"],
        ring_amplitude=resolved["ring_amplitude"],
        ring_period=resolved["ring_period"],
        seed=seed,
    )
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
    _echo_config(args.out, "phantom", resolved)
    print(f"phantom: {len(spec.times)} volumes at {spec.dims}", file=sys.stderr)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    report = run_gradcheck(
        seed=args.seed if args.seed is not None else 0,
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
