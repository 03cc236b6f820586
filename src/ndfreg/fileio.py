"""File ingestion and emission: NDVOL raw volumes, a NIfTI-1 subset
reader, PGM slice images, CSV, scan manifests, and the NDFIELD model
container.

A volume is its values and spacing: NIfTI orientation fields are not read.

Readers reject malformed input outright; no partially-read volume is ever
returned.  Writers go through a temp-file-plus-rename so output files are
atomic.  Raw round trips are bit-exact for every supported dtype.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import struct

import numpy as np

from .volume import Volume3D, Volume4DSeries, normalize_intensities

__all__ = [
    "FileFormatError",
    "write_raw",
    "read_raw",
    "read_raw_labels",
    "read_nifti",
    "read_nifti_labels",
    "write_slice_image",
    "write_csv",
    "read_manifest",
    "write_manifest",
    "load_volume",
    "load_labels",
    "load_series",
    "save_model",
    "load_model",
    "atomic_write",
]


class FileFormatError(ValueError):
    pass


def atomic_write(path: str, payload: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# NDVOL raw format: magic, dtype tag, dims, spacing, payload length, voxels
# (x-fastest order).
# ---------------------------------------------------------------------------

_RAW_MAGIC = b"NDVOL1"
_RAW_HEADER = struct.Struct("<6sBB3I3fQ")
_RAW_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4")}
_RAW_TAG_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int32): 2}


def write_raw(path: str, array: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    array = np.asarray(array)
    if array.ndim != 3:
        raise FileFormatError(f"raw volumes are 3-d, got shape {array.shape}")
    if array.dtype not in _RAW_TAG_OF:
        raise FileFormatError(f"unsupported raw dtype {array.dtype}")
    payload = array.astype(array.dtype.newbyteorder("<")).tobytes(order="F")
    header = _RAW_HEADER.pack(
        _RAW_MAGIC,
        _RAW_TAG_OF[array.dtype],
        0,
        *array.shape,
        *(float(s) for s in spacing),
        len(payload),
    )
    atomic_write(path, header + payload)


def _read_raw_array(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _RAW_HEADER.size:
        raise FileFormatError(f"{path}: truncated raw header")
    magic, tag, _, nx, ny, nz, sx, sy, sz, nbytes = _RAW_HEADER.unpack_from(blob)
    if magic != _RAW_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if tag not in _RAW_TAGS:
        raise FileFormatError(f"{path}: unknown dtype tag {tag}")
    dtype = _RAW_TAGS[tag]
    if nbytes != nx * ny * nz * dtype.itemsize:
        raise FileFormatError(
            f"{path}: payload length {nbytes} inconsistent with dims "
            f"({nx},{ny},{nz}) and dtype {dtype}"
        )
    data = blob[_RAW_HEADER.size :]
    if len(data) != nbytes:
        raise FileFormatError(f"{path}: expected {nbytes} payload bytes, got {len(data)}")
    array = np.frombuffer(data, dtype=dtype).reshape((nx, ny, nz), order="F")
    return array, (sx, sy, sz)


def read_raw(path: str) -> Volume3D:
    """Read an NDVOL intensity volume (normalized to [0,1])."""
    array, spacing = _read_raw_array(path)
    if array.dtype == np.int32:
        raise FileFormatError(f"{path}: integer volume; use read_raw_labels")
    return normalize_intensities(array.astype(np.float64), spacing=spacing)


def read_raw_labels(path: str) -> np.ndarray:
    array, _ = _read_raw_array(path)
    if array.dtype != np.int32:
        raise FileFormatError(f"{path}: label volumes must be int32")
    return np.ascontiguousarray(array)


# ---------------------------------------------------------------------------
# NIfTI-1 subset: single-file .nii / .nii.gz, 3-d, common datatypes.
# ---------------------------------------------------------------------------

_NIFTI_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}


def _read_nifti_blob(path: str) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob


def _parse_nifti(path: str):
    """(stored voxels as a read-only view, spacing, scl_slope, scl_inter):
    the NIfTI twin of `_read_raw_array`."""
    blob = _read_nifti_blob(path)
    if len(blob) < 348:
        raise FileFormatError(f"{path}: shorter than a NIfTI-1 header")
    sizeof_hdr = struct.unpack_from("<i", blob, 0)[0]
    bo = "<"
    if sizeof_hdr != 348:
        sizeof_hdr = struct.unpack_from(">i", blob, 0)[0]
        if sizeof_hdr != 348:
            raise FileFormatError(f"{path}: not a NIfTI-1 file (sizeof_hdr)")
        bo = ">"
    magic = blob[344:348]
    if magic != b"n+1\x00":
        raise FileFormatError(f"{path}: wrong magic {magic!r}; only single-file n+1")
    dim = struct.unpack_from(f"{bo}8h", blob, 40)
    if dim[0] == 4 and dim[4] > 1:
        raise FileFormatError(
            f"{path}: 4-d file with {dim[4]} time points; split time points "
            "externally and list them in a manifest"
        )
    if dim[0] != 3 and not (dim[0] == 4 and dim[4] == 1):
        raise FileFormatError(f"{path}: unsupported dimensionality dim[0]={dim[0]}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise FileFormatError(f"{path}: bad dims {(nx, ny, nz)}")
    datatype = struct.unpack_from(f"{bo}h", blob, 70)[0]
    if datatype not in _NIFTI_DTYPES:
        raise FileFormatError(f"{path}: unsupported datatype code {datatype}")
    pixdim = struct.unpack_from(f"{bo}8f", blob, 76)
    vox_offset = int(struct.unpack_from(f"{bo}f", blob, 108)[0])
    scl_slope, scl_inter = struct.unpack_from(f"{bo}2f", blob, 112)
    if vox_offset < 348:
        raise FileFormatError(f"{path}: vox_offset {vox_offset} inside the header")
    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(bo)
    count = nx * ny * nz
    end = vox_offset + count * dtype.itemsize
    if len(blob) < end:
        raise FileFormatError(
            f"{path}: truncated payload ({len(blob)} bytes, need {end})"
        )
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=vox_offset)
    array = data.reshape((nx, ny, nz), order="F")
    return array, (pixdim[1], pixdim[2], pixdim[3]), scl_slope, scl_inter


def read_nifti(path: str) -> Volume3D:
    """Parse the NIfTI-1 subset and return a normalized volume; a nonzero
    scl_slope scales the stored values before normalization."""
    array, spacing, scl_slope, scl_inter = _parse_nifti(path)
    values = array.astype(np.float64)
    if scl_slope != 0.0:
        values = values * scl_slope + scl_inter
    return normalize_intensities(values, spacing=spacing)


def read_nifti_labels(path: str) -> np.ndarray:
    """Integer label grid from a NIfTI file (scaling is ignored): one
    C-ordered int32 copy of the stored voxels."""
    array, _, _, _ = _parse_nifti(path)
    if array.dtype.kind not in "iu":
        raise FileFormatError(f"{path}: labels need an integer datatype")
    return np.array(array, dtype=np.int32, order="C")


# ---------------------------------------------------------------------------
# slice images (binary PGM) -----------------------------------------------


_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


def write_slice_image(values: np.ndarray, axis, index: int, value_range, path: str):
    """8-bit grayscale P5 image of one slice, linearly windowed over
    `value_range` (clamped; round-half-up)."""
    values = np.asarray(values, dtype=np.float64)
    if axis not in _AXES:
        raise FileFormatError(f"bad axis {axis!r}")
    ax = _AXES[axis]
    if not 0 <= index < values.shape[ax]:
        raise FileFormatError(f"slice index {index} out of bounds on axis {ax}")
    lo, hi = value_range
    if not hi > lo:
        raise FileFormatError(f"empty value range [{lo}, {hi}]")
    plane = np.take(values, index, axis=ax)
    win = np.clip((plane - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.floor(win * 255.0 + 0.5).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    atomic_write(path, header + pixels.tobytes(order="C"))


def write_csv(path: str, rows):
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    atomic_write(path, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# manifests: one scan per line, "<months> <path> [<labels_path>]",
# baseline first with months 0.
# ---------------------------------------------------------------------------


def read_manifest(path: str):
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise FileFormatError(f"{path}:{lineno}: expected 2 or 3 fields")
            try:
                months = float(parts[0])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: bad months {parts[0]!r}")
            if not np.isfinite(months):
                raise FileFormatError(f"{path}:{lineno}: months must be finite, got {parts[0]!r}")
            entries.append((months, parts[1], parts[2] if len(parts) == 3 else None))
    if not entries:
        raise FileFormatError(f"{path}: empty manifest")
    if entries[0][0] != 0.0:
        raise FileFormatError(f"{path}: baseline must come first with months 0")
    times = [e[0] for e in entries]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise FileFormatError(f"{path}: months must be strictly increasing")
    return entries


def write_manifest(path: str, entries):
    """Write (months, volume path, labels path or None) entries; months in
    their shortest round-trip form, so `read_manifest` reads them back
    exactly."""
    lines = []
    for months, vol_path, labels_path in entries:
        row = f"{float(months)!r} {vol_path}"
        if labels_path:
            row += f" {labels_path}"
        lines.append(row)
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_volume(path: str) -> Volume3D:
    """A scan from NIfTI-1 (.nii, .nii.gz) or NDVOL (any other name)."""
    if path.endswith((".nii", ".nii.gz")):
        return read_nifti(path)
    return read_raw(path)


def load_labels(path: str) -> np.ndarray:
    """A label grid from NIfTI-1 (.nii, .nii.gz) or NDVOL (any other name)."""
    if path.endswith((".nii", ".nii.gz")):
        return read_nifti_labels(path)
    return read_raw_labels(path)


def load_series(manifest_path: str, labels: bool = True) -> Volume4DSeries:
    """Read all scans named by a manifest, and with `labels` its label
    grids; without, the series has no labels."""
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    entries = read_manifest(manifest_path)
    if len(entries) < 2:
        raise FileFormatError(f"{manifest_path}: need at least 2 scans")
    volumes = [(m, load_volume(resolve(p))) for m, p, _ in entries]
    grids = {
        m: load_labels(resolve(lp)) for m, _, lp in entries if labels and lp is not None
    }
    return Volume4DSeries(
        volumes[0][1],
        [(m, v) for m, v in volumes[1:]],
        labels=grids or None,
    )


# ---------------------------------------------------------------------------
# model container: magic NDFIELD1, version, JSON header, f64 LE arrays.
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"NDFIELD1"
_MODEL_VERSION = 1
_MODEL_PREFIX = struct.Struct("<IQ")  # version, JSON header length
# network keys of files written when the architecture had switches: true
# names the one architecture built now, false one no longer built
_RETIRED_NETWORK_KEYS = ("time_embed_output_leaky", "concat_every_layer")


def _array_names(config: NetworkConfig):
    names = []
    for i in range(config.depth):
        names += [f"psi{i}_w", f"psi{i}_b"]
    names += ["theta0_w", "theta0_b", "theta1_w", "theta1_b"]
    return names


def _array_shapes(config: NetworkConfig):
    """Shapes of the arrays `_array_names` lists, in the same order."""
    shapes = []
    for out, fan_in in config.layer_shapes() + config.time_layer_shapes():
        shapes += [(out, fan_in), (out, 1)]
    return shapes


def _network_config(fields: dict) -> NetworkConfig:
    """The NetworkConfig of a header's network fields; a retired key set
    to true is dropped and any other value of it is refused."""
    from .network import NetworkConfig

    fields = dict(fields)
    for key in _RETIRED_NETWORK_KEYS:
        value = fields.pop(key, True)
        if value is not True:
            raise ValueError(f"network {key} = {json.dumps(value)} is no longer supported")
    return NetworkConfig(**fields)


def save_model(path: str, state: NetworkState):
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in state.param_arrays()]
    names = _array_names(state.config)
    header = {
        "format": "ndfield",
        "network": {
            k: getattr(state.config, k) for k in state.config.__dataclass_fields__
        },
        "seed": state.seed,
        "time_horizon": state.time_horizon,
        "arrays": [[n, list(a.shape)] for n, a in zip(names, arrays)],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [_MODEL_MAGIC, _MODEL_PREFIX.pack(_MODEL_VERSION, len(head)), head]
    parts += [a.tobytes(order="C") for a in arrays]
    atomic_write(path, b"".join(parts))


def load_model(path: str) -> NetworkState:
    """Read an NDFIELD container; every mismatch with the architecture its
    header declares, and every non-finite weight, raises FileFormatError."""
    from .network import NetworkState

    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MODEL_MAGIC:
        raise FileFormatError(f"{path}: bad model magic {blob[:8]!r}")
    head_start = 8 + _MODEL_PREFIX.size
    if len(blob) < head_start:
        raise FileFormatError(f"{path}: truncated container header")
    version, head_len = _MODEL_PREFIX.unpack_from(blob, 8)
    if version != _MODEL_VERSION:
        raise FileFormatError(f"{path}: unsupported container version {version}")
    offset = head_start + head_len
    if len(blob) < offset:
        raise FileFormatError(f"{path}: truncated JSON header")
    try:
        header = json.loads(blob[head_start:offset].decode("utf-8"))
        config = _network_config(header["network"])
        config.validate()
        listed = [(name, tuple(shape)) for name, shape in header["arrays"]]
        seed = int(header.get("seed", 0))
        time_horizon = float(header.get("time_horizon", 1.0))
        if not (math.isfinite(time_horizon) and time_horizon > 0):
            raise ValueError(f"time_horizon must be finite and > 0, got {time_horizon}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: malformed JSON header: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad model header: {exc}") from None
    expected = list(zip(_array_names(config), _array_shapes(config)))
    if listed != expected:
        raise FileFormatError(
            f"{path}: array manifest {listed} does not match architecture {expected}"
        )
    arrays = []
    for name, shape in expected:
        count = int(np.prod(shape))
        end = offset + count * 8
        if len(blob) < end:
            raise FileFormatError(f"{path}: truncated array {name}")
        array = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(array).all():
            raise FileFormatError(f"{path}: array {name} has non-finite values")
        arrays.append(array.reshape(shape).copy())
        offset = end
    if len(blob) != offset:
        raise FileFormatError(f"{path}: {len(blob) - offset} trailing bytes")
    pairs = [(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2)]
    return NetworkState(
        config,
        pairs[: config.depth],
        pairs[config.depth :],
        seed=seed,
        time_horizon=time_horizon,
    )
