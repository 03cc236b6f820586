"""I/O tests: bit-exact raw round trips, a hand-built NIfTI fixture writer
independent of the reader, PGM re-parse through a second parser, manifests,
and the model container."""

import gzip
import json
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

from ndfreg import fileio, network as net
from ndfreg.fileio import FileFormatError


# ---------------------------------------------------------------------------
# independent fixture writers / parsers
# ---------------------------------------------------------------------------


def build_nifti(
    values,
    dtype_code,
    scl_slope=0.0,
    scl_inter=0.0,
    gzipped=False,
    magic=b"n+1\x00",
    ndim=3,
    nt=1,
    vox_offset=352,
    truncate=0,
):
    """Minimal NIfTI-1 writer built straight from the published header
    layout; shares no code with the package reader."""
    np_dtype = {2: "u1", 4: "<i2", 8: "<i4", 16: "<f4", 64: "<f8"}[dtype_code]
    arr = np.asarray(values).astype(np_dtype)
    nx, ny, nz = arr.shape
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    dim = [ndim, nx, ny, nz, nt, 1, 1, 1]
    struct.pack_into("<8h", header, 40, *dim)
    struct.pack_into("<h", header, 70, dtype_code)
    struct.pack_into("<h", header, 72, arr.dtype.itemsize * 8)
    struct.pack_into("<8f", header, 76, 1.0, 1.5, 2.0, 2.5, 0, 0, 0, 0)
    struct.pack_into("<f", header, 108, float(vox_offset))
    struct.pack_into("<f", header, 112, scl_slope)
    struct.pack_into("<f", header, 116, scl_inter)
    struct.pack_into("<4f", header, 280, 1.0, 0.0, 0.0, 0.0)
    header[344:348] = magic
    payload = arr.tobytes(order="F")
    blob = bytes(header) + b"\x00" * (vox_offset - 348) + payload
    if truncate:
        blob = blob[:-truncate]
    if gzipped:
        blob = gzip.compress(blob)
    return blob


def parse_pgm(path):
    """Independent P5 parser."""
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:2] == b"P5"
    parts = blob.split(b"\n", 3)
    width, height = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    assert maxval == 255
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return pixels.reshape(height, width)


# ---------------------------------------------------------------------------
# raw format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
def test_raw_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(0)
    if dtype == np.int32:
        arr = rng.integers(-5, 9, size=(8, 8, 8)).astype(dtype)
    else:
        arr = rng.uniform(0, 1, size=(8, 8, 8)).astype(dtype)
    path = str(tmp_path / "vol.raw")
    fileio.write_raw(path, arr, spacing=(1.0, 1.25, 1.5))
    back, spacing = fileio._read_raw_array(path)
    assert back.dtype == arr.dtype
    assert back.tobytes() == arr.tobytes()
    assert spacing == (1.0, 1.25, 1.5)


def test_raw_tampered_length_rejected(tmp_path):
    path = str(tmp_path / "vol.raw")
    fileio.write_raw(path, np.zeros((4, 4, 4), dtype=np.float64))
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<Q", blob, 32, 99)  # corrupt payload length
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FileFormatError, match="inconsistent"):
        fileio.read_raw(path)


def test_raw_wrong_magic_rejected(tmp_path):
    path = str(tmp_path / "vol.raw")
    fileio.write_raw(path, np.zeros((4, 4, 4), dtype=np.float64))
    blob = bytearray(open(path, "rb").read())
    blob[:6] = b"NOPE!!"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FileFormatError, match="magic"):
        fileio.read_raw(path)


def test_raw_labels_round_trip(tmp_path):
    labels = np.arange(27, dtype=np.int32).reshape(3, 3, 3)
    path = str(tmp_path / "labels.raw")
    fileio.write_raw(path, labels)
    np.testing.assert_array_equal(fileio.read_raw_labels(path), labels)
    fpath = str(tmp_path / "f.raw")
    fileio.write_raw(fpath, np.zeros((2, 2, 2)))
    with pytest.raises(FileFormatError, match="int32"):
        fileio.read_raw_labels(fpath)


# ---------------------------------------------------------------------------
# NIfTI subset
# ---------------------------------------------------------------------------


def test_nifti_float32_fastest_x_order(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
    path = str(tmp_path / "a.nii")
    open(path, "wb").write(build_nifti(values, 16))
    vol = fileio.read_nifti(path)
    # values 0..7 normalized by /7; fastest-x layout preserved
    np.testing.assert_allclose(vol.values, values / 7.0, atol=1e-7)
    assert vol.spacing == (1.5, 2.0, 2.5)


def test_nifti_scl_slope(tmp_path):
    """A nonzero scl_slope scales the stored values before min-max
    normalization, which hides a positive slope and any intercept; a
    negative slope flips the normalized values (stored 0 -> 1, 3 -> -5)."""
    values = np.full((2, 2, 2), 3, dtype=np.int16)
    values[0, 0, 0] = 0
    path = str(tmp_path / "b.nii")
    for slope, inter, low in [(0.0, 5.0, 0.0), (2.0, 1.0, 0.0), (-2.0, 1.0, 1.0)]:
        open(path, "wb").write(build_nifti(values, 4, scl_slope=slope, scl_inter=inter))
        vol = fileio.read_nifti(path)
        assert vol.values[0, 0, 0] == low
        assert vol.values[1, 1, 1] == 1.0 - low


def test_nifti_gzip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 100, size=(3, 4, 5)).astype(np.float64)
    path = str(tmp_path / "c.nii.gz")
    open(path, "wb").write(build_nifti(values, 64, gzipped=True))
    vol = fileio.read_nifti(path)
    expect = (values - values.min()) / (values.max() - values.min())
    np.testing.assert_allclose(vol.values, expect, atol=1e-12)


def test_nifti_4d_rejected(tmp_path):
    values = np.zeros((2, 2, 2), dtype=np.float32)
    path = str(tmp_path / "d.nii")
    open(path, "wb").write(build_nifti(values, 16, ndim=4, nt=4))
    with pytest.raises(FileFormatError, match="split time points externally"):
        fileio.read_nifti(path)


def test_nifti_wrong_magic_rejected(tmp_path):
    values = np.zeros((2, 2, 2), dtype=np.float32)
    path = str(tmp_path / "e.nii")
    open(path, "wb").write(build_nifti(values, 16, magic=b"ni1\x00"))
    with pytest.raises(FileFormatError, match="magic"):
        fileio.read_nifti(path)


def test_nifti_unsupported_dtype_rejected(tmp_path):
    blob = bytearray(build_nifti(np.zeros((2, 2, 2), dtype=np.float32), 16))
    struct.pack_into("<h", blob, 70, 128)  # RGB24: not in the subset
    path = str(tmp_path / "f.nii")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FileFormatError, match="datatype"):
        fileio.read_nifti(path)


def test_nifti_truncated_rejected(tmp_path):
    values = np.zeros((4, 4, 4), dtype=np.float32)
    path = str(tmp_path / "g.nii")
    open(path, "wb").write(build_nifti(values, 16, truncate=10))
    with pytest.raises(FileFormatError, match="truncated"):
        fileio.read_nifti(path)


def test_nifti_labels(tmp_path):
    labels = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    path = str(tmp_path / "h.nii")
    open(path, "wb").write(build_nifti(labels, 8))
    np.testing.assert_array_equal(fileio.read_nifti_labels(path), labels)
    fpath = str(tmp_path / "i.nii")
    open(fpath, "wb").write(build_nifti(np.zeros((2, 2, 2)), 16))
    with pytest.raises(FileFormatError, match="integer"):
        fileio.read_nifti_labels(fpath)


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_nifti_labels_read_without_a_float_copy(tmp_path, slope):
    """A label read holds the file's bytes and one int32 result: its peak
    stays below 8 bytes per voxel, scaled or not (a float64 copy of the
    grid alone is 8)."""
    labels = np.random.default_rng(4).integers(0, 9, size=(64, 64, 64)).astype(np.int16)
    path = str(tmp_path / "big.nii")
    open(path, "wb").write(build_nifti(labels, 4, scl_slope=slope))
    tracemalloc.start()
    try:
        got = fileio.read_nifti_labels(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, labels)
    assert peak < 8 * labels.size


def test_nifti_agrees_with_reference_conversion(tmp_path):
    """Three fixtures: reader output voxel-exact against the independent
    writer's source arrays."""
    rng = np.random.default_rng(2)
    fixtures = [
        (rng.uniform(-50, 50, size=(5, 4, 3)).astype(np.float32), 16, False),
        (rng.integers(0, 200, size=(4, 4, 4)).astype(np.uint8), 2, False),
        (rng.integers(-300, 300, size=(3, 5, 4)).astype(np.int16), 4, True),
    ]
    for i, (values, code, gz) in enumerate(fixtures):
        path = str(tmp_path / f"fix{i}.nii{'.gz' if gz else ''}")
        open(path, "wb").write(build_nifti(values, code, gzipped=gz))
        raw, _, _, _ = fileio._parse_nifti(path)
        assert raw.dtype == values.dtype
        np.testing.assert_array_equal(raw, values)


# ---------------------------------------------------------------------------
# slice images
# ---------------------------------------------------------------------------


def test_pgm_midpoint_rounds_half_up(tmp_path):
    path = str(tmp_path / "s.pgm")
    fileio.write_slice_image(np.ones((4, 5, 6)), "z", 3, (0.0, 2.0), path)
    pixels = parse_pgm(path)
    assert pixels.shape == (4, 5)
    assert np.all(pixels == 128)


def test_pgm_reparse_exact(tmp_path):
    rng = np.random.default_rng(3)
    vol = rng.uniform(0.5, 1.5, size=(6, 7, 8))
    path = str(tmp_path / "t.pgm")
    fileio.write_slice_image(vol, 1, 2, (0.6, 1.4), path)
    pixels = parse_pgm(path)
    plane = vol[:, 2, :]
    expect = np.floor(np.clip((plane - 0.6) / 0.8, 0, 1) * 255 + 0.5).astype(np.uint8)
    np.testing.assert_array_equal(pixels, expect)


def test_pgm_bad_axis_index(tmp_path):
    path = str(tmp_path / "u.pgm")
    with pytest.raises(FileFormatError, match="axis"):
        fileio.write_slice_image(np.ones((3, 3, 3)), "w", 0, (0, 1), path)
    with pytest.raises(FileFormatError, match="out of bounds"):
        fileio.write_slice_image(np.ones((3, 3, 3)), "x", 5, (0, 1), path)


# ---------------------------------------------------------------------------
# CSV and manifests
# ---------------------------------------------------------------------------


def test_csv_quoting_and_header(tmp_path):
    path = str(tmp_path / "m.csv")
    fileio.write_csv(path, [["time", "label,name"], [1.5, 'say "hi"']])
    text = open(path).read()
    assert text.splitlines()[0] == 'time,"label,name"'
    assert '"say ""hi"""' in text


def test_manifest_round_trip(tmp_path):
    path = str(tmp_path / "manifest.txt")
    entries = [(0.0, "vol0.raw", "lab0.raw"), (12.0, "vol1.raw", None)]
    fileio.write_manifest(path, entries)
    assert fileio.read_manifest(path) == entries


@pytest.mark.parametrize("months", [12.3456789, 1234567.0, 1e-7 + 36.0])
def test_manifest_months_round_trip_exactly(tmp_path, months):
    """Months are written in their shortest round-trip form: six
    significant digits would read 12.3456789 back as 12.3457 and 1234567
    as 1234570."""
    path = str(tmp_path / "manifest.txt")
    entries = [(0.0, "vol0.raw", None), (months, "vol1.raw", None)]
    fileio.write_manifest(path, entries)
    assert fileio.read_manifest(path) == entries


def test_manifest_validation(tmp_path):
    path = str(tmp_path / "bad.txt")
    open(path, "w").write("12 vol.raw\n0 base.raw\n")
    with pytest.raises(FileFormatError, match="baseline"):
        fileio.read_manifest(path)
    open(path, "w").write("0 base.raw\n12 a.raw\n6 b.raw\n")
    with pytest.raises(FileFormatError, match="increasing"):
        fileio.read_manifest(path)
    open(path, "w").write("")
    with pytest.raises(FileFormatError, match="empty"):
        fileio.read_manifest(path)


@pytest.mark.parametrize("months", ["nan", "inf"])
def test_manifest_non_finite_months_rejected(tmp_path, months):
    """A month that is not finite is refused on its own line; a NaN or
    infinite follow-up would pass the ordering check, as `b <= a` is False
    for NaN and for an infinite b."""
    path = str(tmp_path / "bad.txt")
    open(path, "w").write(f"0 base.raw\n{months} vol_02.raw\n")
    with pytest.raises(FileFormatError, match=r"bad\.txt:2: months must be finite"):
        fileio.read_manifest(path)


def test_load_series(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(3):
        fileio.write_raw(
            str(tmp_path / f"vol{i}.raw"), rng.uniform(0, 1, size=(6, 6, 6))
        )
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    labels[2:4] = 1
    fileio.write_raw(str(tmp_path / "lab0.raw"), labels)
    fileio.write_manifest(
        str(tmp_path / "manifest.txt"),
        [(0.0, "vol0.raw", "lab0.raw"), (6.0, "vol1.raw", None), (18.0, "vol2.raw", None)],
    )
    series = fileio.load_series(str(tmp_path / "manifest.txt"))
    assert series.times == [0.0, 6.0, 18.0]
    np.testing.assert_array_equal(series.labels[0.0], labels)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    cfg = net.NetworkConfig(hidden_width=6, depth=3, time_hidden_width=4, time_embed_width=5)
    state = net.init_network(seed=9, config=cfg, time_horizon=36.0)
    path = str(tmp_path / "model.ndf")
    fileio.save_model(path, state)
    with open(path, "rb") as fh:
        assert fh.read(8) == b"NDFIELD1"
    back = fileio.load_model(path)
    assert back.config == state.config
    assert back.time_horizon == 36.0
    assert back.seed == 9
    for a, b in zip(state.param_arrays(), back.param_arrays()):
        assert a.tobytes() == b.tobytes()


def test_model_save_deterministic(tmp_path):
    state = net.init_network(
        seed=3,
        config=net.NetworkConfig(hidden_width=4, depth=2, time_hidden_width=3, time_embed_width=4),
    )
    p1, p2 = str(tmp_path / "m1.ndf"), str(tmp_path / "m2.ndf")
    fileio.save_model(p1, state)
    fileio.save_model(p2, state)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_model_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ndf")
    open(path, "wb").write(b"NOTANDF0" + b"\x00" * 32)
    with pytest.raises(FileFormatError, match="magic"):
        fileio.load_model(path)


def test_model_f32_state_saved_as_f64(tmp_path):
    cfg = net.NetworkConfig(hidden_width=4, depth=2, time_hidden_width=3, time_embed_width=4)
    state = net.init_network(seed=1, config=cfg, dtype=np.float32)
    path = str(tmp_path / "m32.ndf")
    fileio.save_model(path, state)
    back = fileio.load_model(path)
    assert back.param_arrays()[0].dtype == np.float64
    np.testing.assert_allclose(
        back.param_arrays()[0], state.param_arrays()[0].astype(np.float64)
    )


SMALL_NET = net.NetworkConfig(hidden_width=4, depth=2, time_hidden_width=3, time_embed_width=4)


def saved_model(tmp_path):
    """JSON header (as a dict) and array payload of a saved small model."""
    path = str(tmp_path / "good.ndf")
    fileio.save_model(path, net.init_network(seed=1, config=SMALL_NET))
    blob = open(path, "rb").read()
    (head_len,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20 : 20 + head_len]), blob[20 + head_len :]


def write_model(tmp_path, header, payload, head=None):
    """A container laid out by hand: magic, version 1, header length, header."""
    if head is None:
        head = json.dumps(header).encode("utf-8")
    path = str(tmp_path / "bad.ndf")
    open(path, "wb").write(b"NDFIELD1" + struct.pack("<IQ", 1, len(head)) + head + payload)
    return path


def test_model_array_shape_mismatch_rejected(tmp_path):
    header, payload = saved_model(tmp_path)
    header["arrays"][0][1] = [3, 4]  # psi0_w is (4, 3); same element count
    path = write_model(tmp_path, header, payload)
    with pytest.raises(FileFormatError, match="does not match architecture"):
        fileio.load_model(path)


def test_model_time_network_shape_mismatch_rejected(tmp_path):
    header, payload = saved_model(tmp_path)
    names = [name for name, _ in header["arrays"]]
    header["arrays"][names.index("theta1_w")][1] = [3, 4]  # is (4, 3)
    path = write_model(tmp_path, header, payload)
    with pytest.raises(FileFormatError, match="does not match architecture"):
        fileio.load_model(path)


def test_array_shapes_are_the_parameter_shapes():
    """The container's array manifest and `init_network` read the layer
    shapes from the one NetworkConfig source."""
    cfg = net.NetworkConfig(hidden_width=5, depth=4, time_hidden_width=3, time_embed_width=7)
    assert cfg.time_layer_shapes() == [(3, 1), (7, 3)]
    state = net.init_network(seed=0, config=cfg)
    assert fileio._array_shapes(cfg) == [a.shape for a in state.param_arrays()]


def non_finite_model(tmp_path, value):
    """A small model saved with one weight of psi1_w set to `value`."""
    state = net.init_network(seed=1, config=SMALL_NET)
    state.psi[1][0][0, 0] = value
    path = str(tmp_path / "non_finite.ndf")
    fileio.save_model(path, state)
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_non_finite_weight_rejected(tmp_path, value):
    with pytest.raises(FileFormatError, match="array psi1_w has non-finite values"):
        fileio.load_model(non_finite_model(tmp_path, value))


@pytest.mark.parametrize("key, value, named", [
    ("time_horizon", 0.0, "time_horizon"),
    ("time_horizon", -12.0, "time_horizon"),
    ("time_horizon", float("nan"), "time_horizon"),
    ("time_horizon", float("inf"), "time_horizon"),
    ("omega0", float("nan"), "omega0"),
], ids=["horizon-0", "horizon-negative", "horizon-nan", "horizon-inf", "omega0-nan"])
def test_model_bad_header_scalar_rejected(tmp_path, capsys, key, value, named):
    """A hand-edited header scalar no fit writes is refused when the model
    is read, and `predict` exits 2 naming it with nothing written."""
    from ndfreg import cli

    header, payload = saved_model(tmp_path)
    (header["network"] if key == "omega0" else header)[key] = value
    path = write_model(tmp_path, header, payload)
    with pytest.raises(FileFormatError, match=named):
        fileio.load_model(path)
    out = tmp_path / "out"
    rc = cli.main(["predict", "--model", path, "--time", "12", "--dims", "4,4,4",
                   "--out", str(out)])
    assert rc == cli.EXIT_INPUT
    assert named in capsys.readouterr().err
    assert not list(out.glob("*.raw"))


def test_model_trailing_bytes_rejected(tmp_path):
    header, payload = saved_model(tmp_path)
    fileio.load_model(write_model(tmp_path, header, payload))  # intact: loads
    path = write_model(tmp_path, header, payload + b"\x00" * 8)
    with pytest.raises(FileFormatError, match="8 trailing bytes"):
        fileio.load_model(path)


@pytest.mark.parametrize("keep", [8, 15, 40])
def test_model_truncated_header_rejected(tmp_path, keep):
    blob = open(write_model(tmp_path, *saved_model(tmp_path)), "rb").read()
    path = str(tmp_path / "cut.ndf")
    open(path, "wb").write(blob[:keep])
    with pytest.raises(FileFormatError, match="truncated"):
        fileio.load_model(path)


def test_model_malformed_json_rejected(tmp_path):
    header, payload = saved_model(tmp_path)
    path = write_model(tmp_path, header, payload, head=b'{"network": ')
    with pytest.raises(FileFormatError, match="malformed JSON"):
        fileio.load_model(path)


def test_model_unknown_config_key_rejected(tmp_path):
    header, payload = saved_model(tmp_path)
    header["network"]["dropout"] = 0.5
    path = write_model(tmp_path, header, payload)
    with pytest.raises(FileFormatError, match="dropout"):
        fileio.load_model(path)


DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_model_with_switch_keys_loads():
    """A model file whose header still carries the two retired network
    switches, both true (the one architecture), loads to the parameters
    it was saved with."""
    path = DATA / "model_with_switch_keys.ndf"
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", blob, 12)
    network = json.loads(blob[20 : 20 + head_len])["network"]
    assert network["time_embed_output_leaky"] is network["concat_every_layer"] is True
    state = fileio.load_model(str(path))
    assert state.config == net.NetworkConfig(
        hidden_width=4, depth=3, time_hidden_width=3, time_embed_width=4
    )
    assert state.checksum() == (
        "355e4c8d22db5508f07a983470d6ebf8b83704f8f1a7afc0b958242366d156bf"
    )
    assert (state.seed, state.time_horizon) == (5, 24.0)


@pytest.mark.parametrize("key", ["time_embed_output_leaky", "concat_every_layer"])
def test_model_with_a_switch_off_rejected(tmp_path, key):
    header, payload = saved_model(tmp_path)
    assert key not in header["network"]  # save_model no longer writes it
    header["network"][key] = True
    fileio.load_model(write_model(tmp_path, header, payload))  # the one architecture
    header["network"][key] = False
    with pytest.raises(FileFormatError, match=f"network {key} = false"):
        fileio.load_model(write_model(tmp_path, header, payload))


def test_cli_bad_model_is_input_error(tmp_path, capsys):
    from ndfreg import cli

    header, payload = saved_model(tmp_path)
    path = write_model(tmp_path, header, payload + b"\x01")
    rc = cli.main(["predict", "--model", path, "--time", "1", "--dims", "4,4,4",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INPUT
    assert "trailing bytes" in capsys.readouterr().err


def test_cli_non_finite_model_is_input_error(tmp_path, capsys):
    """A NaN weight would make every |J| NaN, which `predict` counts as no
    folded voxel; the model is refused before anything is written."""
    from ndfreg import cli

    out = tmp_path / "out"
    rc = cli.main(["predict", "--model", non_finite_model(tmp_path, np.nan), "--time", "1",
                   "--dims", "4,4,4", "--out", str(out)])
    assert rc == cli.EXIT_INPUT
    assert "psi1_w has non-finite values" in capsys.readouterr().err
    assert not any(p.suffix == ".raw" for p in out.iterdir())
