"""Trainer tests: sampling plans, the optimizer, the fitting loop's
bookkeeping, dense prediction, and warping."""

import weakref

import numpy as np
import pytest

from ndfreg import metrics, network as net, trainer
from ndfreg.losses import LossWeights
from ndfreg.phantom import PhantomSpec, generate_phantom, true_jacobian_det
from ndfreg.trainer import AdamState, FitConfig, adam_step, sample_plan
from ndfreg.volume import Volume3D, Volume4DSeries, grid_coordinates

from test_volume import scalar_trilinear_oracle

TOY_NET = net.NetworkConfig(hidden_width=8, depth=3, time_hidden_width=4, time_embed_width=8)
WITH_DJDT = net.DerivativeRequest(spatial=True, temporal=True)  # |J| and d|J|/dt


def tiny_series(seed=0):
    rng = np.random.default_rng(seed)
    base = Volume3D(rng.uniform(0, 1, size=(8, 8, 8)))
    f1 = Volume3D(np.clip(base.values + rng.uniform(-0.02, 0.02, base.dims), 0, 1))
    return Volume4DSeries(base, [(12.0, f1)])


def quick_config(**kw):
    defaults = dict(
        iterations=5,
        batch_points=64,
        learning_rate=1e-3,
        reg_time_grid_size=3,
        seed=1,
        log_every=2,
        network=TOY_NET,
        weights=LossWeights(lam=10, alpha=1, beta=1, gamma=0.1),
    )
    defaults.update(kw)
    return FitConfig(**defaults)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_plan_grid_k2_is_exact_endpoints():
    series = tiny_series()
    cfg = quick_config(reg_time_grid_size=2)
    plan = sample_plan(series, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(plan.reg_grid, [0.0, 1.0])


def test_plan_grid_extrapolation_endpoint():
    series = tiny_series()
    cfg = quick_config(reg_time_grid_size=4, t_extrap=1.5)
    plan = sample_plan(series, cfg, np.random.default_rng(0))
    assert plan.reg_grid[0] == 0.0
    assert plan.reg_grid[-1] == 1.5
    assert np.all(np.diff(plan.reg_grid) >= 0)


def test_plan_coords_in_domain():
    series = tiny_series()
    cfg = quick_config(batch_points=100_000)
    plan = sample_plan(series, cfg, np.random.default_rng(3))
    assert plan.coords.shape == (3, 100_000)
    assert plan.coords.min() >= -1.0
    assert plan.coords.max() <= 1.0


def test_plan_deterministic_given_rng_state():
    series = tiny_series()
    cfg = quick_config()
    p1 = sample_plan(series, cfg, np.random.default_rng(42))
    p2 = sample_plan(series, cfg, np.random.default_rng(42))
    assert p1.coords.tobytes() == p2.coords.tobytes()
    assert p1.reg_grid.tobytes() == p2.reg_grid.tobytes()


def test_plan_observed_times_normalized():
    series = tiny_series()
    plan = sample_plan(series, quick_config(), np.random.default_rng(0))
    np.testing.assert_allclose(plan.observed_times, [0.0, 1.0])


def test_plan_mask_sampling():
    series = tiny_series()
    mask = np.zeros((8, 8, 8))
    mask[:4] = 1.0  # x half-space
    cfg = quick_config(mask=mask, batch_points=2000)
    plan = sample_plan(series, cfg, np.random.default_rng(1))
    # x in [-1, ~ -1/7 + jitter]; all points stay left of the midplane
    assert plan.coords[0].max() < 0.1
    assert plan.coords[0].min() >= -1.0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, 2.0])]
    state = AdamState.zeros_like(params)
    state, ok = adam_step(params, [np.zeros(2)], state, quick_config())
    assert ok and state.step == 1
    np.testing.assert_array_equal(params[0], [1.0, 2.0])


def test_adam_first_step_magnitude():
    cfg = quick_config(learning_rate=0.01)
    params = [np.array([0.0])]
    state = AdamState.zeros_like(params)
    adam_step(params, [np.array([1.0])], state, cfg)
    # bias correction makes m_hat / sqrt(v_hat) = 1 at step 1
    assert params[0][0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_descends_quadratic():
    cfg = quick_config(learning_rate=0.05)
    params = [np.array([1.0])]
    state = AdamState.zeros_like(params)
    vals = []
    for _ in range(100):
        vals.append(params[0][0] ** 2)
        adam_step(params, [2 * params[0]], state, cfg)
    assert params[0][0] ** 2 < vals[0]
    assert vals[-1] < 1e-2


def test_adam_rejects_nonfinite_gradient():
    params = [np.array([1.0])]
    state = AdamState.zeros_like(params)
    state, ok = adam_step(params, [np.array([np.nan])], state, quick_config())
    assert not ok
    assert state.step == 0
    np.testing.assert_array_equal(params[0], [1.0])


# ---------------------------------------------------------------------------
# fit loop
# ---------------------------------------------------------------------------


def test_zero_iterations_returns_init():
    series = tiny_series()
    cfg = quick_config(iterations=0)
    state, report = trainer.fit(series, cfg)
    fresh = net.init_network(seed=cfg.seed, config=cfg.network, time_horizon=12.0)
    for a, b in zip(state.param_arrays(), fresh.param_arrays()):
        assert a.tobytes() == b.tobytes()
    assert report.history == []


def test_fit_reproducible_bit_identical():
    series = tiny_series()
    out = []
    for _ in range(2):
        state, report = trainer.fit(series, quick_config(iterations=8))
        out.append((state.checksum(), [l.breakdown.total for l in report.history]))
    assert out[0][0] == out[1][0]
    assert out[0][1] == out[1][1]


def test_fit_history_length_rule():
    series = tiny_series()
    _, report = trainer.fit(series, quick_config(iterations=10, log_every=3))
    assert len(report.history) == int(np.ceil(10 / 3))
    assert [e.iteration for e in report.history] == [1, 4, 7, 10]


def test_fit_requires_followup():
    base = Volume3D(np.random.default_rng(0).uniform(0, 1, (8, 8, 8)))
    with pytest.raises(ValueError, match="follow-up"):
        trainer.fit(Volume4DSeries(base, []), quick_config())


def test_fit_numerical_abort():
    series = tiny_series()
    # a diverging learning rate overflows the parameters after the first
    # step, so the next two iterations both see a non-finite total
    bad = quick_config(iterations=5, learning_rate=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(trainer.NumericalAbortError, match="non-finite"):
            trainer.fit(series, bad)


def test_fit_counts_a_rejected_step(monkeypatch):
    """A non-finite gradient on the second of four iterations: adam_step
    refuses that step, and the report counts it.  An iteration sweeps its
    one tape once per loss segment, so the iterations are told apart by
    their tapes."""
    backward = trainer.Tape.backward
    tapes = []

    def poisoned(tape, total):
        backward(tape, total)
        if not tapes or tapes[-1]() is not tape:
            tapes.append(weakref.ref(tape))
        if len(tapes) == 2:
            leaf = next(n for n in tape.nodes if n.adjoint is not None)
            leaf.adjoint = np.full_like(leaf.adjoint, np.nan)

    monkeypatch.setattr(trainer.Tape, "backward", poisoned)
    _, report = trainer.fit(tiny_series(), quick_config(iterations=4))
    assert len(tapes) == 4
    assert report.rejected_steps == 1
    assert report.peak_rss_mb > 0.0


def test_fit_time_horizon_stored():
    series = tiny_series()
    state, _ = trainer.fit(series, quick_config(iterations=1))
    assert state.time_horizon == 12.0


def test_fit_loss_descends_on_clean_phantom():
    spec = PhantomSpec(dims=(16, 16, 16), times=(0.0, 18.0, 36.0), sigma=0.0)
    series, _ = generate_phantom(spec)
    cfg = quick_config(
        iterations=150,
        batch_points=256,
        learning_rate=3e-3,
        precision="f32",
        log_every=1,
        network=net.NetworkConfig(
            hidden_width=8, depth=4, time_hidden_width=6, time_embed_width=16
        ),
    )
    _, report = trainer.fit(series, cfg)
    totals = np.array([e.breakdown.total for e in report.history])
    head = totals[:20].mean()
    tail = totals[-20:].mean()
    assert tail < head


def test_fit_recovers_jacobian_at_observed_and_held_out_times():
    """A fit recovers |J| at any time point, scanned or not: fitted to a
    16^3 clean phantom without its 24-month scan, the core |J| error
    beats 0.9 x the identity map's at 24 months (held out) and at 36
    months (observed).  Seeds 1-5 measured error / identity 0.60-0.73 at
    24 months and 0.74-0.83 at 36 months (seed 1: 0.64 and 0.77); the
    bound is not to be loosened to let a change pass."""
    spec = PhantomSpec(dims=(16, 16, 16))
    series, _ = generate_phantom(spec)
    held_out = Volume4DSeries(series.baseline, [(m, v) for m, v in series.followups if m != 24.0])
    cfg = FitConfig(
        iterations=150, batch_points=256, learning_rate=1e-3, seed=1, precision="f32",
        log_every=150, network=net.NetworkConfig(hidden_width=16, time_embed_width=16),
    )
    state, _ = trainer.fit(held_out, cfg)
    pts = grid_coordinates(spec.dims)
    core = (np.linalg.norm(pts - np.array(spec.center)[:, None], axis=0) <= spec.core)
    core = core.reshape(spec.dims)
    months = [24.0, 36.0]
    for m, grid in zip(months, trainer.predict_field(state, months, spec.dims)):
        true = true_jacobian_det(spec, m)
        err = np.abs(grid.jac_det - true)[core].mean()
        identity = np.abs(1.0 - true)[core].mean()
        assert err < 0.9 * identity, (m, err / identity)


def test_monotonic_term_raises_sign_consistency():
    """The monotonic term makes d|J|/dt keep one sign over time: fitted to
    a 16^3 clean phantom as above, at seed 2, the sign consistency of
    label 1 over 0-36 months rises from gamma = 0 to gamma = 0.1 (0.897 ->
    0.978).  Seeds 1-8 measured 0.772 -> 0.816, 0.897 -> 0.978, 0.537 ->
    0.647, 0.662 -> 0.684, 0.368 -> 0.699, 0.015 -> 0.044, 0.750 -> 0.132
    (seed 7 falls) and 0.978 -> 0.985; the bound is not to be loosened to
    let a change pass."""
    spec = PhantomSpec(dims=(16, 16, 16))
    series, _ = generate_phantom(spec)
    consistency = []
    for gamma in (0.0, 0.1):
        cfg = FitConfig(
            iterations=150, batch_points=256, learning_rate=1e-3, seed=2, precision="f32",
            log_every=150, network=net.NetworkConfig(hidden_width=16, time_embed_width=16),
            weights=LossWeights(gamma=gamma),
        )
        state, _ = trainer.fit(series, cfg)
        (label,) = metrics.structure_trajectories(
            state, series.labels[0.0], [1], np.linspace(0, 36, 7))
        consistency.append(label.sign_consistency)
    assert consistency[1] > consistency[0], consistency


# ---------------------------------------------------------------------------
# prediction and warping
# ---------------------------------------------------------------------------


def zero_state():
    state = net.init_network(seed=0, config=TOY_NET, time_horizon=12.0)
    for w, b in state.psi:
        w[:] = 0.0
        b[:] = 0.0
    return state


def test_predict_field_zero_network_identity():
    field = trainer.predict_field(zero_state(), 6.0, (6, 6, 6), WITH_DJDT)
    assert field.coords.shape == field.displacement.shape == (3, 6, 6, 6)
    assert field.jac_det.shape == field.jac_det_dt.shape == (6, 6, 6)
    assert np.all(field.displacement == 0.0)
    assert np.all(field.jac_det == 1.0)
    assert np.all(field.jac_det_dt == 0.0)
    assert field.folded_count == 0
    pts = grid_coordinates((6, 6, 6)).reshape(3, 6, 6, 6)
    np.testing.assert_array_equal(field.phi, pts)


def test_predict_field_chunking_bit_identical(monkeypatch):
    """The grid in one pass equals the network's evaluation of it in
    17-point chunks."""
    state = net.init_network(seed=4, config=TOY_NET, time_horizon=12.0)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    a = trainer.predict_field(state, 9.0, (7, 7, 7), WITH_DJDT)
    monkeypatch.setattr(net, "chunk_points", lambda *args, **kwargs: 17)
    b = net.forward_with_derivatives(
        state, grid_coordinates((7, 7, 7)), 9.0 / 12.0, WITH_DJDT,
    )
    assert a.displacement.tobytes() == b.displacement.tobytes()
    assert a.jac_det.tobytes() == b.jac_det.tobytes()
    assert a.jac_det_dt.tobytes() == b.jac_det_dt.tobytes()


def test_predict_field_times_sequence_matches_separate_calls():
    state = net.init_network(seed=4, config=TOY_NET, time_horizon=12.0)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    months = [3.0, 9.0, 15.0]
    grids = trainer.predict_field(state, months, (5, 5, 5), WITH_DJDT)
    assert len(grids) == len(months)
    for m, got in zip(months, grids):
        want = trainer.predict_field(state, m, (5, 5, 5), WITH_DJDT)
        for name in ("displacement", "jac_det", "jac_det_dt"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_cli_jacobian_writes_one_map_per_time(tmp_path):
    from ndfreg import cli, fileio

    state = net.init_network(seed=4, config=TOY_NET, time_horizon=12.0)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    model = str(tmp_path / "model.ndf")
    fileio.save_model(model, state)
    rc = cli.main(["jacobian", "--model", model, "--times", "3,9", "--dims", "5,5,5",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    for m, tag in ((3.0, "3"), (9.0, "9")):
        got, _ = fileio._read_raw_array(str(tmp_path / f"jac_{tag}.raw"))
        want = trainer.predict_field(state, m, (5, 5, 5)).jac_det
        np.testing.assert_array_equal(got, want)


def test_warp_identity_reproduces_volume():
    rng = np.random.default_rng(5)
    vol = Volume3D(rng.uniform(0, 1, size=(6, 6, 6)))
    phi = grid_coordinates(vol.dims).reshape((3,) + vol.dims)
    warped = trainer.warp_volume(vol, phi)
    np.testing.assert_allclose(warped.values, vol.values, atol=1e-15)


def test_warp_integer_shift():
    rng = np.random.default_rng(6)
    vol = Volume3D(rng.uniform(0, 1, size=(9, 9, 9)))
    phi = grid_coordinates(vol.dims).reshape((3,) + vol.dims).copy()
    phi[0] += 2.0 / 8.0  # exactly one voxel along x
    warped = trainer.warp_volume(vol, phi)
    np.testing.assert_allclose(warped.values[:-1], vol.values[1:], atol=1e-12)


def test_warp_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    vol = Volume3D(rng.uniform(0, 1, size=(8, 8, 8)))
    pts = grid_coordinates(vol.dims)
    phi = pts + 0.07 * np.sin(3 * pts[::-1])
    warped = trainer.warp_volume(vol, phi.reshape((3,) + vol.dims))
    expect = np.array(
        [scalar_trilinear_oracle(vol.values, phi[:, i]) for i in range(pts.shape[1])]
    ).reshape(vol.dims)
    np.testing.assert_allclose(warped.values, expect, atol=1e-12)


def test_warp_dim_mismatch_rejected():
    vol = Volume3D(np.zeros((6, 6, 6)))
    with pytest.raises(ValueError, match="does not match"):
        trainer.warp_volume(vol, np.zeros((3, 5, 5, 5)))


def test_config_validation():
    with pytest.raises(ValueError, match="batch_points"):
        FitConfig(batch_points=0).validate()
    with pytest.raises(ValueError, match="grid"):
        FitConfig(reg_time_grid_size=1).validate()
    with pytest.raises(ValueError, match="precision"):
        FitConfig(precision="f16").validate()
    with pytest.raises(ValueError, match="log_every"):
        FitConfig(log_every=0).validate()
    with pytest.raises(ValueError, match="checkpoint_every"):
        FitConfig(checkpoint_every=-1).validate()
    FitConfig(log_every=1, checkpoint_every=0).validate()
