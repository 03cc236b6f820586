"""Loss tests.  The centerpiece is an independent recomputation of the
whole total loss: network forward and every analytic derivative block are
re-derived by hand (layer-recursion formulas, textbook NCC, explicit
adjugate), never touching the tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfreg import losses, network as net
from ndfreg.diffengine import Tape
from ndfreg.trainer import SamplePlan
from ndfreg.volume import Volume3D, Volume4DSeries

from test_volume import scalar_trilinear_oracle


# ---------------------------------------------------------------------------
# independent forward + derivative recursion (the oracle)
# ---------------------------------------------------------------------------


def oracle_embed(state, t):
    slope = state.config.leaky_slope
    (w1, b1), (w2, b2) = state.theta
    z1 = w1 @ np.array([[t]]) + b1
    m1 = np.where(z1 >= 0, 1.0, slope)
    h1 = np.where(z1 >= 0, z1, slope * z1)
    z2 = w2 @ h1 + b2
    m2 = np.where(z2 >= 0, 1.0, slope)
    e = np.where(z2 >= 0, z2, slope * z2)
    de_dt = m2 * (w2 @ (m1 * w1))
    return e, de_dt


def oracle_forward(state, coords, t):
    """Hand-derived recursion for value, d/dw_j, d/dt, and d2/dw_j dt."""
    cfg = state.config
    omega = cfg.omega0
    e, de = oracle_embed(state, t)
    w1, b1 = state.psi[0]
    z = w1 @ coords + b1
    val = np.sin(omega * z)
    dw = [omega * np.cos(omega * z) * w1[:, j : j + 1] for j in range(3)]
    dt = np.zeros_like(val)
    mixed = [np.zeros_like(val) for _ in range(3)]
    h = cfg.hidden_width
    for li in range(1, cfg.depth):
        w, b = state.psi[li]
        wa, we = w[:, :h], w[:, h:]
        z = wa @ val + we @ e + b
        zw = [wa @ dwj for dwj in dw]
        zt = wa @ dt + we @ de
        zm = [wa @ mj for mj in mixed]
        if li == cfg.depth - 1:
            val, dw, dt, mixed = z, zw, zt, zm
        else:
            c, s = np.cos(z), np.sin(z)
            val = s
            dw = [c * zwj for zwj in zw]
            dt = c * zt
            mixed = [-s * zwj * zt + c * zmj for zwj, zmj in zip(zw, zm)]
    return val, dw, dt, mixed


def oracle_jac_products(dw, mixed):
    """|J| and d|J|/dt per point from the derivative blocks."""
    npts = dw[0].shape[1]
    jac = np.empty(npts)
    djdt = np.empty(npts)
    for p in range(npts):
        J = np.eye(3) + np.stack([dw[j][:, p] for j in range(3)], axis=1)
        Jdot = np.stack([mixed[j][:, p] for j in range(3)], axis=1)
        det = np.linalg.det(J)
        adj = np.linalg.inv(J) * det
        jac[p] = det
        djdt[p] = np.trace(adj @ Jdot)
    return jac, djdt


def oracle_ncc(f, m):
    f = np.asarray(f, dtype=float)
    m = np.asarray(m, dtype=float)
    fc, mc = f - f.mean(), m - m.mean()
    return 1.0 - (fc * mc).sum() / np.sqrt((fc**2).sum() * (mc**2).sum())


def oracle_total(series, state, weights, plan):
    coords = plan.coords
    npts = coords.shape[1]
    disp0, _, _, _ = oracle_forward(state, coords, 0.0)
    anchor = (disp0**2).sum(axis=0).mean()

    base = series.baseline.values
    fixed = [scalar_trilinear_oracle(base, coords[:, p]) for p in range(npts)]
    sim = 0.0
    for (months, vol), t in zip(series.followups, plan.observed_times[1:]):
        disp, _, _, _ = oracle_forward(state, coords, t)
        phi = coords + disp
        warped = [scalar_trilinear_oracle(vol.values, phi[:, p]) for p in range(npts)]
        sim += oracle_ncc(fixed, warped)

    k = len(plan.reg_grid)
    spatial = temporal = 0.0
    djdt_rows = []
    for t in plan.reg_grid:
        _, dw, dt, mixed = oracle_forward(state, coords, float(t))
        spatial += sum((d**2).sum() for d in dw) / (k * npts)
        temporal += (dt**2).sum() / (k * npts)
        _, djdt = oracle_jac_products(dw, mixed)
        djdt_rows.append(djdt)
    d = np.stack(djdt_rows)
    mono = np.minimum(
        np.maximum(d, 0).sum(axis=0), np.maximum(-d, 0).sum(axis=0)
    ).mean()
    total = (
        weights.lam * anchor + sim + weights.alpha * spatial
        + weights.beta * temporal + weights.gamma * mono
    )
    return dict(
        sim=sim, zero_anchor=anchor, spatial=spatial, temporal=temporal,
        monotonic=mono, total=total,
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def tiny_series(seed=0, identical=False):
    rng = np.random.default_rng(seed)
    base = Volume3D(rng.uniform(0, 1, size=(6, 6, 6)))
    if identical:
        f1 = Volume3D(base.values.copy())
        f2 = Volume3D(base.values.copy())
    else:
        f1 = Volume3D(np.clip(base.values + rng.uniform(-0.05, 0.05, base.dims), 0, 1))
        f2 = Volume3D(np.clip(base.values + rng.uniform(-0.05, 0.05, base.dims), 0, 1))
    return Volume4DSeries(base, [(6.0, f1), (12.0, f2)])


def toy_plan(seed=1, npts=5, k=3):
    rng = np.random.default_rng(seed)
    return SamplePlan(
        coords=rng.uniform(-0.8, 0.8, size=(3, npts)),
        observed_times=np.array([0.0, 0.5, 1.0]),
        reg_grid=np.linspace(0.0, 1.0, k),
    )


def toy_state(seed=2, depth=2, amplify=3.0):
    cfg = net.NetworkConfig(
        hidden_width=4, depth=depth, time_hidden_width=4, time_embed_width=6
    )
    state = net.init_network(seed=seed, config=cfg)
    rng = np.random.default_rng(seed + 100)
    # nonzero biases keep every leaky unit away from its kink at the
    # sampled times, where the loss is genuinely non-differentiable
    for w, b in state.psi + state.theta:
        w *= amplify
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    return state


# ---------------------------------------------------------------------------
# individual terms
# ---------------------------------------------------------------------------


def ncc_value(fixed, warped):
    """`ncc_node` on a constant tape."""
    tape = Tape()
    return float(losses.ncc_node(tape, fixed, tape.constant(warped)).value)


def ncc_value_and_adjoint(fixed, warped):
    """`ncc_node` with the warped values as a leaf; the zero-weighted sum
    keeps the output on the tape when NCC takes a constant branch."""
    tape = Tape()
    leaf = tape.leaf(warped)
    loss = losses.ncc_node(tape, fixed, leaf)
    tape.backward(tape.add(loss, tape.scale(tape.sum(leaf), 0.0)))
    return float(loss.value), leaf.adjoint


def test_ncc_identical_is_zero():
    v = np.random.default_rng(0).uniform(0, 1, 50)
    assert ncc_value(v, v) == pytest.approx(0.0, abs=1e-14)


def test_ncc_affine_invariance():
    f = np.random.default_rng(1).uniform(0, 1, 100)
    assert ncc_value(f, 2 * f + 3) == pytest.approx(0.0, abs=1e-12)
    m = np.random.default_rng(2).uniform(0, 1, 100)
    a = ncc_value(f, m)
    b = ncc_value(f, 1.7 * m + 0.4)
    assert a == pytest.approx(b, abs=1e-12)


def test_ncc_matches_textbook_oracle():
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 1, 100)
    m = rng.uniform(0, 1, 100)
    assert ncc_value(f, m) == pytest.approx(oracle_ncc(f, m), abs=1e-12)


def test_ncc_degenerate_rules():
    const = np.full(10, 0.5)
    varying = np.linspace(0, 1, 10)
    assert ncc_value(const, const.copy()) == 0.0
    assert ncc_value(const, varying) == 1.0
    assert ncc_value(varying, const) == 1.0
    assert ncc_value(const, const + 1.0) == 1.0
    # a constant whose mean rounds: its centred values are tiny, not zero
    rounding = np.full(244, 0.9127555772777217)
    assert rounding.mean() != rounding[0]
    varying = np.random.default_rng(7).uniform(0, 1, 244)
    for fixed, warped in ((varying, rounding), (rounding, varying)):
        loss, adjoint = ncc_value_and_adjoint(fixed, warped)
        assert loss == 1.0
        assert np.all(adjoint == 0.0)


def test_ncc_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ncc_value(np.zeros(3), np.zeros(4))


def anchor_value(d):
    """`anchor_node` on a constant tape."""
    tape = Tape()
    return float(losses.anchor_node(tape, tape.constant(d)).value)


def test_anchor_examples():
    assert anchor_value(np.zeros((3, 7))) == 0.0
    single = np.array([[0.3], [0.0], [0.0]])
    assert anchor_value(single) == pytest.approx(0.09)


def test_anchor_matches_loop_oracle():
    rng = np.random.default_rng(4)
    d = rng.uniform(-1, 1, size=(3, 33))
    expect = np.mean([d[:, p] @ d[:, p] for p in range(33)])
    assert anchor_value(d) == pytest.approx(expect, rel=1e-14)


def test_spatial_examples():
    """The spatial term of `build_total_loss` penalizes J - I: a network
    whose output layer is zero charges nothing."""
    series = tiny_series()
    state = toy_state(depth=3)
    w, b = state.psi[-1]
    w[:] = 0.0
    b[:] = 0.0
    plan = toy_plan()
    weights = losses.LossWeights()
    assert losses.total_loss(series, state, weights, plan).spatial == 0.0


def mono_value(samples):
    """`monotonic_node` on a constant tape; rows of `samples` are times,
    columns points.  The rows as one group, as one group per time, and as
    groups of two give the same value to rounding."""
    tape = Tape()
    d = np.asarray(samples, dtype=np.float64).reshape(len(samples), -1)
    values = [
        float(losses.monotonic_node(
            tape, [tape.constant(d[lo : lo + k]) for lo in range(0, len(d), k)]
        ).value)
        for k in (len(d), 1, 2)
    ]
    assert values[1:] == pytest.approx([values[0]] * 2, rel=1e-14, abs=1e-15)
    return values[0]


def test_monotonic_examples():
    assert mono_value([0.1, 0.2, 0.3]) == 0.0
    assert mono_value([-0.1, 0.2, 0.3]) == pytest.approx(0.1)
    assert mono_value([-0.2, -0.2]) == 0.0
    with pytest.raises(ValueError, match=">= 2"):
        mono_value([[0.1, 0.2]])  # one time, two points


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-9),
        min_size=2,
        max_size=8,
    )
)
def test_monotonic_zero_iff_uniform_sign(samples):
    d = np.array(samples)
    loss = mono_value(d)
    uniform = (d > 0).all() or (d < 0).all()
    if uniform:
        assert loss == 0.0
    else:
        assert loss > 0.0


def test_weights_validation():
    with pytest.raises(ValueError, match=">= 0"):
        losses.LossWeights(lam=-1.0)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------


def test_total_identity_registration_is_zero():
    series = tiny_series(identical=True)
    state = toy_state()
    for w, b in state.psi:
        w[:] = 0.0
        b[:] = 0.0
    plan = toy_plan()
    bd = losses.total_loss(series, state, losses.LossWeights(), plan)
    assert bd.sim == pytest.approx(0.0, abs=1e-12)
    assert bd.zero_anchor == 0.0
    assert bd.spatial == 0.0
    assert bd.temporal == 0.0
    assert bd.monotonic == 0.0
    assert bd.total == pytest.approx(0.0, abs=1e-12)


def test_total_weight_isolation():
    series = tiny_series()
    state = toy_state(depth=3)
    plan = toy_plan()
    lam_only = losses.LossWeights(lam=2.5, alpha=0, beta=0, gamma=0)
    bd = losses.total_loss(series, state, lam_only, plan)
    assert bd.total == pytest.approx(2.5 * bd.zero_anchor + bd.sim, rel=1e-12)

    w1 = losses.LossWeights(lam=1, alpha=1, beta=1, gamma=0.1)
    w2 = losses.LossWeights(lam=1, alpha=1, beta=1, gamma=0.7)
    b1 = losses.total_loss(series, state, w1, plan)
    b2 = losses.total_loss(series, state, w2, plan)
    assert b1.sim == pytest.approx(b2.sim, rel=1e-12)
    assert b1.spatial == pytest.approx(b2.spatial, rel=1e-12)
    assert b1.temporal == pytest.approx(b2.temporal, rel=1e-12)
    assert b1.monotonic == pytest.approx(b2.monotonic, rel=1e-12)
    assert b2.total - b1.total == pytest.approx(
        (0.7 - 0.1) * b1.monotonic, rel=1e-9
    )


@pytest.mark.parametrize("depth", [2, 3])
def test_total_matches_independent_oracle(depth):
    series = tiny_series()
    state = toy_state(depth=depth)
    plan = toy_plan()
    weights = losses.LossWeights(lam=3.0, alpha=0.8, beta=1.2, gamma=0.5)
    bd = losses.total_loss(series, state, weights, plan)
    expect = oracle_total(series, state, weights, plan)
    for name in ("sim", "zero_anchor", "spatial", "temporal", "monotonic", "total"):
        assert getattr(bd, name) == pytest.approx(expect[name], abs=1e-10), name


def test_total_requires_followup():
    base = Volume3D(np.random.default_rng(0).uniform(0, 1, (4, 4, 4)))
    series = Volume4DSeries(base, [])
    with pytest.raises(ValueError, match="follow-up"):
        losses.total_loss(series, toy_state(), losses.LossWeights(), toy_plan())


def test_breakdown_nonnegative_terms():
    series = tiny_series()
    state = toy_state(depth=3)
    bd = losses.total_loss(series, state, losses.LossWeights(), toy_plan())
    assert bd.zero_anchor >= 0
    assert bd.spatial >= 0
    assert bd.temporal >= 0
    assert bd.monotonic >= 0


def test_parameter_gradients_match_fd():
    series = tiny_series()
    plan = toy_plan(npts=4, k=3)
    weights = losses.LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=0.3)
    state = toy_state(depth=3)

    def total_value():
        return losses.total_loss(series, state, weights, plan).total

    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, _ = losses.build_total_loss(
        tape, leaves, series, weights, plan, state.config
    )
    tape.backward(total)
    grads = [
        l.adjoint if l.adjoint is not None else np.zeros_like(l.value)
        for l in leaves.flat()
    ]

    rng = np.random.default_rng(0)
    eps = 1e-6
    params = state.param_arrays()
    checked = 0
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            vp = total_value()
            flat[i] = orig - eps
            vm = total_value()
            flat[i] = orig
            fd = (vp - vm) / (2 * eps)
            an = grads[pi].reshape(-1)[i]
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-8)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("seed", [0, 5])
def test_monotonic_term_parameter_gradients_match_fd(seed):
    """Every parameter's full-loss gradient at depth 3, where d|J|/dt is
    non-zero, so the reverse path through the mixed tangents (summed over
    the whole time grid at the shared network prefix) is checked."""
    series = tiny_series(seed)
    plan = toy_plan(seed=seed + 1, npts=5, k=4)
    weights = losses.LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=0.3)
    state = toy_state(seed=seed, depth=3)

    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(
        tape, leaves, series, weights, plan, state.config
    )
    assert breakdown.monotonic > 0.0
    tape.backward(total)
    grads = [
        l.adjoint if l.adjoint is not None else np.zeros_like(l.value)
        for l in leaves.flat()
    ]

    eps = 1e-5
    worst = 0.0
    for p, g in zip(state.param_arrays(), grads):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            vp = losses.total_loss(series, state, weights, plan).total
            flat[i] = orig - eps
            vm = losses.total_loss(series, state, weights, plan).total
            flat[i] = orig
            fd = (vp - vm) / (2 * eps)
            worst = max(worst, abs(g.reshape(-1)[i] - fd) / max(abs(fd), 1e-4))
    assert worst <= 1e-4
