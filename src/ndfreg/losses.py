"""The five terms of the registration loss and their weighted total.

Similarity is one minus global normalized cross correlation over the
sampled batch, summed across observed follow-up times.  The zero-time
anchor is the mean squared displacement norm at t=0.  Spatial, temporal
and monotonic regularizers are evaluated on a sampled time grid that
includes unobserved times; the spatial one penalizes the displacement's
Jacobian, which is the deviation J - I of phi's Jacobian from identity.
All reductions over points are means, so the weights keep their meaning
regardless of batch size.

Every term is recorded on a tape by its builder (`ncc_node`,
`anchor_node`, `sum_of_squares`, `monotonic_node`), so the trainer can
differentiate the total with respect to the parameters; `build_total_loss`
assembles them and `total_loss` evaluates the same tape for a frozen
state.  Terms whose weight is zero are skipped and reported as 0.

The network traces its times in groups (`network.group_times`).  The
observed times are one trace: NCC and the anchor each read one time's
displacement out of its group.  The grid's regularizers read J, dphi/dt
and d|J|/dt once per group, at all of its times: the spatial and temporal
terms sum squares over each group and add the groups, and the monotonic
term sums relu(d|J|/dt) and relu(-d|J|/dt) over each group's (K, B)
rates across its times, then adds the groups' sums per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffengine import Tape
from . import network as net
from .volume import sample_trilinear

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "total_loss",
    "build_total_loss",
]


@dataclass(frozen=True)
class LossWeights:
    lam: float = 10.0  # zero-time anchor
    alpha: float = 1.0  # spatial
    beta: float = 1.0  # temporal
    gamma: float = 0.1  # monotonic

    def __post_init__(self):
        for name in ("lam", "alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be >= 0")


@dataclass
class LossBreakdown:
    sim: float = 0.0
    zero_anchor: float = 0.0
    spatial: float = 0.0
    temporal: float = 0.0
    monotonic: float = 0.0
    total: float = 0.0

    FIELDS = ("sim", "zero_anchor", "spatial", "temporal", "monotonic", "total")


# ---------------------------------------------------------------------------
# tape builders
# ---------------------------------------------------------------------------


def ncc_node(tape: Tape, fixed_values: np.ndarray, warped):
    fv = np.asarray(fixed_values, dtype=tape.dtype)
    mv = warped.value
    if fv.shape != mv.shape:
        raise ValueError(f"length mismatch: {fv.shape} vs {mv.shape}")
    # a constant side has no correlation: max == min is exact, while a
    # rounded mean can leave a constant vector a tiny nonzero variance
    if fv.max() == fv.min() or mv.max() == mv.min():
        return tape.constant(0.0 if np.array_equal(fv, mv) else 1.0)
    fc = fv - fv.mean()
    fixed_c = tape.constant(fc)
    mc = tape.sub(warped, tape.mean(warped))
    num = tape.sum(tape.mul(fixed_c, mc))
    den = tape.sqrt(
        tape.mul(tape.constant(float(fc @ fc)), tape.sum(tape.square(mc)))
    )
    return tape.offset(tape.scale(tape.div(num, den), -1.0), 1.0)


def anchor_node(tape: Tape, displacement):
    return tape.mean(tape.sum(tape.square(displacement), axis=0))


def sum_of_squares(tape: Tape, node):
    return tape.sum(tape.square(node))


def monotonic_node(tape: Tape, groups: list):
    """Mean over points of min(sum relu(d), sum relu(-d)), the sums over
    every time of d|J|/dt; `groups` holds (K, B) nodes of K times each, and
    each group's sums over its times are added across the groups."""
    if sum(g.value.shape[0] for g in groups) < 2:
        raise ValueError("monotonic term needs >= 2 time samples")
    pos = neg = None
    for d in groups:
        p = tape.sum(tape.relu(d), axis=0)
        n = tape.sum(tape.relu(tape.scale(d, -1.0)), axis=0)
        pos = p if pos is None else tape.add(pos, p)
        neg = n if neg is None else tape.add(neg, n)
    return tape.mean(tape.minimum(pos, neg))


def build_total_loss(
    tape: Tape,
    leaves: net.Leaves,
    series,
    weights: LossWeights,
    plan,
    config: net.NetworkConfig,
):
    """Record the full loss on the tape; returns (total node, breakdown).

    `plan` supplies `coords` (3,B), `observed_times` (normalized, first
    entry 0) and `reg_grid` (normalized times for the regularizers).
    """
    if not series.followups:
        raise ValueError("series has no follow-up scan")
    coords = np.asarray(plan.coords, dtype=tape.dtype)
    nbatch = coords.shape[1]

    # t = 0 is traced only for the anchor
    times = list(plan.observed_times[1:])
    if weights.lam > 0:
        times.insert(0, 0.0)
    observed = net.trace_network(
        tape, leaves, coords, times, config, net.DerivativeRequest()
    )
    anchor = None
    if weights.lam > 0:
        anchor = anchor_node(tape, net.displacement(tape, observed.pop(0)))

    fixed_vals, _ = sample_trilinear(series.baseline, coords)
    sim = None
    for (months, vol), tr in zip(series.followups, observed):
        warped = tape.sample3(vol.values, net.phi(tape, tr))
        term = ncc_node(tape, fixed_vals, warped)
        sim = term if sim is None else tape.add(sim, term)

    need_spatial = weights.alpha > 0
    need_temporal = weights.beta > 0
    need_mono = weights.gamma > 0
    spatial = temporal = mono = None
    if need_spatial or need_temporal or need_mono:
        req = net.DerivativeRequest(
            spatial=need_spatial or need_mono, temporal=need_temporal or need_mono
        )
        kgrid = len(plan.reg_grid)
        djdt_groups = []
        sp_acc = tp_acc = None
        traces = net.trace_network(tape, leaves, coords, plan.reg_grid, config, req)
        for tr in net.group_traces(traces):
            if need_spatial:
                s = sum_of_squares(tape, net.jacobian(tape, tr))
                sp_acc = s if sp_acc is None else tape.add(sp_acc, s)
            if need_temporal:
                s = sum_of_squares(tape, net.dphi_dt(tape, tr))
                tp_acc = s if tp_acc is None else tape.add(tp_acc, s)
            if need_mono:
                djdt_groups.append(net.jacdet_dt(tape, tr))
        if need_spatial:
            spatial = tape.scale(sp_acc, 1.0 / (kgrid * nbatch))
        if need_temporal:
            temporal = tape.scale(tp_acc, 1.0 / (kgrid * nbatch))
        if need_mono:
            mono = monotonic_node(tape, djdt_groups)

    total = sim
    if anchor is not None:
        total = tape.add(total, tape.scale(anchor, weights.lam))
    if spatial is not None:
        total = tape.add(total, tape.scale(spatial, weights.alpha))
    if temporal is not None:
        total = tape.add(total, tape.scale(temporal, weights.beta))
    if mono is not None:
        total = tape.add(total, tape.scale(mono, weights.gamma))

    breakdown = LossBreakdown(
        sim=float(sim.value),
        zero_anchor=0.0 if anchor is None else float(anchor.value),
        spatial=0.0 if spatial is None else float(spatial.value),
        temporal=0.0 if temporal is None else float(temporal.value),
        monotonic=0.0 if mono is None else float(mono.value),
        total=float(total.value),
    )
    return total, breakdown


def total_loss(
    series,
    state: net.NetworkState,
    weights: LossWeights,
    plan,
) -> LossBreakdown:
    """Evaluate the full loss for a frozen state in f64 (no gradients
    kept)."""
    tape = Tape()
    leaves = net.make_leaves(tape, state, trainable=False)
    _, breakdown = build_total_loss(tape, leaves, series, weights, plan, state.config)
    return breakdown
