"""The five terms of the registration loss and their weighted total.

Similarity is one minus global normalized cross correlation over the
sampled batch, summed across observed follow-up times.  Each NCC term is
one `ncc` node, which centres the fixed values f and the warped values m
itself and keeps the closed-form gradient dL/dm_i = ((num / M) m~_i -
f~_i) / sqrt(F M), with num = sum f~ m~, F = sum f~^2 and M = sum m~^2
over the centred values.  The zero-time anchor is the mean squared
displacement norm at t=0.  Spatial, temporal and monotonic regularizers
are evaluated on a sampled time grid that includes unobserved times; the
spatial one penalizes the displacement's Jacobian, which is the deviation
J - I of phi's Jacobian from identity.  All reductions over points are
means, so the weights keep their meaning regardless of batch size.

Every term is recorded on a tape by its builder (`ncc_node`,
`anchor_node`, `monotonic_node`, `Tape.sum_squares`), so the trainer can
differentiate the total with respect to the parameters; `build_total_loss`
assembles them and `total_loss` evaluates the same tape for a frozen
state.  Each reduction is one node with a closed-form VJP: a `sum_squares`
for the anchor and each group's spatial and temporal sums, one `monotonic`
for the monotonic term of all groups.  Terms whose weight is zero are
skipped and reported as 0.

Segments.  `build_total_loss` records the whole loss, or one segment of
it: SIMILARITY (NCC and the anchor, which need the whole batch), or the
grid regularizers of a slice of the batch's points.  The regularizers are
means over the B points, so a chunk's terms divide its sums by B, not by
its own size, and the chunks of a partition add up to the whole batch's
terms.  Both ways run the same two term builders, so the one-tape loss
(`total_loss`, gradcheck's reference) and the fit step's segments
(`trainer.segment_gradients`) are one implementation.

The network traces its times in groups (as many as fill one block) and
returns one output jet per group.  The observed times are one trace: the
anchor and each NCC term read one time's displacement out of its group's
jet, and NCC adds the coordinates to it.  The grid's regularizers read J,
dphi/dt and d|J|/dt once per group, at all of its times: the spatial and
temporal terms sum squares over each group and add the groups, and the
monotonic node sums relu(d|J|/dt) and relu(-d|J|/dt) over each group's
(K, B) rates across its times, then adds the groups' sums per point.  A
fit step's regularizer segment is one group (`trainer.point_chunks`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .diffengine import Tape
from . import network as net
from .volume import sample_trilinear

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "SIMILARITY",
    "total_loss",
    "build_total_loss",
    "regularizer_request",
]

# the `build_total_loss` segment of the terms that need the whole batch
SIMILARITY = "similarity"


@dataclass(frozen=True)
class LossWeights:
    lam: float = 10.0  # zero-time anchor
    alpha: float = 1.0  # spatial
    beta: float = 1.0  # temporal
    gamma: float = 0.1  # monotonic

    def __post_init__(self):
        net.require_finite(self)
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
    """1 - NCC of the (B,) `warped` node and the fixed values: one node."""
    fv = np.asarray(fixed_values, dtype=tape.dtype)
    mv = warped.value
    if fv.shape != mv.shape:
        raise ValueError(f"length mismatch: {fv.shape} vs {mv.shape}")
    # a constant side has no correlation: max == min is exact, while a
    # rounded mean can leave a constant vector a tiny nonzero variance
    if fv.max() == fv.min() or mv.max() == mv.min():
        return tape.constant(0.0 if np.array_equal(fv, mv) else 1.0)
    return tape.record("ncc", (warped,), fv)


def anchor_node(tape: Tape, displacement):
    """The mean squared norm of the (3, B) displacement: one node."""
    return tape.sum_squares(displacement, displacement.value.shape[1])


def monotonic_node(tape: Tape, groups: list, nbatch: int | None = None):
    """Mean over the `nbatch` points of a batch (default: the points in
    `groups`) of min(sum relu(d), sum relu(-d)), the sums over every time
    of d|J|/dt, summed over the points in `groups`; `groups` holds (K, P)
    nodes of K times each, and each group's sums over its times are added
    across the groups.  One `monotonic` node."""
    if sum(g.value.shape[0] for g in groups) < 2:
        raise ValueError("monotonic term needs >= 2 time samples")
    return tape.record("monotonic", groups, nbatch)


def regularizer_request(weights: LossWeights) -> net.DerivativeRequest | None:
    """The tangents the grid regularizers read, or None when all three
    of their weights are 0."""
    spatial = weights.alpha > 0 or weights.gamma > 0
    temporal = weights.beta > 0 or weights.gamma > 0
    if not (spatial or temporal):
        return None
    return net.DerivativeRequest(spatial=spatial, temporal=temporal)


def _similarity_terms(tape, leaves, series, weights, plan, config) -> list:
    """NCC at every observed follow-up and, with lam > 0, the anchor, over
    the whole batch: one value-only trace of the observed times."""
    coords = np.asarray(plan.coords, dtype=tape.dtype)
    # t = 0 is traced only for the anchor
    times = list(plan.observed_times[1:])
    if weights.lam > 0:
        times.insert(0, 0.0)
    outs = net.trace_network(tape, leaves, coords, times, config, net.DerivativeRequest())
    # each observed time as (its group's output jet, its position there)
    observed = [(out, k) for out in outs for k in range(out.times)]
    anchor = None
    if weights.lam > 0:
        anchor = anchor_node(tape, net.displacement(tape, *observed.pop(0)))

    fixed_vals, _ = sample_trilinear(series.baseline, coords)
    x = tape.constant(coords)
    sim = None
    for (months, vol), (out, k) in zip(series.followups, observed):
        phi = tape.add(net.displacement(tape, out, k), x)
        warped = tape.sample3(vol.values, phi)
        term = ncc_node(tape, fixed_vals, warped)
        sim = term if sim is None else tape.add(sim, term)
    terms = [("sim", sim, None)]
    if anchor is not None:
        terms.append(("zero_anchor", anchor, weights.lam))
    return terms


def _regularizer_terms(tape, leaves, weights, plan, config, points: slice) -> list:
    """The spatial, temporal and monotonic terms of the batch points
    `points`, each scaled by their share of the batch: one trace of the
    grid with derivatives, read group by group."""
    req = regularizer_request(weights)
    if req is None:
        return []
    nbatch = plan.coords.shape[1]
    coords = np.asarray(plan.coords[:, points], dtype=tape.dtype)
    kgrid = len(plan.reg_grid)
    djdt_groups = []
    sp_acc = tp_acc = None
    for out in net.trace_network(tape, leaves, coords, plan.reg_grid, config, req):
        if weights.alpha > 0:
            s = tape.sum_squares(net.jacobian(tape, out))
            sp_acc = s if sp_acc is None else tape.add(sp_acc, s)
        if weights.beta > 0:
            s = tape.sum_squares(net.dphi_dt(tape, out))
            tp_acc = s if tp_acc is None else tape.add(tp_acc, s)
        if weights.gamma > 0:
            djdt_groups.append(de.jacdet_dt(tape, out))
    terms = []
    if sp_acc is not None:
        terms.append(("spatial", tape.scale(sp_acc, 1.0 / (kgrid * nbatch)), weights.alpha))
    if tp_acc is not None:
        terms.append(("temporal", tape.scale(tp_acc, 1.0 / (kgrid * nbatch)), weights.beta))
    if djdt_groups:
        terms.append(("monotonic", monotonic_node(tape, djdt_groups, nbatch), weights.gamma))
    return terms


def build_total_loss(
    tape: Tape,
    leaves: net.Leaves,
    series,
    weights: LossWeights,
    plan,
    config: net.NetworkConfig,
    segment=None,
):
    """Record the full loss on the tape, or one segment of it; returns
    (total node, breakdown).  The total is None for a segment with no term.

    `plan` supplies `coords` (3,B), `observed_times` (normalized, first
    entry 0) and `reg_grid` (normalized times for the regularizers).
    `segment` None records every term; SIMILARITY records NCC and the
    anchor over the whole batch; a slice of the B points records the grid
    regularizers of those points, each scaled by their share of B.  So the
    similarity segment plus the regularizer segments of a partition of the
    batch add up to the full loss, and the breakdown of each holds its own
    terms' values (the others 0).
    """
    if not series.followups:
        raise ValueError("series has no follow-up scan")
    if not (segment is None or segment == SIMILARITY or isinstance(segment, slice)):
        raise ValueError(f"unknown loss segment {segment!r}")
    terms = []
    if segment is None or segment == SIMILARITY:
        terms += _similarity_terms(tape, leaves, series, weights, plan, config)
    if segment is None or isinstance(segment, slice):
        terms += _regularizer_terms(tape, leaves, weights, plan, config, segment or slice(None))
    total = None
    for _, node, weight in terms:
        term = node if weight is None else tape.scale(node, weight)
        total = term if total is None else tape.add(total, term)
    breakdown = LossBreakdown(
        **{name: float(node.value) for name, node, _ in terms},
        total=0.0 if total is None else float(total.value),
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
