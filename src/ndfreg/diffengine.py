"""Special-purpose differentiation engine: a reverse-mode tape over numpy
buffers, plus forward-mode jets (Taylor-mode stacks of tangents) built out
of taped primitives.

The registration losses need parameter gradients of quantities that are
themselves analytic derivatives of the network output with respect to its
inputs (spatial Jacobians, temporal derivatives, and the mixed second-order
terms feeding d|J|/dt).  The scheme here is reverse-over-forward: the
forward tangent propagation is expressed as ordinary taped primitives, so a
single reverse sweep differentiates values *and* tangents with respect to
every leaf parameter.

Stacked jets: a `Jet` carries one layer's value, tangents and mixed entries
at K times as one point-major block node for P points: an (S*K*P, rows)
array, which is (S, K, P, rows) in C order, so slot s of `jet.slots` is
the contiguous (K*P, rows) panel of array rows [s*K*P, (s+1)*K*P), and
time k of it the (P, rows) panel after k*P of those rows.  Slots come in
the fixed order v, x, y, z, t, xt, yt, zt (the value, the first-order
tangents, then d/dt of the x, y, z tangents); only slots that can be
non-zero are stored, so S <= 8.  A jet of one time is the K = 1 case.
  * The coordinate jet holds v, x, y, z (v alone without spatial
    derivatives), at one time; the time jet holds K times as K points, v
    and t (or v).
  * `bundle_affine` keeps the slots and the times: one matmul, block @
    W.T, maps the whole block, and its bias becomes a column term of slot
    v.  Its input has no pending column terms: every rule folds them
    first, and a matmul refuses a jet that still carries them.
  * A column term is constant across the points and carries one row per
    time: a (K, rows) term joins slot v, a (2K, rows) term joins slot v
    with its first K rows and slot t with the rest, and a (1, rows) term,
    such as a bias, joins slot v at every time.
  * `bundle_add` of a column jet (K points, v or v, t; a product with the
    embedding of K times) records nothing: its rows join the jet's pending
    column terms, broadcast over the points.  The next sine or leaky
    rule, or a slot read, folds them into its input; no primitive adds
    them to a block.  A block of one time (`block_times` 1, layer 2's
    time-invariant prefix) then stands for all K: the rule broadcasts it
    against the per-time column terms, and its VJP sums the block's
    cotangent back over the K times.
  * `bundle_leaky` (kind `jet_leaky`) keeps the folded slots: a t column
    adds slot t, and its zero second derivative adds no mixed slot.
  * `bundle_sine` (kind `jet_sine`) adds the mixed slot of every spatial
    tangent once t is present.  It gets sin and cos of the value slot from
    one tangent of the half angle, t = tan(u/2): sin u = 2t / (1 + t^2)
    and cos u = 2 / (1 + t^2) - 1 (`_sin_cos`).  The gain relies on
    numpy's float64 tan being a vectorised (AVX-512) loop where its sin
    and cos call scalar libm, as in numpy 2.4 on x86-64.  The rule keeps
    omega*cos as its ndarray aux, so its VJP evaluates no transcendental;
    a value-only block computes the sine alone and keeps no aux.
  * `jet_slot` extracts one folded slot as a (rows, P) node at one time,
    the transpose of its panel, or as a (rows, K*P) node at every time.
  * The output layer's block ((S*K*P, 3), the displacement's components)
    is the one place that holds the Jacobian's layout: slot x+j,
    component i is J[i][j] = d(disp_i)/dx_j, and mixed slot xt+j,
    component i is dJ[i][j]/dt.  Its column terms touch only slots v and
    t, so three primitives read the block node alone, one node each,
    recorded by `network`'s readers only where a product is used:
    `jacobian` (slots x, y, z as one (3, 3n) node), `jacdet` (|I + J| by
    cofactor expansion) and `jacdet_dt` (d|I + J|/dt = tr(adj(I + J)
    dJ/dt) by Jacobi's formula), each (P,) at one time and (K, P) at
    every time.  Each reads one transposed (3, S, n) copy of this small
    block, n = P or K*P.
Every jet primitive's payload carries its block's `times`, the pair
(block times, K), and a reader's also the time it reads (None: every
time).
With this layout a layer is one matmul forward (block @ W.T) and two
backward (g.T @ block and g @ W) for all K times, and one node per rule;
every elementwise pass of a rule runs over whole contiguous slot panels.
In a (rows, S*B) layout each slot would be a strided (rows, B) view, and
each of those passes measured 2-4 times slower at the benchmark's sizes.

Shape conventions (no general broadcasting; exactly these cases):
  * scalars are 0-d arrays,
  * a batch of scalars is (B,),
  * a stack of vectors is (R, B): rows are components, columns are points,
  * per-time quantities constant across the batch are (R, 1) and broadcast
    across columns in elementwise ops,
  * jet blocks and their column terms are point-major, as above; only the
    jet primitives read them.

Tapes are single-owner: one tape per fitting step, never shared across
threads.  Evaluation is eager; `backward` runs one reverse sweep in tape
order, which makes repeated runs on identical inputs bit-identical.

Lifetime contract:
  * Only leaves and nodes with a recorded input are recorded.  Constants,
    and anything computed from constants alone (e.g. a network evaluated
    with `make_leaves(trainable=False)`), are evaluated eagerly but never
    enter the tape and keep no reference to their inputs, so each lives
    only as long as the caller holds it.
  * `backward` releases each non-leaf adjoint as soon as its VJP has run;
    after the sweep only leaves hold adjoints.
  * Nodes refer to their tape weakly, so tape and nodes form no reference
    cycle: reference counting frees a tape and all its buffers when the
    caller drops the last reference to it, with no garbage-collector pass.

Primitive table: `_PRIMITIVES` maps each kind string to a pair
`Primitive(forward, vjp)`.  `forward(dtype, values, payload)` checks the
input values' shapes and returns the output value, or `(value, aux)` when
the VJP needs more than values (`sample3`, which samples a grid at (3, B)
points, keeps the sampler gradients).
`vjp(node, g)` yields, or returns a list of, `(input position, cotangent)`
pairs, which `backward` adds to the inputs' adjoints in that order, so the
order fixes every adjoint sum bit for bit.  `Tape.record(kind, inputs,
payload)` is the one entry point for every primitive.  Adding one is a
table entry plus a case in the finite-difference VJP test
(`tests/test_diffengine.py`).
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .volume import trilinear_values_and_grads

__all__ = [
    "Tape",
    "Node",
    "Jet",
    "DiffEngineError",
    "bundle_affine",
    "bundle_sine",
    "bundle_leaky",
    "bundle_add",
    "jet_slot",
]


class DiffEngineError(ValueError):
    """Raised when a primitive is recorded with bad inputs."""


class Node:
    """One primitive: eager value plus an adjoint buffer.  `idx` is its
    position on the tape, or None when it is not recorded."""

    __slots__ = ("_tape", "idx", "kind", "inputs", "payload", "value", "adjoint", "aux")

    def __init__(self, tape_ref, kind, inputs, payload, value, aux=None):
        self._tape = tape_ref
        self.idx = None
        self.kind = kind
        self.inputs = inputs
        self.payload = payload
        self.value = value
        self.adjoint = None
        self.aux = aux

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise DiffEngineError("node outlived its tape")
        return tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.idx}:{self.kind}, shape={self.value.shape})"


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of the allowed broadcasts)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _elementwise(kind, op):
    """Forward of a binary op on operands of broadcast-compatible shapes."""

    def forward(dtype, values, payload):
        a, b = values
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DiffEngineError(
                f"{kind}: shape mismatch {a.shape} vs {b.shape}"
            ) from None
        return op(a, b)

    return forward


def _mul_vjp(node, g):
    a, b = node.inputs
    yield 0, g * b.value
    yield 1, g * a.value


def _div_vjp(node, g):
    b = node.inputs[1].value
    yield 0, g / b
    yield 1, -g * node.value / b


def _minimum_vjp(node, g):
    a, b = node.inputs
    take_a = a.value <= b.value
    yield 0, g * take_a
    yield 1, g * ~take_a


def _affine_forward(dtype, values, cols):
    """x @ W[:, lo:hi].T: every row of x, one point of one slot, mapped."""
    w, x = values
    if w.ndim != 2 or x.ndim != 2:
        raise DiffEngineError(f"affine: need 2-d operands, got {x.shape} @ {w.shape}.T")
    lo, hi = cols or (0, w.shape[1])
    if hi - lo != x.shape[1]:
        raise DiffEngineError(
            f"affine: W[:,{lo}:{hi}] of {w.shape} does not match x {x.shape}"
        )
    return x @ w[:, lo:hi].T


def _affine_vjp(node, g):
    # the products are skipped for an unrecorded weight or input
    w, x = node.inputs
    lo, hi = node.payload or (0, w.value.shape[1])
    if w.idx is not None:
        gw = np.zeros_like(w.value)
        gw[:, lo:hi] = g.T @ x.value
        yield 0, gw
    if x.idx is not None:
        yield 1, g @ w.value[:, lo:hi]


def _sum_forward(dtype, values, axis):
    """Sum of every element (axis None, a 0-d result) or over axis 0."""
    if axis is None:
        return np.asarray(values[0].sum(), dtype=dtype)
    if axis != 0:
        raise DiffEngineError(f"sum: axis {axis} unsupported")
    return values[0].sum(axis=0)


def _sum_vjp(node, g):
    x = node.inputs[0].value
    if node.payload is None:
        yield 0, np.full_like(x, g)
    else:
        yield 0, np.broadcast_to(g, x.shape)


def _mean_vjp(node, g):
    x = node.inputs[0].value
    yield 0, np.full_like(x, g / x.size)


def _sample3_forward(dtype, values, grid):
    """Trilinear samples of `grid` at the (3, B) points; the sampler's
    spatial gradients are kept as the node's aux for the VJP."""
    vals, grads = trilinear_values_and_grads(grid, values[0])
    return np.asarray(vals, dtype=dtype), grads.astype(dtype, copy=False)


# ---- stacked jets ----------------------------------------------------------

# slot order of a jet block: the value, the first-order tangents in x, y, z
# and t, then the mixed entries d/dt of the x, y and z tangents
V, X, Y, Z, T, XT, YT, ZT = range(8)
SPATIAL = (X, Y, Z)


def _folded_slots(slots, has_t_column):
    """The slots of a block once its column terms are added: a t column
    creates slot t."""
    if has_t_column and T not in slots:
        return tuple(sorted(slots + (T,)))
    return slots


def _sine_slots(slots, has_t_column):
    """The slots after a sine: once t is present, every spatial tangent
    gains its mixed entry (the sine's second derivative is non-zero)."""
    slots = _folded_slots(slots, has_t_column)
    if T in slots:
        slots = tuple(sorted(set(slots) | {d + 4 for d in SPATIAL if d in slots}))
    return slots


def _jet_block(kind, values, slots, times):
    """An (S*Kb*P, rows) block as an (S, Kb, P, rows) view, its slot
    positions, and its summed column terms (cv, ct), each (1|K, 1, rows) or
    None.  `times` is (Kb, K): the block holds K times, or one time shared
    by all K (Kb = 1); a column term of 2K rows adds its first K rows to
    slot v and the rest to slot t, one row per time, and one of 1 or K rows
    adds to slot v (a single row, such as a bias, joins every time)."""
    z = values[0]
    kb, k = times
    if slots[0] != V or z.ndim != 2 or kb not in (1, k) or z.shape[0] % (len(slots) * kb):
        raise DiffEngineError(f"{kind}: block {z.shape} does not hold slots {slots} at {kb} times")
    rows = z.shape[1]
    cv = ct = None
    for c in values[1:]:
        if c.ndim != 2 or c.shape[1] != rows or c.shape[0] not in (1, k, 2 * k):
            raise DiffEngineError(f"{kind}: column term {c.shape} must be (1|{k}|{2 * k}, {rows})")
        v = c[:k, None] if c.shape[0] == 2 * k else c[:, None]
        cv = v if cv is None else cv + v
        if c.shape[0] == 2 * k:
            ct = c[k:, None] if ct is None else ct + c[k:, None]
    if kb < k and (cv is None or cv.shape[0] < k):
        raise DiffEngineError(f"{kind}: a block shared by {k} times needs a per-time column term")
    z4 = z.reshape(len(slots), kb, z.shape[0] // (len(slots) * kb), rows)
    return z4, {s: i for i, s in enumerate(slots)}, cv, ct


def _folded(z, pos, cv, ct, slot):
    """One slot of a block with its column terms added: (K|Kb, P, rows), or
    the (K, 1, rows) t rows themselves when the block has no t slot."""
    if slot == V:
        return z[0] if cv is None else z[0] + cv
    if slot == T and ct is not None:
        return ct if T not in pos else z[pos[T]] + ct
    return z[pos[slot]]


def _column_grads(node, gv, gt, k):
    """Cotangents of a node's column terms (its inputs after the block):
    slot v's cotangent `gv` and slot t's `gt`, each (K, P, rows) or None for
    zero, summed over the points for each time, and over the times too for
    a single-row term."""
    if len(node.inputs) == 1 or (gv is None and gt is None):
        return
    zero = np.zeros((k, node.inputs[0].value.shape[1]), node.value.dtype)
    gv, gt = (zero if g is None else g.sum(axis=1) for g in (gv, gt))
    for i, c in enumerate(node.inputs[1:], 1):
        n = c.value.shape[0]
        if n == 2 * k:
            yield i, np.concatenate([gv, gt])
        else:
            yield i, gv if n == k else gv.sum(axis=0, keepdims=True)


def _cotangent(n_slots, panel, dtype):
    """An uninitialised (S*K*P, rows) cotangent block for S = `n_slots` and
    its (S, K, P, rows) view; `panel` is (K, P, rows)."""
    gz2 = np.empty((n_slots * panel[0] * panel[1], panel[2]), dtype)
    return gz2, gz2.reshape((n_slots,) + panel)


def _block_cotangent(gz2, gz, kb):
    """The cotangent of a block from `gz2`, its (S*K*P, rows) form, and
    `gz`, the same as (S, K, P, rows): as it is, or summed over the K times
    into a new (S*P, rows) array for a block one time shared by all K."""
    if gz.shape[1] == kb:
        return gz2
    out = np.empty((gz.shape[0] * gz.shape[2], gz.shape[3]), gz.dtype)
    np.sum(gz, axis=1, out=out.reshape(gz.shape[0], gz.shape[2], gz.shape[3]))
    return out


def _sum_products(pairs, tmp):
    """The sum of a * b over (a, b) pairs as one new array; `tmp` is
    scratch of the result's shape."""
    total = None
    for a, b in pairs:
        if total is None:
            total = np.multiply(a, b)
        else:
            total += np.multiply(a, b, out=tmp)
    return total


def _scale(x, c):
    """x *= c in place, skipped for c == 1 (exact either way); returns x."""
    if c != 1.0:
        x *= c
    return x


# elements per pass of `_sin_cos`: a piece, its outputs and its scratch stay
# in cache between the pass's elementwise steps
_PIECE = 1 << 15


def _sin_cos(u, sin_out=None, cos_out=None):
    """sin u into `sin_out` and cos u into `cos_out` for a C-contiguous
    array u (slot panels), from t = tan(u/2): sin u = 2t / (1 + t^2),
    cos u = 2 / (1 + t^2) - 1, within about one ulp of 1 of libm.  Either
    output may be None or u itself.  Works in place over row pieces of about
    _PIECE elements of u's last axis; the sine alone needs one piece of
    scratch for 2 / (1 + t^2), which otherwise builds in the cosine's
    piece."""
    u, sin_out, cos_out = (None if a is None else a.reshape(-1, u.shape[-1])
                           for a in (u, sin_out, cos_out))
    rows, n = u.shape
    step = max(1, _PIECE // max(n, 1))
    scratch = np.empty((min(step, rows), n), u.dtype) if cos_out is None else None
    for r in range(0, rows, step):
        piece = slice(r, r + step)
        t = np.multiply(u[piece], 0.5, out=(cos_out if sin_out is None else sin_out)[piece])
        np.tan(t, out=t)
        d = scratch[: t.shape[0]] if cos_out is None else cos_out[piece]
        np.multiply(t, t, out=d)
        d += 1.0
        np.divide(2.0, d, out=d)
        if sin_out is not None:
            t *= d
        if cos_out is not None:
            d -= 1.0


def _jet_sine_forward(dtype, values, payload):
    """sin(omega u) over a block, u its folded value slot.  With s, c the
    sine and cosine of omega u, each tangent slot z_d becomes omega c z_d
    and each mixed slot -omega^2 s z_d z_t + omega c z_dt.  s and c come
    from one tangent of the half angle (`_sin_cos`).  The aux is omega c,
    so the VJP evaluates no transcendental; a value-only block needs no
    cosine forward and keeps none.  A block shared by K times is broadcast
    against the per-time column terms, so the output holds all K."""
    omega, slots, times = payload
    z, pos, cv, ct = _jet_block("jet_sine", values, slots, times)
    out_slots = _sine_slots(slots, ct is not None)
    panel = (times[1],) + z.shape[2:]
    wu = np.multiply(z[0], omega) if cv is None else _scale(z[0] + cv, omega)
    if len(out_slots) == 1:
        _sin_cos(wu, sin_out=wu)
        return wu.reshape(-1, z.shape[3])
    out = np.empty((len(out_slots),) + panel, dtype)
    s = out[0]
    _sin_cos(wu, sin_out=s, cos_out=wu)
    wc = _scale(wu, omega)
    zt = _folded(z, pos, cv, ct, T) if T in out_slots else None
    nzt = tmp = None
    for i, slot in enumerate(out_slots[1:], 1):
        if slot <= T:
            np.multiply(wc, zt if slot == T else z[pos[slot]], out=out[i])
            continue
        if nzt is None:  # -omega^2 s z_t, shared by the mixed slots
            nzt = np.multiply(s, zt)
            nzt *= -(omega * omega)
            tmp = np.empty_like(nzt)
        np.multiply(nzt, z[pos[slot - 4]], out=out[i])
        if slot in pos:
            out[i] += np.multiply(wc, z[pos[slot]], out=tmp)
    return out.reshape(-1, z.shape[3]), wc


def _jet_sine_vjp(node, g):
    """With acc = sum of g_s z_s over the tangent slots and mix = sum of
    g_dt z_d: g_u = omega c (g_v - omega^2 z_t mix) - omega^2 s acc,
    g_zd = omega c g_d - omega^2 s z_t g_dt, g_zdt = omega c g_dt and
    g_zt = omega c g_t - omega^2 s mix.  A shared block's cotangent is
    summed over the times."""
    omega, slots, times = node.payload
    z, pos, cv, ct = _jet_block("jet_sine", [n.value for n in node.inputs], slots, times)
    kb, k = times
    panel = (k,) + z.shape[2:]
    gz2, gz = _cotangent(len(slots), panel, z.dtype)
    if node.aux is None:  # value only
        gu = np.multiply(_folded(z, pos, cv, ct, V), omega, out=gz[0])
        _sin_cos(gu, cos_out=gu)
        _scale(gu, omega)
        gu *= g.reshape(panel)
        yield 0, _block_cotangent(gz2, gz, kb)
        yield from _column_grads(node, gu, None, k)
        return
    w2 = omega * omega
    out_slots = _sine_slots(slots, ct is not None)
    opos = {s: i for i, s in enumerate(out_slots)}
    g = g.reshape((len(out_slots),) + panel)
    wc = node.aux
    s = node.value.reshape(g.shape)[0]
    zt = _folded(z, pos, cv, ct, T) if T in opos else None
    mixed = [d for d in SPATIAL if d + 4 in opos]
    tmp = np.empty(panel, z.dtype)

    pairs = [(g[opos[d]], z[pos[d]]) for d in SPATIAL if d in opos]
    if zt is not None:
        pairs.append((g[opos[T]], zt))
    pairs += [(g[opos[d + 4]], z[pos[d + 4]]) for d in mixed if d + 4 in pos]
    acc = _sum_products(pairs, tmp)
    mix = _sum_products([(g[opos[d + 4]], z[pos[d]]) for d in mixed], tmp)

    gu = gz[0]
    if mix is None:
        np.multiply(g[0], wc, out=gu)
    else:
        np.multiply(zt, mix, out=tmp)
        _scale(tmp, w2)
        np.subtract(g[0], tmp, out=gu)
        gu *= wc
    gu -= _scale(np.multiply(s, acc, out=tmp), w2)

    if mixed:
        w2szt = _scale(np.multiply(s, zt), w2)
    for d in SPATIAL:
        if d not in opos:
            continue
        np.multiply(wc, g[opos[d]], out=gz[pos[d]])
        if d in mixed:
            gz[pos[d]] -= np.multiply(w2szt, g[opos[d + 4]], out=tmp)
            if d + 4 in pos:
                np.multiply(wc, g[opos[d + 4]], out=gz[pos[d + 4]])
    gzt = None
    if zt is not None:
        gzt = gz[pos[T]] if T in pos else np.empty_like(tmp)
        np.multiply(wc, g[opos[T]], out=gzt)
        if mix is not None:
            gzt -= _scale(np.multiply(s, mix, out=tmp), w2)
    yield 0, _block_cotangent(gz2, gz, kb)
    yield from _column_grads(node, gu, gzt if ct is not None else None, k)


def _leaky_mask(u, slope, dtype):
    return np.where(u >= 0.0, dtype.type(1.0), dtype.type(slope))


def _jet_leaky_forward(dtype, values, payload):
    """Leaky rectifier over a block: every tangent and mixed slot is scaled
    by the slope mask (the second derivative is 0 everywhere)."""
    slope, slots, times = payload
    z, pos, cv, ct = _jet_block("jet_leaky", values, slots, times)
    out_slots = _folded_slots(slots, ct is not None)
    u = _folded(z, pos, cv, ct, V)
    value = np.where(u >= 0.0, u, dtype.type(slope) * u)
    if len(out_slots) == 1:
        return value.reshape(-1, z.shape[3])
    mask = _leaky_mask(u, slope, dtype)
    out = np.empty((len(out_slots), times[1]) + z.shape[2:], dtype)
    out[0] = value
    for i, slot in enumerate(out_slots[1:], 1):
        np.multiply(mask, _folded(z, pos, cv, ct, slot), out=out[i])
    return out.reshape(-1, z.shape[3])


def _jet_leaky_vjp(node, g):
    slope, slots, times = node.payload
    z, pos, cv, ct = _jet_block("jet_leaky", [n.value for n in node.inputs], slots, times)
    kb, k = times
    panel = (k,) + z.shape[2:]
    out_slots = _folded_slots(slots, ct is not None)
    mask = _leaky_mask(_folded(z, pos, cv, ct, V), slope, node.value.dtype)
    g = g.reshape((len(out_slots),) + panel)
    gz2, gz = _cotangent(len(slots), panel, z.dtype)
    for slot, i in pos.items():
        np.multiply(mask, g[out_slots.index(slot)], out=gz[i])
    yield 0, _block_cotangent(gz2, gz, kb)
    gt = mask * g[out_slots.index(T)] if ct is not None else None
    yield from _column_grads(node, gz[0], gt, k)


def _jet_slot_forward(dtype, values, payload):
    """One slot of a block, column terms added, as a (rows, P) array, the
    transpose of time `time`'s (P, rows) panel, or for `time` None as a
    (rows, K*P) array over all K times, time-major."""
    slots, times, slot, time = payload
    z, pos, cv, ct = _jet_block("jet_slot", values, slots, times)
    if slot not in _folded_slots(slots, ct is not None):
        raise DiffEngineError(f"jet_slot: slot {slot} not in {slots}")
    out = np.broadcast_to(_folded(z, pos, cv, ct, slot), (times[1],) + z.shape[2:])
    if time is not None:
        return np.ascontiguousarray(out[time].T)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(z.shape[3], -1)


def _jet_slot_vjp(node, g):
    slots, (kb, k), slot, time = node.payload
    block = node.inputs[0].value
    rows = block.shape[1]
    if time is None:
        gk = g.reshape(rows, k, -1).transpose(1, 2, 0)
    else:
        gk = np.zeros((k, g.shape[1], rows), g.dtype)
        gk[time] = g.T
    if slot in slots:
        gz = np.zeros_like(block)
        gz.reshape(len(slots), kb, -1, rows)[slots.index(slot)] = (
            gk if kb == k else gk.sum(axis=0, keepdims=True)
        )
        yield 0, gz
    yield from _column_grads(node, gk if slot == V else None, gk if slot == T else None, k)


# adjugate entries as p*q - r*s over row-major input indices 0..8
_ADJ_TABLE = (
    (4, 8, 5, 7),
    (2, 7, 1, 8),
    (1, 5, 2, 4),
    (5, 6, 3, 8),
    (0, 8, 2, 6),
    (2, 3, 0, 5),
    (3, 7, 4, 6),
    (1, 6, 0, 7),
    (0, 4, 1, 3),
)


def _output_block(kind, values, payload, mixed=False):
    """An output layer's (S*Kb*P, 3) block as a (3, S, n) copy, component
    first, and its slot positions: n is the P points of time `time` or, for
    `time` None, the K*P points of every time, time-major.  Its column terms
    touch only slots v and t, so the spatial slots (and, with `mixed`, the
    mixed ones) are read as stored; a block shared by the K times is read
    once per time."""
    slots, (kb, k), time = payload
    z, pos, _, _ = _jet_block(kind, values, slots, (kb, kb))
    need = SPATIAL + ((XT, YT, ZT) if mixed else ())
    if z.shape[3] != 3 or any(s not in pos for s in need):
        raise DiffEngineError(f"{kind}: block {values[0].shape} of slots {slots} lacks {need}")
    z = np.broadcast_to(z, (len(slots), k) + z.shape[2:])
    z = z[:, time] if time is not None else z.reshape(len(slots), -1, 3)
    return np.ascontiguousarray(z.transpose(2, 0, 1)), pos


def _point_major(gz, payload):
    """A (3, S, n) cotangent of `_output_block` as the (S*Kb*P, 3) block it
    belongs to."""
    slots, (kb, k), time = payload
    gz = gz.transpose(1, 2, 0)
    if time is not None:
        full = np.zeros((len(slots), k) + gz.shape[1:], gz.dtype)
        full[:, time] = gz
        gz = full
    if kb < k:
        gz = gz.reshape(len(slots), k, -1, 3).sum(axis=1)
    return gz.reshape(-1, 3)


def _per_time(out, payload):
    """A reader's (n,) result as (K, P) when it reads every time."""
    return out if payload[2] is not None else out.reshape(payload[1][1], -1)


def _identity_plus_jacobian(z, pos, dtype):
    """The 9 row-major (B,) entries of I + J, J[i][j] = d(disp_i)/dx_j."""
    one = dtype.type(1.0)
    return [
        z[i, pos[X + j]] + one if i == j else z[i, pos[X + j]] for i in range(3) for j in range(3)
    ]


def _adjugate(x):
    return [x[p] * x[q] - x[r] * x[s] for (p, q, r, s) in _ADJ_TABLE]


def _jacobian_forward(dtype, values, payload):
    """The Jacobian J of the displacement, the spatial slots x, y, z as one
    (3, 3n) array: row i, columns [j*n, (j+1)*n) hold d(disp_i)/dx_j at the
    n points `_output_block` reads."""
    z, pos = _output_block("jacobian", values, payload)
    return z[:, pos[X] : pos[X] + 3].reshape(3, 3 * z.shape[2]).copy()


def _jacobian_vjp(node, g):
    z, pos = _output_block("jacobian", [node.inputs[0].value], node.payload)
    gz = np.zeros_like(z)
    gz[:, pos[X] : pos[X] + 3] = g.reshape(3, 3, z.shape[2])
    yield 0, _point_major(gz, node.payload)


def _jacdet_forward(dtype, values, payload):
    """|I + J| by cofactor expansion along the first row: (P,) at one time,
    (K, P) at every time."""
    z, pos = _output_block("jacdet", values, payload)
    x = _identity_plus_jacobian(z, pos, dtype)
    adj = _adjugate(x)
    return _per_time(x[0] * adj[0] + x[1] * adj[3] + x[2] * adj[6], payload)


def _jacdet_vjp(node, g):
    """d|M|/dM[i][j] is the cofactor C[i][j] = adj(M)[j][i]."""
    z, pos = _output_block("jacdet", [node.inputs[0].value], node.payload)
    adj = _adjugate(_identity_plus_jacobian(z, pos, node.value.dtype))
    g = g.reshape(-1)
    gz = np.zeros_like(z)
    for i in range(3):
        for j in range(3):
            np.multiply(g, adj[3 * j + i], out=gz[i, pos[X + j]])
    yield 0, _point_major(gz, node.payload)


def _jacdet_dt_forward(dtype, values, payload):
    """d|I + J|/dt by Jacobi's formula, tr(adj(I + J) dJ/dt), shaped as
    `_jacdet_forward`'s: the sum over i, then k, of adj[i][k] dJ[k][i]/dt,
    dJ[k][i]/dt being component k of the mixed slot of direction i."""
    z, pos = _output_block("jacdet_dt", values, payload, mixed=True)
    adj = _adjugate(_identity_plus_jacobian(z, pos, dtype))
    acc = None
    for i in range(3):
        for k in range(3):
            term = adj[3 * i + k] * z[k, pos[XT + i]]
            acc = term if acc is None else acc + term
    return _per_time(acc, payload)


def _jacdet_dt_vjp(node, g):
    """The mixed slot of direction i, component k, gets g adj[i][k]; the spatial
    slots get g dJ[k][i]/dt chained through each adjugate entry p*q - r*s,
    summed per entry in table order."""
    z, pos = _output_block("jacdet_dt", [node.inputs[0].value], node.payload, mixed=True)
    x = _identity_plus_jacobian(z, pos, node.value.dtype)
    adj = _adjugate(x)
    g = g.reshape(-1)
    gz = np.zeros_like(z)
    gx = [None] * 9
    for n, (p, q, r, s) in enumerate(_ADJ_TABLE):
        i, k = divmod(n, 3)
        np.multiply(g, adj[n], out=gz[k, pos[XT + i]])
        ga = g * z[k, pos[XT + i]]
        for e, d in ((p, ga * x[q]), (q, ga * x[p]), (r, -ga * x[s]), (s, -ga * x[r])):
            gx[e] = d if gx[e] is None else gx[e] + d
    for e, d in enumerate(gx):
        gz[e // 3, pos[X + e % 3]] = d
    yield 0, _point_major(gz, node.payload)


class Primitive(NamedTuple):
    forward: Callable
    vjp: Callable


# kind -> (forward, vjp); single-expression primitives are written in place
_PRIMITIVES = {
    "add": Primitive(
        _elementwise("add", operator.add),
        lambda node, g: [(0, g), (1, g)],
    ),
    "sub": Primitive(
        _elementwise("sub", operator.sub),
        lambda node, g: [(0, g), (1, -g)],
    ),
    "mul": Primitive(_elementwise("mul", operator.mul), _mul_vjp),
    "div": Primitive(_elementwise("div", operator.truediv), _div_vjp),
    "minimum": Primitive(_elementwise("minimum", np.minimum), _minimum_vjp),
    "scale": Primitive(
        lambda dtype, values, c: values[0] * dtype.type(c),
        lambda node, g: [(0, g * node.payload)],
    ),
    "offset": Primitive(
        lambda dtype, values, c: values[0] + dtype.type(c),
        lambda node, g: [(0, g)],
    ),
    "square": Primitive(
        lambda dtype, values, payload: values[0] * values[0],
        lambda node, g: [(0, 2.0 * g * node.inputs[0].value)],
    ),
    "sqrt": Primitive(
        lambda dtype, values, payload: np.sqrt(values[0]),
        lambda node, g: [(0, 0.5 * g / node.value)],
    ),
    "relu": Primitive(
        lambda dtype, values, payload: np.maximum(values[0], 0.0),
        lambda node, g: [(0, g * (node.inputs[0].value > 0.0))],
    ),
    "affine": Primitive(_affine_forward, _affine_vjp),
    "sum": Primitive(_sum_forward, _sum_vjp),
    "mean": Primitive(
        lambda dtype, values, payload: np.asarray(values[0].mean(), dtype=dtype),
        _mean_vjp,
    ),
    "sample3": Primitive(_sample3_forward, lambda node, g: [(0, g * node.aux)]),
    "jet_sine": Primitive(_jet_sine_forward, _jet_sine_vjp),
    "jet_leaky": Primitive(_jet_leaky_forward, _jet_leaky_vjp),
    "jet_slot": Primitive(_jet_slot_forward, _jet_slot_vjp),
    "jacobian": Primitive(_jacobian_forward, _jacobian_vjp),
    "jacdet": Primitive(_jacdet_forward, _jacdet_vjp),
    "jacdet_dt": Primitive(_jacdet_dt_forward, _jacdet_dt_vjp),
}


class Tape:
    """Ordered record of primitives; inputs of a node always precede it."""

    def __init__(self, dtype=np.float64):
        if dtype not in (np.float32, np.float64):
            raise DiffEngineError(f"unsupported dtype {dtype}")
        self.dtype = np.dtype(dtype)
        self.nodes: list[Node] = []
        self._ref = weakref.ref(self)

    # ---- construction -------------------------------------------------

    def _push(self, kind, inputs, payload, value, aux=None) -> Node:
        """Make a node, recorded if it is a leaf or has a recorded input.
        An unrecorded node keeps no inputs or aux: no gradient flows through
        it, and its ancestors are freed as soon as the caller drops them."""
        if kind != "leaf" and all(n.idx is None for n in inputs):
            return Node(self._ref, kind, (), payload, value)
        node = Node(self._ref, kind, tuple(inputs), payload, value, aux)
        node.idx = len(self.nodes)
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        return self._push("const", (), None, np.asarray(value, dtype=self.dtype))

    def leaf(self, value) -> Node:
        """A parameter: its adjoint is the gradient of the output."""
        return self._push("leaf", (), None, np.asarray(value, dtype=self.dtype))

    def record(self, kind: str, inputs: Sequence[Node], payload=None) -> Node:
        """The one entry point for every primitive of `_PRIMITIVES`."""
        primitive = _PRIMITIVES.get(kind)
        if primitive is None:
            raise DiffEngineError(f"unknown op-kind {kind!r}")
        for n in inputs:
            if n._tape is not self._ref:
                raise DiffEngineError("input node belongs to a different tape")
        out = primitive.forward(self.dtype, [n.value for n in inputs], payload)
        value, aux = out if isinstance(out, tuple) else (out, None)
        return self._push(kind, inputs, payload, value, aux)

    # ---- primitive wrappers -------------------------------------------

    def add(self, a, b):
        return self.record("add", (a, b))

    def sub(self, a, b):
        return self.record("sub", (a, b))

    def mul(self, a, b):
        return self.record("mul", (a, b))

    def div(self, a, b):
        return self.record("div", (a, b))

    def minimum(self, a, b):
        return self.record("minimum", (a, b))

    def scale(self, x, c: float):
        return self.record("scale", (x,), float(c))

    def offset(self, x, c: float):
        return self.record("offset", (x,), float(c))

    def square(self, x):
        return self.record("square", (x,))

    def sqrt(self, x):
        return self.record("sqrt", (x,))

    def relu(self, x):
        return self.record("relu", (x,))

    def affine(self, w, x, cols: tuple[int, int] | None = None):
        return self.record("affine", (w, x), cols)

    def sum(self, x, axis=None):
        return self.record("sum", (x,), axis)

    def mean(self, x):
        return self.record("mean", (x,))

    def sample3(self, grid: np.ndarray, points):
        return self.record("sample3", (points,), grid)

    def stats(self) -> dict:
        """Recorded nodes, and the bytes their values and aux hold by kind."""
        by_kind = {}
        for node in self.nodes:
            nbytes = node.value.nbytes + (0 if node.aux is None else node.aux.nbytes)
            by_kind[node.kind] = by_kind.get(node.kind, 0) + nbytes
        return {"nodes": len(self.nodes), "bytes": by_kind}

    # ---- reverse sweep --------------------------------------------------

    def backward(self, output: Node):
        """Add d(output)/d(leaf) to the adjoint of every leaf feeding
        `output`, a scalar that must depend on at least one leaf.

        One reverse sweep in tape order.  Each non-leaf adjoint is released
        as soon as its VJP has run, so the sweep holds only the adjoints of
        its frontier and, afterwards, only leaves hold adjoints.  Unrecorded
        nodes (constants) receive nothing.
        """
        if output.value.shape != ():
            raise DiffEngineError(
                f"backward: output must be scalar, got shape {output.value.shape}"
            )
        if output._tape is not self._ref:
            raise DiffEngineError("backward: output belongs to a different tape")
        if output.idx is None:
            raise DiffEngineError("backward: output depends on no leaf")
        output.adjoint = np.ones((), dtype=self.dtype)
        for node in reversed(self.nodes[: output.idx + 1]):
            g = node.adjoint
            if g is None or node.kind == "leaf":
                continue
            node.adjoint = None
            for pos, grad in _PRIMITIVES[node.kind].vjp(node, g):
                target = node.inputs[pos]
                if target.idx is None:
                    continue
                grad = _unbroadcast(grad, target.value.shape)
                if target.adjoint is None:
                    target.adjoint = grad.copy() if grad.base is not None else grad
                else:
                    target.adjoint = target.adjoint + grad




# ---------------------------------------------------------------------------
# Stacked jets over tape nodes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """One layer's value, tangents and mixed entries at K times as a single
    node.

    `node` holds an (S*K*P, rows) block, (S, K, P, rows) in C order: slot
    `slots[s]` is the (K*P, rows) panel of rows [s*K*P, (s+1)*K*P), and
    time k of it the (P, rows) panel after k*P of those rows.  A block
    `block_times` = 1 < `times` holds one time shared by all K (layer 2's
    time-invariant input); the rule that folds its column terms broadcasts
    it.  `cols` are column terms not yet added, each (1, rows) (joins slot
    v at every time), (K, rows) (slot v, one row per time) or (2K, rows)
    (slot v, then slot t, one row per time), broadcast over the points; the
    next sine, leaky rule or slot extraction folds them into its input, so
    adding them costs no copy of the block.  A matmul takes no jet that
    carries them.
    """

    node: Node
    slots: tuple
    cols: tuple = ()
    times: int = 1
    block_times: int = 1

    @property
    def layout(self) -> tuple:
        """(block_times, times), the `times` of the jet primitives' payloads."""
        return (self.block_times, self.times)

    @property
    def has_t_column(self) -> bool:
        return any(c.value.shape[0] == 2 * self.times for c in self.cols)

    @property
    def folded_slots(self) -> tuple:
        return _folded_slots(self.slots, self.has_t_column)

    def inputs(self) -> tuple:
        return (self.node,) + self.cols


def bundle_affine(
    tape: Tape, w: Node, x: Jet, b: Node | None = None, cols: tuple[int, int] | None = None
) -> Jet:
    """block @ W[:, cols].T: one matmul maps every slot at every time; the
    bias, a (1, out) row, becomes a column term of slot v.  `x` must carry
    no pending column terms."""
    if x.cols:
        raise DiffEngineError("bundle_affine: fold the jet's column terms before a matmul")
    node = tape.affine(w, x.node, cols=cols)
    return Jet(node, x.slots, () if b is None else (b,), x.times, x.times)


def bundle_add(tape: Tape, a: Jet, b: Jet) -> Jet:
    """a + b for a column jet `b` (K points of slots v or v, t, such as a
    product with the embedding of K times): b joins a's column terms, one
    row per time, and a's block, if it holds one time, is shared by the K;
    nothing is recorded."""
    rows = b.node.value.shape[0]
    k = rows // len(b.slots)
    if b.slots not in ((V,), (V, T)) or b.times != 1 or rows != k * len(b.slots):
        raise DiffEngineError(f"bundle_add: {b.node.value.shape} is not a column jet")
    if a.times not in (1, k):
        raise DiffEngineError(f"bundle_add: {k} times do not match a jet of {a.times}")
    return Jet(a.node, a.slots, a.cols + (b.node,) + b.cols, k, a.block_times)


def bundle_sine(tape: Tape, x: Jet, omega: float = 1.0) -> Jet:
    """sin(omega x) over the whole block, one node (see `_jet_sine_forward`)."""
    node = tape.record("jet_sine", x.inputs(), (float(omega), x.slots, x.layout))
    return Jet(node, _sine_slots(x.slots, x.has_t_column), times=x.times, block_times=x.times)


def bundle_leaky(tape: Tape, x: Jet, slope: float) -> Jet:
    """Leaky rectifier over the whole block; its second derivative is 0."""
    node = tape.record("jet_leaky", x.inputs(), (float(slope), x.slots, x.layout))
    return Jet(node, x.folded_slots, times=x.times, block_times=x.times)


def jet_slot(tape: Tape, x: Jet, slot: int, time: int | None = None) -> Node:
    """Slot `slot` of a jet, column terms added, as a (rows, P) node at time
    `time`, or a (rows, K*P) node at every time for `time` None."""
    return tape.record("jet_slot", x.inputs(), (x.slots, x.layout, slot, time))
