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
  * `jet_slot` reads any tuple of folded slots as one (rows, R*K*P) node
    over every time, slot-major then time-major, or as the (rows, R*P)
    transposes of one time's panels; it is the only read of a single time.
  * The output layer's block ((S*K*P, 3), the displacement's components)
    is the one place that holds the Jacobian's layout: slot x+j,
    component i is J[i][j] = d(disp_i)/dx_j, and mixed slot xt+j,
    component i is dJ[i][j]/dt.  So J is the `jet_slot` read of slots x,
    y, z, a (3, 3*K*P) node.  Its column terms touch only slots v and t,
    so `jacdet_dt` (d|I + J|/dt = tr(adj(I + J) dJ/dt) by Jacobi's
    formula, (K, P); a zero constant when the jet has no mixed slots)
    takes the block node alone, and `jacdet` (|I + J| by cofactor
    expansion, (K, P)) reads the block's value and records nothing: no
    loss differentiates |J|.  Both read all K times of the group through
    one transposed (3, S, K*P) copy of this small block.
Every jet primitive's payload carries its block's `times`, the pair
(block times, K): `jacdet_dt`'s is (slots, times), a `jet_slot`'s also
the slots and the time it reads (None: every time).  The readers and
bundle rules below build every payload; no other module records a jet
kind.
With this layout a layer is one matmul forward (block @ W.T) and two
backward (g.T @ block and g @ W) for all K times, and one node per rule;
every elementwise pass of a rule runs over whole contiguous slot panels.
In a (rows, S*B) layout each slot would be a strided (rows, B) view, and
each of those passes measured 2-4 times slower at the benchmark's sizes.

Shape conventions (no broadcasting: the operands of `add` have one shape,
and every VJP returns its input's shape):
  * scalars are 0-d arrays,
  * a batch of scalars is (B,),
  * a stack of vectors is (R, B): rows are components, columns are points,
  * jet blocks and their column terms are point-major, as above; only the
    jet primitives read them.

Tapes are single-owner: one tape per lane of a fitting step, never
shared across threads or processes.  Evaluation is eager; `backward` runs one reverse
sweep in tape order, which makes repeated runs on identical inputs
bit-identical.  A lane may record and sweep its loss segments on one
tape: each sweep adds its segment's gradient to the leaves' adjoints.

Lifetime contract:
  * Only leaves and nodes with a recorded input are recorded.  Constants,
    and anything computed from constants alone (e.g. a network evaluated
    with `make_leaves(trainable=False)`), are evaluated eagerly but never
    enter the tape and keep no reference to their inputs, so each lives
    only as long as the caller holds it.
  * `backward` releases each non-leaf node as soon as its VJP has run:
    the tape drops it, and the node drops its inputs, aux and adjoint, so
    its buffers are freed during the sweep unless the caller holds the
    node.  After a sweep the tape holds only its leaves, with their
    adjoints; `release` drops a segment the same way without a sweep.
  * A released node keeps its value but cannot be an input of a later
    record (or the output of a sweep): `record` refuses it, naming its
    kind, since it would get no adjoint.
  * Nodes refer to their tape weakly, so tape and nodes form no reference
    cycle: reference counting frees a tape and all its buffers when the
    caller drops the last reference to it, with no garbage-collector pass.
  * A recorded node's adjoint is an array that the node alone owns: no
    other node's adjoint, value or aux shares its memory.  So `backward`
    adds each later cotangent into it in place, and hands it to the node's
    VJP as `g`, which the VJP may overwrite.  Every sine and leaky rule
    writes its input cotangent over the leading slots of `g`, since every
    slot it adds sorts after its input's (`_jet_block` refuses any other
    order), and yields `g`, a view of those slots (a one-time group's
    layer 2), or those slots summed over the times for a block of one
    time shared by K; no rule allocates any other cotangent block.  A VJP
    may yield one array to two inputs (`add` yields `g` twice,
    `_column_grads` one slot-v sum to two column terms); the second input
    then gets a copy, as does one handed a view.
  * A weight's cotangent is a `Slab`: the (out, hi - lo) product of
    its columns lo:hi alone.  The weight's adjoint is allocated once per
    step, zero-filled, on its first slab, and every slab adds into its
    columns, so no weight-sized array is made per product.

Primitive table: `_PRIMITIVES` maps each of its 11 kinds to a pair
`Primitive(forward, vjp)`: `add`, `scale`, `sum_squares`, `monotonic` (a
whole monotonic term), `affine`, `sample3` (a grid sampled at (3, B)
points), `ncc` (a whole NCC term) and the four jet kinds above
(`jet_sine`, `jet_leaky`, `jet_slot`, `jacdet_dt`); each loss reduction
is one node with a closed-form VJP, and every kind serves training.
`forward(dtype, values, payload)` checks the input values' shapes and
returns the output value, or `(value, aux)` when the VJP needs more than
values (`sample3` keeps the sampler gradients, `ncc` its closed-form one,
`monotonic` the branch of each point).
`vjp(node, g)` yields, or returns a list of, `(input position, cotangent)`
pairs, which `backward` adds to the inputs' adjoints in that order, so the
order fixes every adjoint sum bit for bit; `affine`'s weight cotangent is a
`Slab` of its columns.  `Tape.record(kind, inputs,
payload)` is the one entry point for every primitive.  Adding one is a
table entry plus a case in the finite-difference VJP test
(`tests/test_diffengine.py`), and a fit step must record it with a
recorded input; a product no loss differentiates is a value read.
"""

from __future__ import annotations

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
    "jacdet",
    "jacdet_dt",
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


def _add_forward(dtype, values, payload):
    """a + b of operands of one shape; two 0-d operands give a 0-d array,
    not numpy's scalar."""
    a, b = values
    if a.shape != b.shape:
        raise DiffEngineError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return np.asarray(a + b)


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


class Slab(NamedTuple):
    """A weight's cotangent that is zero outside its columns lo:hi: the
    (out, hi - lo) product `value`, which `Tape.backward` adds into those
    columns of the weight's adjoint."""

    value: np.ndarray
    lo: int


def _affine_vjp(node, g):
    # the products are skipped for an unrecorded weight or input
    w, x = node.inputs
    lo, hi = node.payload or (0, w.value.shape[1])
    if w.idx is not None:
        yield 0, Slab(g.T @ x.value, lo)
    if x.idx is not None:
        yield 1, g @ w.value[:, lo:hi]


def _sum_squares_forward(dtype, values, count):
    """The sum of squares of every element, a 0-d array; with a `count`,
    the columns' sums of squares (squared norms of points) summed and over
    `count`, the size of the batch the columns are a part of."""
    sq = values[0] * values[0]
    if count is None:
        return np.asarray(sq.sum(), dtype=dtype)
    return np.asarray(sq.sum(axis=0).sum() / count, dtype=dtype)


def _sum_squares_vjp(node, g):
    g = g if node.payload is None else g / node.payload
    yield 0, 2.0 * g * node.inputs[0].value


def _monotonic_forward(dtype, values, nbatch):
    """The monotonic term of (K, P) groups of d|J|/dt: per point, pos and
    neg sum relu(d) and relu(-d) over each group's times, then over the
    groups; the value is the sum of min(pos, neg) over `nbatch` (None: P).
    The aux is `take`, pos <= neg per point: a tie goes to pos."""
    pos = neg = None
    for d in values:
        if d.ndim != 2 or d.shape[1] != values[0].shape[1]:
            raise DiffEngineError(f"monotonic: group {d.shape} is not (K, {values[0].shape[1]})")
        p = np.maximum(d, 0.0).sum(axis=0)
        n = np.maximum(d * dtype.type(-1.0), 0.0).sum(axis=0)
        pos = p if pos is None else pos + p
        neg = n if neg is None else neg + n
    value = np.minimum(pos, neg).sum() / (nbatch or pos.size)
    return np.asarray(value, dtype=dtype), pos <= neg


def _monotonic_vjp(node, g):
    """g/n where pos is taken and d > 0, -g/n where neg is and d < 0."""
    take = node.aux
    gn = g / (node.payload or take.size)
    for i, d in enumerate(node.inputs):
        gd = np.zeros_like(d.value)
        gd[take & (d.value > 0.0)] = gn
        gd[~take & (d.value < 0.0)] = -gn
        yield i, gd


def _sample3_forward(dtype, values, grid):
    """Trilinear samples of `grid` at the (3, B) points; the sampler's
    spatial gradients are kept as the node's aux for the VJP."""
    vals, grads = trilinear_values_and_grads(grid, values[0])
    return np.asarray(vals, dtype=dtype), grads.astype(dtype, copy=False)


def _ncc_forward(dtype, values, fixed):
    """L = 1 - num / sqrt(F M) of the (B,) warped values m against the
    fixed values f (the payload), each centred: num = sum f~ m~,
    F = sum f~^2 and M = sum m~^2.  The aux is the closed-form gradient
    dL/dm_i = ((num / M) m~_i - f~_i) / sqrt(F M); the centring drops out
    of it, as sum f~ = sum m~ = 0."""
    m = values[0]
    f = np.asarray(fixed, dtype=dtype)
    if m.ndim != 1 or f.shape != m.shape:
        raise DiffEngineError(f"ncc: shape mismatch {f.shape} vs {m.shape}")
    fc = f - f.mean()
    mc = m - np.asarray(m.sum() / m.size, dtype=dtype)
    num = np.asarray((fc * mc).sum(), dtype=dtype)
    mm = np.asarray((mc * mc).sum(), dtype=dtype)
    den = np.sqrt(np.asarray(fc @ fc, dtype=dtype) * mm)
    value = np.asarray((num / den) * dtype.type(-1.0) + dtype.type(1.0))
    return value, ((num / mm) * mc - fc) / den


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
    if _sine_slots(slots, True)[: len(slots)] != slots:
        raise DiffEngineError(
            f"{kind}: slots {slots} must increase and precede every slot a rule adds"
        )
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


def _block_cotangent(g, g4, n, kb):
    """The cotangent of a rule's input block of `n` slots, which the rule
    wrote over the leading slots of its output's cotangent `g` (`g4` is g
    as (S, K, P, rows)): `g` itself, a view of its leading rows, or, for a
    block of one time shared by all K, those slots summed over the times
    into a new (n*P, rows) array."""
    gz = g4[:n]
    if gz.shape[1] == kb:
        return g if n == len(g4) else g[: len(g) // len(g4) * n]
    out = np.empty((n * gz.shape[2], gz.shape[3]), gz.dtype)
    np.sum(gz, axis=1, out=out.reshape((n,) + gz.shape[2:]))
    return out


def _sum_products(pairs, out, tmp):
    """The sum of a * b over (a, b) pairs, in order, into `out`, with `tmp`
    as scratch; a `b` that is a function writes its operand into the
    buffer it is given and returns it.  None for no pairs."""
    if not pairs:
        return None
    for i, (a, b) in enumerate(pairs):
        dst = out if i == 0 else tmp
        np.multiply(a, b(dst) if callable(b) else b, out=dst)
        if i:
            out += dst
    return out


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


def _omega_u(z, cv, omega, out=None):
    """omega times a block's folded value slot, into `out` (None: a new
    (K, P, rows) panel)."""
    if cv is None:
        return np.multiply(z[0], omega, out=out)
    return _scale(np.add(z[0], cv, out=out), omega)


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
    wu = _omega_u(z, cv, omega)
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
    g_zt = omega c g_t - omega^2 s mix.

    The input's slots are the output's first ones (`_jet_block`), so the
    input cotangent overwrites the leading slots of `g`, which the sweep
    hands over as the node's own, and goes out as `_block_cotangent`
    yields it.  acc and mix are taken first, from the untouched `g`, into
    panels `a` and `b`; then the spatial slots are written, with
    omega^2 s z_t in `c` and each product in `e`; then g_u over slot v and
    g_zt over slot t.  Scratch is at most those four (K, P, rows) panels,
    and one, omega c, for a value-only rule.  A folded z_t that is a sum
    is added again into the buffer each use is given, never held."""
    omega, slots, (kb, k) = node.payload
    z, pos, cv, ct = _jet_block("jet_sine", [n.value for n in node.inputs], slots, (kb, k))
    panel = (k,) + z.shape[2:]
    out_slots = _sine_slots(slots, ct is not None)
    g4 = g.reshape((len(out_slots),) + panel)
    gu = g4[0]
    if node.aux is None:  # value only
        wc = _omega_u(z, cv, omega, out=np.empty(panel, z.dtype))
        _sin_cos(wc, cos_out=wc)
        np.multiply(_scale(wc, omega), gu, out=gu)
        yield 0, _block_cotangent(g, g4, 1, kb)
        yield from _column_grads(node, gu, None, k)
        return
    w2 = omega * omega
    opos = {s: i for i, s in enumerate(out_slots)}
    wc = node.aux
    s = node.value.reshape(g4.shape)[0]
    mixed = [d for d in SPATIAL if d + 4 in opos]
    a, b = np.empty(panel, z.dtype), np.empty(panel, z.dtype)
    c, e = (np.empty(panel, z.dtype), np.empty(panel, z.dtype)) if mixed else (None, None)

    def zt(buf):
        """The folded t slot: a view, or z_t + ct added into `buf`."""
        if T in pos and ct is not None:
            return np.add(z[pos[T]], ct, out=buf)
        return _folded(z, pos, cv, ct, T)

    pairs = [(g4[opos[d]], z[pos[d]]) for d in SPATIAL if d in opos]
    if T in opos:
        pairs.append((g4[opos[T]], zt))
    pairs += [(g4[opos[d + 4]], z[pos[d + 4]]) for d in mixed if d + 4 in pos]
    acc = _sum_products(pairs, a, b)
    _scale(np.multiply(s, acc, out=acc), w2)
    mix = _sum_products([(g4[opos[d + 4]], z[pos[d]]) for d in mixed], b, e)

    if mixed:
        w2szt = _scale(np.multiply(s, zt(c), out=c), w2)
    for d in SPATIAL:
        if d not in opos:
            continue
        gd = np.multiply(wc, g4[opos[d]], out=g4[opos[d]])
        if d in mixed:
            gdt = g4[opos[d + 4]]
            gd -= np.multiply(w2szt, gdt, out=e)
            if d + 4 in pos:
                np.multiply(wc, gdt, out=gdt)

    if mix is None:
        np.multiply(gu, wc, out=gu)
    else:
        np.multiply(zt(e), mix, out=e)
        _scale(e, w2)
        np.subtract(gu, e, out=gu)
        gu *= wc
    gu -= acc

    gzt = None
    if T in opos:
        gzt = np.multiply(wc, g4[opos[T]], out=g4[opos[T]])
        if mix is not None:
            gzt -= _scale(np.multiply(s, mix, out=mix), w2)
    yield 0, _block_cotangent(g, g4, len(slots), kb)
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
    """Every slot's cotangent times the slope mask, written over `g`: the
    input cotangent is its leading slots (`_block_cotangent`), and slot v's
    and slot t's go to the column terms."""
    slope, slots, (kb, k) = node.payload
    z, pos, cv, ct = _jet_block("jet_leaky", [n.value for n in node.inputs], slots, (kb, k))
    out_slots = _folded_slots(slots, ct is not None)
    g4 = g.reshape((len(out_slots), k) + z.shape[2:])
    g4 *= _leaky_mask(_folded(z, pos, cv, ct, V), slope, node.value.dtype)
    yield 0, _block_cotangent(g, g4, len(slots), kb)
    yield from _column_grads(node, g4[0], g4[out_slots.index(T)] if ct is not None else None, k)


def _jet_slot_forward(dtype, values, payload):
    """The R slots `read` of a block, column terms added, as one
    (rows, R*K*P) array over all K times, slot-major then time-major, or
    for a position `time` as (rows, R*P), the transposes of that time's
    (P, rows) panels."""
    slots, times, read, time = payload
    z, pos, cv, ct = _jet_block("jet_slot", values, slots, times)
    folded = _folded_slots(slots, ct is not None)
    if not read or any(s not in folded for s in read):
        raise DiffEngineError(f"jet_slot: slots {read} not in {folded}")
    k, p, rows = times[1], z.shape[2], z.shape[3]
    out = np.empty((rows, len(read)) + ((p,) if time is not None else (k, p)), dtype)
    for i, slot in enumerate(read):
        panel = np.broadcast_to(_folded(z, pos, cv, ct, slot), (k, p, rows))
        out[:, i] = panel[time].T if time is not None else panel.transpose(2, 0, 1)
    return out.reshape(rows, -1)


def _jet_slot_vjp(node, g):
    """Each read slot's cotangent into its slot of the block (summed over
    the K times for a shared block), and slot v's and slot t's into the
    column terms."""
    slots, (kb, k), read, time = node.payload
    block = node.inputs[0].value
    rows = block.shape[1]
    if time is None:
        gk = g.reshape(rows, len(read), k, -1).transpose(1, 2, 3, 0)
    else:
        gk = np.zeros((len(read), k, g.shape[1] // len(read), rows), g.dtype)
        gk[:, time] = g.reshape(rows, len(read), -1).transpose(1, 2, 0)
    if any(s in slots for s in read):
        gz = np.zeros_like(block)
        gz4 = gz.reshape(len(slots), kb, -1, rows)
        for i, slot in enumerate(read):
            if slot in slots:
                gz4[slots.index(slot)] = gk[i] if kb == k else gk[i].sum(axis=0, keepdims=True)
        yield 0, gz
    gv, gt = (gk[read.index(s)] if s in read else None for s in (V, T))
    yield from _column_grads(node, gv, gt, k)


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
    """An output layer's (S*Kb*P, 3) block as a (3, S, K*P) copy, component
    first, the K*P points time-major, and its slot positions.  Its column
    terms touch only slots v and t, so the spatial slots (and, with
    `mixed`, the mixed ones) are read as stored; a block shared by the K
    times is read once per time."""
    slots, (kb, k) = payload
    z, pos, _, _ = _jet_block(kind, values, slots, (kb, kb))
    need = SPATIAL + ((XT, YT, ZT) if mixed else ())
    if z.shape[3] != 3 or any(s not in pos for s in need):
        raise DiffEngineError(f"{kind}: block {values[0].shape} of slots {slots} lacks {need}")
    z = np.broadcast_to(z, (len(slots), k) + z.shape[2:]).reshape(len(slots), -1, 3)
    return np.ascontiguousarray(z.transpose(2, 0, 1)), pos


def _point_major(gz, payload):
    """A (3, S, K*P) cotangent of `_output_block` as the (S*Kb*P, 3) block
    it belongs to."""
    slots, (kb, k) = payload
    gz = gz.transpose(1, 2, 0)
    if kb < k:
        gz = gz.reshape(len(slots), k, -1, 3).sum(axis=1)
    return gz.reshape(-1, 3)


def _identity_plus_jacobian(z, pos, dtype):
    """The 9 row-major (B,) entries of I + J, J[i][j] = d(disp_i)/dx_j."""
    one = dtype.type(1.0)
    return [
        z[i, pos[X + j]] + one if i == j else z[i, pos[X + j]] for i in range(3) for j in range(3)
    ]


def _adjugate(x):
    return [x[p] * x[q] - x[r] * x[s] for (p, q, r, s) in _ADJ_TABLE]


def _jacdet_dt_forward(dtype, values, payload):
    """d|I + J|/dt by Jacobi's formula, tr(adj(I + J) dJ/dt), shaped as
    `jacdet`'s: the sum over i, then k, of adj[i][k] dJ[k][i]/dt,
    dJ[k][i]/dt being component k of the mixed slot of direction i."""
    z, pos = _output_block("jacdet_dt", values, payload, mixed=True)
    adj = _adjugate(_identity_plus_jacobian(z, pos, dtype))
    acc = None
    for i in range(3):
        for k in range(3):
            term = adj[3 * i + k] * z[k, pos[XT + i]]
            acc = term if acc is None else acc + term
    return acc.reshape(payload[1][1], -1)


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
    "add": Primitive(_add_forward, lambda node, g: [(0, g), (1, g)]),
    # np.asarray keeps a 0-d input's result a 0-d array
    "scale": Primitive(
        lambda dtype, values, c: np.asarray(values[0] * dtype.type(c)),
        lambda node, g: [(0, g * node.payload)],
    ),
    "sum_squares": Primitive(_sum_squares_forward, _sum_squares_vjp),
    "monotonic": Primitive(_monotonic_forward, _monotonic_vjp),
    "affine": Primitive(_affine_forward, _affine_vjp),
    "sample3": Primitive(_sample3_forward, lambda node, g: [(0, g * node.aux)]),
    "ncc": Primitive(_ncc_forward, lambda node, g: [(0, g * node.aux)]),
    "jet_sine": Primitive(_jet_sine_forward, _jet_sine_vjp),
    "jet_leaky": Primitive(_jet_leaky_forward, _jet_leaky_vjp),
    "jet_slot": Primitive(_jet_slot_forward, _jet_slot_vjp),
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
                raise DiffEngineError(f"{kind}: input {_foreign(n)}")
        out = primitive.forward(self.dtype, [n.value for n in inputs], payload)
        value, aux = out if isinstance(out, tuple) else (out, None)
        return self._push(kind, inputs, payload, value, aux)

    # ---- primitive wrappers -------------------------------------------

    def add(self, a, b):
        return self.record("add", (a, b))

    def scale(self, x, c: float):
        return self.record("scale", (x,), float(c))

    def affine(self, w, x, cols: tuple[int, int] | None = None):
        return self.record("affine", (w, x), cols)

    def sum_squares(self, x, count: int | None = None):
        return self.record("sum_squares", (x,), count)

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
        `output`, a scalar that must depend on at least one leaf, then
        release every other recorded node (see `release`).

        One reverse sweep in tape order.  Each non-leaf node is released
        as soon as its VJP has run, so its value, aux and adjoint are freed
        during the sweep once nothing else holds them, and the sweep holds
        only the adjoints of its frontier.  Leaves keep their adjoints and
        add to them, so sweeps of successive segments on one tape sum
        their gradients.  Unrecorded nodes (constants) receive nothing.

        Every adjoint is an array its node alone owns (see the lifetime
        contract), so contributions add into it in place.  A node's first
        cotangent becomes its adjoint as it is, unless it is a view or
        this VJP already handed the same array to another input; then the
        node gets a copy.  A `Slab` adds into its columns of the weight's
        adjoint, which its first slab allocates zero-filled, once per
        step.
        """
        if output.value.shape != ():
            raise DiffEngineError(
                f"backward: output must be scalar, got shape {output.value.shape}"
            )
        if output._tape is not self._ref:
            raise DiffEngineError(f"backward: output {_foreign(output)}")
        if output.idx is None:
            raise DiffEngineError("backward: output depends on no leaf")
        output.adjoint = np.ones((), dtype=self.dtype)
        nodes, leaves = self.nodes, []
        self.nodes = []
        while nodes:
            node = nodes.pop()
            if node.kind == "leaf":
                leaves.append(node)
                continue
            g = node.adjoint
            if g is not None:
                node.adjoint = None
                handed = []
                for pos, grad in _PRIMITIVES[node.kind].vjp(node, g):
                    target = node.inputs[pos]
                    if target.idx is None:
                        continue
                    if isinstance(grad, Slab):
                        if target.adjoint is None:
                            target.adjoint = np.zeros_like(target.value)
                        cols = slice(grad.lo, grad.lo + grad.value.shape[1])
                        target.adjoint[:, cols] += grad.value
                    elif target.adjoint is not None:
                        target.adjoint += grad
                    elif grad.base is not None or any(grad is h for h in handed):
                        target.adjoint = grad.copy()
                    else:
                        target.adjoint = grad
                        handed.append(grad)
            _release(node)
        self._keep(leaves[::-1])

    def release(self):
        """Drop every recorded node but the leaves, as a sweep does: the
        tape then holds only its leaves and their adjoints, and a released
        node keeps its value but no inputs or aux, and cannot be an input
        of a later record."""
        leaves = []
        for node in self.nodes:
            if node.kind == "leaf":
                leaves.append(node)
            else:
                _release(node)
        self._keep(leaves)

    def _keep(self, leaves):
        for i, leaf in enumerate(leaves):
            leaf.idx = i
        self.nodes = leaves


def _released():
    """The tape reference of a node that a sweep or `release` dropped."""
    return None


def _release(node):
    node._tape = _released
    node.inputs = ()
    node.aux = None
    node.adjoint = None


def _foreign(node) -> str:
    """Why `node` cannot be used on a tape whose reference it lacks."""
    if node._tape is _released:
        return f"{node.kind} node was released by an earlier reverse sweep"
    return "node belongs to a different tape"


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


def jet_slot(tape: Tape, x: Jet, read: tuple, time: int | None = None) -> Node:
    """The slots `read` of a jet, column terms added, as one (rows, R*K*P)
    node over every time, slot-major then time-major, or for a position
    `time` as a (rows, R*P) node at that time alone."""
    return tape.record("jet_slot", x.inputs(), (x.slots, x.layout, tuple(read), time))


def jacdet(x: Jet) -> np.ndarray:
    """|I + J| of an output jet by cofactor expansion along the first row,
    (K, P): a value read that records nothing."""
    z, pos = _output_block("jacdet", [x.node.value], (x.slots, x.layout))
    m = _identity_plus_jacobian(z, pos, z.dtype)
    adj = _adjugate(m)
    return (m[0] * adj[0] + m[1] * adj[3] + m[2] * adj[6]).reshape(x.times, -1)


def jacdet_dt(tape: Tape, x: Jet) -> Node:
    """d|I + J|/dt of an output jet, (K, P); a zero constant when the jet
    has no mixed slot (depth 2: J does not depend on time)."""
    if XT not in x.slots:
        points = x.node.value.shape[0] // (len(x.slots) * x.block_times)
        return tape.constant(np.zeros((x.times, points)))
    return tape.record("jacdet_dt", (x.node,), (x.slots, x.layout))
