"""Special-purpose differentiation engine: a reverse-mode tape over numpy
buffers, plus forward-mode tangent bundles built out of taped primitives.

The registration losses need parameter gradients of quantities that are
themselves analytic derivatives of the network output with respect to its
inputs (spatial Jacobians, temporal derivatives, and the mixed second-order
terms feeding d|J|/dt).  The scheme here is reverse-over-forward: the
forward tangent propagation is expressed as ordinary taped primitives, so a
single reverse sweep differentiates values *and* tangents with respect to
every leaf parameter.

Shape conventions (no general broadcasting; exactly these cases):
  * scalars are 0-d arrays,
  * a batch of scalars is (B,),
  * a stack of vectors is (R, B): rows are components, columns are points,
  * per-time quantities constant across the batch are (R, 1) and broadcast
    across columns in elementwise ops.

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
the VJP needs more than values (`sample3` keeps the sampler gradients).
`vjp(node, g)` yields, or returns a list of, `(input position, cotangent)`
pairs, which `backward` adds to the inputs' adjoints in that order, so the
order fixes every adjoint sum bit for bit.  `Tape.record(kind, inputs,
payload)` is the one entry point for every primitive.  Adding one is a
table entry plus a case in the finite-difference VJP test
(`tests/test_diffengine.py`).
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .volume import trilinear_values_and_grads

__all__ = [
    "Tape",
    "Node",
    "TangentBundle",
    "DiffEngineError",
    "bundle_affine",
    "bundle_sine",
    "bundle_leaky",
    "bundle_add",
]


class DiffEngineError(ValueError):
    """Raised when a primitive is recorded with bad inputs."""


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


def _sine_forward(dtype, values, payload):
    omega, phase = payload
    return np.sin(omega * values[0] + phase)


def _sine_vjp(node, g):
    omega, phase = node.payload
    yield 0, g * omega * np.cos(omega * node.inputs[0].value + phase)


def _leaky_forward(dtype, values, slope):
    x = values[0]
    return np.where(x >= 0.0, x, dtype.type(slope) * x)


def _leaky_vjp(node, g):
    # kink convention: derivative 1 at exactly 0 (positive branch)
    yield 0, g * np.where(node.inputs[0].value >= 0.0, 1.0, node.payload)


def _affine_forward(dtype, values, cols):
    """W[:, lo:hi] @ x, plus a (rows, 1) bias when given a third input."""
    w, x = values[0], values[1]
    if w.ndim != 2 or x.ndim != 2:
        raise DiffEngineError(f"affine: need 2-d operands, got {w.shape} @ {x.shape}")
    lo, hi = cols or (0, w.shape[1])
    if hi - lo != x.shape[0]:
        raise DiffEngineError(
            f"affine: W[:,{lo}:{hi}] of {w.shape} does not match x {x.shape}"
        )
    out = w[:, lo:hi] @ x
    if len(values) == 3:
        b = values[2]
        if b.shape != (w.shape[0], 1):
            raise DiffEngineError(f"affine: bias {b.shape} must be ({w.shape[0]}, 1)")
        out = out + b
    return out


def _affine_vjp(node, g):
    # the products are skipped for an unrecorded weight or input
    w, x = node.inputs[0], node.inputs[1]
    lo, hi = node.payload or (0, w.value.shape[1])
    if w.idx is not None:
        gw = np.zeros_like(w.value)
        gw[:, lo:hi] = g @ x.value.T
        yield 0, gw
    if x.idx is not None:
        yield 1, w.value[:, lo:hi].T @ g
    if len(node.inputs) == 3:
        yield 2, g.sum(axis=1, keepdims=True)


def _row_forward(dtype, values, i):
    x = values[0]
    if x.ndim != 2 or not (0 <= i < x.shape[0]):
        raise DiffEngineError(f"row: index {i} out of {x.shape}")
    return x[i]


def _row_vjp(node, g):
    gx = np.zeros_like(node.inputs[0].value)
    gx[node.payload] = g
    yield 0, gx


def _expand_cols_forward(dtype, values, ncols):
    x = values[0]
    if x.ndim != 2 or x.shape[1] != 1:
        raise DiffEngineError(f"expand_cols: need (R,1), got {x.shape}")
    return np.repeat(x, ncols, axis=1)


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


def _matrix_entries(kind, values):
    """The 9 row-major entries of a batch of 3x3 matrices, broadcast to
    one shape."""
    if len(values) != 9:
        raise DiffEngineError(f"{kind}: expected 9 entries, got {len(values)}")
    shape = np.broadcast_shapes(*[v.shape for v in values])
    return [np.broadcast_to(v, shape) for v in values]


def _det3_forward(dtype, values, payload):
    x = _matrix_entries("det3", values)
    return (
        x[0] * (x[4] * x[8] - x[5] * x[7])
        - x[1] * (x[3] * x[8] - x[5] * x[6])
        + x[2] * (x[3] * x[7] - x[4] * x[6])
    )


def _det3_vjp(node, g):
    x = [n.value for n in node.inputs]
    for j in range(3):
        for i in range(3):
            p, q, r, s = _ADJ_TABLE[3 * j + i]  # cofactor C[i,j] = adj[j,i]
            yield 3 * i + j, g * (x[p] * x[q] - x[r] * x[s])


def _adj3_forward(dtype, values, payload):
    x = _matrix_entries("adj3", values)
    return np.stack([x[p] * x[q] - x[r] * x[s] for (p, q, r, s) in _ADJ_TABLE])


def _adj3_vjp(node, g):
    x = [n.value for n in node.inputs]
    for k, (p, q, r, s) in enumerate(_ADJ_TABLE):
        gk = g[k]
        yield p, gk * x[q]
        yield q, gk * x[p]
        yield r, -gk * x[s]
        yield s, -gk * x[r]


def _sample3_forward(dtype, values, grid):
    """Trilinear samples of `grid` at the points (x, y, z); the sampler's
    spatial gradients are kept as the node's aux for the VJP."""
    vals, grads = trilinear_values_and_grads(grid, np.stack(values))
    return np.asarray(vals, dtype=dtype), grads.astype(dtype, copy=False)


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
    "sine": Primitive(_sine_forward, _sine_vjp),
    "leaky": Primitive(_leaky_forward, _leaky_vjp),
    "leaky_mask": Primitive(
        lambda dtype, values, slope: np.where(
            values[0] >= 0.0, dtype.type(1.0), dtype.type(slope)
        ),
        lambda node, g: [],  # piecewise constant: zero derivative a.e.
    ),
    "affine": Primitive(_affine_forward, _affine_vjp),
    "row": Primitive(_row_forward, _row_vjp),
    "expand_cols": Primitive(
        _expand_cols_forward,
        lambda node, g: [(0, g.sum(axis=1, keepdims=True))],
    ),
    "sum": Primitive(_sum_forward, _sum_vjp),
    "mean": Primitive(
        lambda dtype, values, payload: np.asarray(values[0].mean(), dtype=dtype),
        _mean_vjp,
    ),
    "det3": Primitive(_det3_forward, _det3_vjp),
    "adj3": Primitive(_adj3_forward, _adj3_vjp),
    "sample3": Primitive(
        _sample3_forward,
        lambda node, g: ((axis, g * node.aux[axis]) for axis in range(3)),
    ),
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

    def sine(self, x, omega: float = 1.0, phase: float = 0.0):
        return self.record("sine", (x,), (float(omega), float(phase)))

    def leaky(self, x, slope: float):
        return self.record("leaky", (x,), float(slope))

    def leaky_mask(self, x, slope: float):
        return self.record("leaky_mask", (x,), float(slope))

    def affine(self, w, x, b=None, cols: tuple[int, int] | None = None):
        inputs = (w, x) if b is None else (w, x, b)
        return self.record("affine", inputs, cols)

    def row(self, x, i: int):
        return self.record("row", (x,), int(i))

    def expand_cols(self, x, ncols: int):
        return self.record("expand_cols", (x,), int(ncols))

    def sum(self, x, axis=None):
        return self.record("sum", (x,), axis)

    def mean(self, x):
        return self.record("mean", (x,))

    def det3(self, entries):
        return self.record("det3", tuple(entries))

    def adj3(self, entries):
        return self.record("adj3", tuple(entries))

    def sample3(self, grid: np.ndarray, x, y, z):
        return self.record("sample3", (x, y, z), grid)

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
# Forward-mode tangent bundles over tape nodes.
# ---------------------------------------------------------------------------

# direction order is fixed: x, y, z, t; mixed order: xt, yt, zt
N_MIXED = 3


@dataclass
class TangentBundle:
    """Value plus per-direction first and mixed second-order tangents.

    Entries that are structurally zero are stored as None so the chain rule
    can skip them; `tangent`/`mixed_entry` materialize zeros on demand.
    """

    value: Node
    tangents: tuple = (None, None, None, None)
    mixed: tuple = (None, None, None)

    def tangent(self, d: int) -> Node:
        t = self.tangents[d]
        if t is None:
            t = self.value.tape.constant(np.zeros_like(self.value.value))
        return t

    def mixed_entry(self, d: int) -> Node:
        m = self.mixed[d]
        if m is None:
            m = self.value.tape.constant(np.zeros_like(self.value.value))
        return m


def _maybe_add(tape, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tape.add(a, b)


def bundle_add(tape: Tape, a: TangentBundle, b: TangentBundle) -> TangentBundle:
    return TangentBundle(
        tape.add(a.value, b.value),
        tuple(_maybe_add(tape, x, y) for x, y in zip(a.tangents, b.tangents)),
        tuple(_maybe_add(tape, x, y) for x, y in zip(a.mixed, b.mixed)),
    )


def bundle_affine(
    tape: Tape,
    w: Node,
    x: TangentBundle,
    b: Node | None = None,
    cols: tuple[int, int] | None = None,
) -> TangentBundle:
    """Affine map on the value; the same linear map on every tangent."""
    return TangentBundle(
        tape.affine(w, x.value, b, cols=cols),
        tuple(
            None if t is None else tape.affine(w, t, cols=cols) for t in x.tangents
        ),
        tuple(None if m is None else tape.affine(w, m, cols=cols) for m in x.mixed),
    )


def bundle_sine(tape: Tape, x: TangentBundle, omega: float = 1.0) -> TangentBundle:
    """u = sin(omega x): u' = w cos(wx) x', u'' term uses -w^2 sin(wx).
    A value-only bundle records the sine alone: no cosine is needed."""
    value = tape.sine(x.value, omega)
    if all(d is None for d in x.tangents + x.mixed):
        return TangentBundle(value)
    cos_f = tape.scale(tape.sine(x.value, omega, math.pi / 2.0), omega)
    tangents = tuple(None if t is None else tape.mul(cos_f, t) for t in x.tangents)
    t_t = x.tangents[3]
    neg = None
    mixed = []
    for d in range(N_MIXED):
        t_d = x.tangents[d]
        term1 = None
        if t_d is not None and t_t is not None:
            if neg is None:
                neg = tape.scale(value, -(omega * omega))
            term1 = tape.mul(tape.mul(t_d, t_t), neg)
        term2 = None if x.mixed[d] is None else tape.mul(cos_f, x.mixed[d])
        mixed.append(_maybe_add(tape, term1, term2))
    return TangentBundle(value, tangents, tuple(mixed))


def bundle_leaky(tape: Tape, x: TangentBundle, slope: float) -> TangentBundle:
    """Leaky rectifier; its second derivative is defined as 0 everywhere."""
    mask = tape.leaky_mask(x.value, slope)
    return TangentBundle(
        tape.leaky(x.value, slope),
        tuple(None if t is None else tape.mul(mask, t) for t in x.tangents),
        tuple(None if m is None else tape.mul(mask, m) for m in x.mixed),
    )


def coordinate_bundle(
    tape: Tape, coords: np.ndarray, spatial: bool = True
) -> TangentBundle:
    """Seed a (3,B) coordinate block with unit basis tangents in x, y, z."""
    coords = np.asarray(coords, dtype=tape.dtype)
    if coords.ndim != 2 or coords.shape[0] != 3:
        raise DiffEngineError(f"coordinate block must be (3,B), got {coords.shape}")
    value = tape.constant(coords)
    tangents = [None, None, None, None]
    if spatial:
        for d in range(3):
            seed = np.zeros((3, 1), dtype=tape.dtype)
            seed[d, 0] = 1.0
            tangents[d] = tape.constant(seed)
    return TangentBundle(value, tuple(tangents), (None, None, None))


def time_bundle(tape: Tape, t: float, temporal: bool = True) -> TangentBundle:
    """Seed a scalar time input, shaped (1,1), with a unit t-tangent."""
    value = tape.constant(np.full((1, 1), t, dtype=tape.dtype))
    tangents = [None, None, None, None]
    if temporal:
        tangents[3] = tape.constant(np.ones((1, 1), dtype=tape.dtype))
    return TangentBundle(value, tuple(tangents), (None, None, None))

