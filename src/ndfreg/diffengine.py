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
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

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

_ELEMENTWISE = {"add", "sub", "mul", "div", "minimum"}

_KINDS = _ELEMENTWISE | {
    "const",
    "leaf",
    "scale",
    "offset",
    "square",
    "sqrt",
    "relu",
    "sine",
    "leaky",
    "leaky_mask",
    "affine",
    "row",
    "expand_cols",
    "sum",
    "mean",
    "det3",
    "adj3",
    "sample3",
}


class Node:
    """One primitive: eager value plus an adjoint buffer.  `idx` is its
    position on the tape, or None when it is not recorded."""

    __slots__ = ("_tape", "idx", "kind", "inputs", "payload", "value", "adjoint", "aux")

    def __init__(self, tape_ref, kind, inputs, payload, value):
        self._tape = tape_ref
        self.idx = None
        self.kind = kind
        self.inputs = inputs
        self.payload = payload
        self.value = value
        self.adjoint = None
        self.aux = None

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

    # operator sugar for loss/bundle composition
    def __add__(self, other):
        return self.tape.add(self, other)

    def __sub__(self, other):
        return self.tape.sub(self, other)

    def __mul__(self, other):
        return self.tape.mul(self, other)

    def __truediv__(self, other):
        return self.tape.div(self, other)


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


class Tape:
    """Ordered record of primitives; inputs of a node always precede it."""

    def __init__(self, dtype=np.float64):
        if dtype not in (np.float32, np.float64):
            raise DiffEngineError(f"unsupported dtype {dtype}")
        self.dtype = np.dtype(dtype)
        self.nodes: list[Node] = []
        self._ref = weakref.ref(self)

    # ---- construction -------------------------------------------------

    def _push(self, kind, inputs, payload, value) -> Node:
        """Make a node, recorded if it is a leaf or has a recorded input.
        An unrecorded node keeps no inputs: no gradient flows through it,
        and its ancestors are freed as soon as the caller drops them."""
        if kind != "leaf" and all(n.idx is None for n in inputs):
            return Node(self._ref, kind, (), payload, value)
        node = Node(self._ref, kind, tuple(inputs), payload, value)
        node.idx = len(self.nodes)
        self.nodes.append(node)
        return node

    def _coerce(self, value) -> np.ndarray:
        return np.asarray(value, dtype=self.dtype)

    def constant(self, value) -> Node:
        return self._push("const", (), None, self._coerce(value))

    def leaf(self, value) -> Node:
        """A parameter: its adjoint is the gradient of the output."""
        return self._push("leaf", (), None, self._coerce(value))

    def record(self, kind: str, inputs: Sequence[Node], payload=None) -> Node:
        """Generic entry point; kind must be a supported primitive."""
        if kind not in _KINDS:
            raise DiffEngineError(f"unknown op-kind {kind!r}")
        if kind in ("const", "leaf"):
            return self._push(kind, (), None, self._coerce(payload))
        for n in inputs:
            if n._tape is not self._ref:
                raise DiffEngineError("input node belongs to a different tape")
        if kind == "sample3":
            return self.sample3(payload, *inputs)
        value = self._eval(kind, inputs, payload)
        return self._push(kind, inputs, payload, value)

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
        vals, grads = trilinear_values_and_grads(
            grid, np.stack([x.value, y.value, z.value])
        )
        node = self._push(
            "sample3", (x, y, z), None, np.asarray(vals, dtype=self.dtype)
        )
        if node.idx is not None:
            node.aux = grads.astype(self.dtype, copy=False)
        return node

    # ---- forward evaluation --------------------------------------------

    def _eval(self, kind, inputs, payload) -> np.ndarray:
        vals = [n.value for n in inputs]
        if kind in _ELEMENTWISE:
            a, b = vals
            try:
                np.broadcast_shapes(a.shape, b.shape)
            except ValueError:
                raise DiffEngineError(
                    f"{kind}: shape mismatch {a.shape} vs {b.shape}"
                ) from None
            if kind == "add":
                return a + b
            if kind == "sub":
                return a - b
            if kind == "mul":
                return a * b
            if kind == "div":
                return a / b
            return np.minimum(a, b)
        if kind == "scale":
            return vals[0] * self.dtype.type(payload)
        if kind == "offset":
            return vals[0] + self.dtype.type(payload)
        if kind == "square":
            return vals[0] * vals[0]
        if kind == "sqrt":
            return np.sqrt(vals[0])
        if kind == "relu":
            return np.maximum(vals[0], 0.0)
        if kind == "sine":
            omega, phase = payload
            return np.sin(omega * vals[0] + phase)
        if kind == "leaky":
            x = vals[0]
            return np.where(x >= 0.0, x, self.dtype.type(payload) * x)
        if kind == "leaky_mask":
            x = vals[0]
            return np.where(x >= 0.0, self.dtype.type(1.0), self.dtype.type(payload))
        if kind == "affine":
            w, x = vals[0], vals[1]
            if w.ndim != 2 or x.ndim != 2:
                raise DiffEngineError(
                    f"affine: need 2-d operands, got {w.shape} @ {x.shape}"
                )
            lo, hi = payload if payload is not None else (0, w.shape[1])
            if hi - lo != x.shape[0]:
                raise DiffEngineError(
                    f"affine: W[:,{lo}:{hi}] of {w.shape} does not match x {x.shape}"
                )
            out = w[:, lo:hi] @ x
            if len(vals) == 3:
                b = vals[2]
                if b.shape != (w.shape[0], 1):
                    raise DiffEngineError(
                        f"affine: bias {b.shape} must be ({w.shape[0]}, 1)"
                    )
                out = out + b
            return out
        if kind == "row":
            x = vals[0]
            if x.ndim != 2 or not (0 <= payload < x.shape[0]):
                raise DiffEngineError(f"row: index {payload} out of {x.shape}")
            return x[payload]
        if kind == "expand_cols":
            x = vals[0]
            if x.ndim != 2 or x.shape[1] != 1:
                raise DiffEngineError(f"expand_cols: need (R,1), got {x.shape}")
            return np.repeat(x, payload, axis=1)
        if kind == "sum":
            if payload is None:
                return np.asarray(vals[0].sum(), dtype=self.dtype)
            if payload != 0:
                raise DiffEngineError(f"sum: axis {payload} unsupported")
            return vals[0].sum(axis=0)
        if kind == "mean":
            return np.asarray(vals[0].mean(), dtype=self.dtype)
        if kind in ("det3", "adj3"):
            if len(vals) != 9:
                raise DiffEngineError(f"{kind}: expected 9 entries, got {len(vals)}")
            shape = np.broadcast_shapes(*[v.shape for v in vals])
            x = [np.broadcast_to(v, shape) for v in vals]
            if kind == "det3":
                return (
                    x[0] * (x[4] * x[8] - x[5] * x[7])
                    - x[1] * (x[3] * x[8] - x[5] * x[6])
                    + x[2] * (x[3] * x[7] - x[4] * x[6])
                )
            rows = [x[p] * x[q] - x[r] * x[s] for (p, q, r, s) in _ADJ_TABLE]
            return np.stack(rows)
        raise DiffEngineError(f"unknown op-kind {kind!r}")  # pragma: no cover

    # ---- reverse sweep --------------------------------------------------

    def reset_adjoints(self):
        for n in self.nodes:
            n.adjoint = None

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
            self._vjp(node, g)

    @staticmethod
    def _accum(node: Node, grad: np.ndarray):
        if node.idx is None:
            return
        grad = _unbroadcast(grad, node.value.shape)
        if node.adjoint is None:
            node.adjoint = grad.copy() if grad.base is not None else grad
        else:
            node.adjoint = node.adjoint + grad

    def _vjp(self, node: Node, g: np.ndarray):
        kind = node.kind
        inp = node.inputs
        if kind == "add":
            self._accum(inp[0], g)
            self._accum(inp[1], g)
        elif kind == "sub":
            self._accum(inp[0], g)
            self._accum(inp[1], -g)
        elif kind == "mul":
            self._accum(inp[0], g * inp[1].value)
            self._accum(inp[1], g * inp[0].value)
        elif kind == "div":
            self._accum(inp[0], g / inp[1].value)
            self._accum(inp[1], -g * node.value / inp[1].value)
        elif kind == "minimum":
            take_a = inp[0].value <= inp[1].value
            self._accum(inp[0], g * take_a)
            self._accum(inp[1], g * ~take_a)
        elif kind == "scale":
            self._accum(inp[0], g * node.payload)
        elif kind == "offset":
            self._accum(inp[0], g)
        elif kind == "square":
            self._accum(inp[0], 2.0 * g * inp[0].value)
        elif kind == "sqrt":
            self._accum(inp[0], 0.5 * g / node.value)
        elif kind == "relu":
            self._accum(inp[0], g * (inp[0].value > 0.0))
        elif kind == "sine":
            omega, phase = node.payload
            self._accum(inp[0], g * omega * np.cos(omega * inp[0].value + phase))
        elif kind == "leaky":
            # kink convention: derivative 1 at exactly 0 (positive branch)
            x = inp[0].value
            self._accum(inp[0], g * np.where(x >= 0.0, 1.0, node.payload))
        elif kind == "leaky_mask":
            pass  # piecewise constant: zero derivative a.e.
        elif kind == "affine":
            w, x = inp[0], inp[1]
            lo, hi = node.payload if node.payload is not None else (0, w.value.shape[1])
            if w.idx is not None:
                gw = np.zeros_like(w.value)
                gw[:, lo:hi] = g @ x.value.T
                self._accum(w, gw)
            if x.idx is not None:
                self._accum(x, w.value[:, lo:hi].T @ g)
            if len(inp) == 3:
                self._accum(inp[2], g.sum(axis=1, keepdims=True))
        elif kind == "row":
            gx = np.zeros_like(inp[0].value)
            gx[node.payload] = g
            self._accum(inp[0], gx)
        elif kind == "expand_cols":
            self._accum(inp[0], g.sum(axis=1, keepdims=True))
        elif kind == "sum":
            if node.payload is None:
                self._accum(inp[0], np.full_like(inp[0].value, g))
            else:
                self._accum(inp[0], np.broadcast_to(g, inp[0].value.shape))
        elif kind == "mean":
            self._accum(inp[0], np.full_like(inp[0].value, g / inp[0].value.size))
        elif kind == "det3":
            x = [n.value for n in inp]
            for j in range(3):
                for i in range(3):
                    p, q, r, s = _ADJ_TABLE[3 * j + i]  # cofactor C[i,j] = adj[j,i]
                    self._accum(inp[3 * i + j], g * (x[p] * x[q] - x[r] * x[s]))
        elif kind == "adj3":
            x = [n.value for n in inp]
            for k, (p, q, r, s) in enumerate(_ADJ_TABLE):
                gk = g[k]
                self._accum(inp[p], gk * x[q])
                self._accum(inp[q], gk * x[p])
                self._accum(inp[r], -gk * x[s])
                self._accum(inp[s], -gk * x[r])
        elif kind == "sample3":
            for axis in range(3):
                self._accum(inp[axis], g * node.aux[axis])
        else:  # pragma: no cover
            raise DiffEngineError(f"no vjp for {kind!r}")


# ---------------------------------------------------------------------------
# Forward-mode tangent bundles over tape nodes.
# ---------------------------------------------------------------------------

# direction order is fixed: x, y, z, t; mixed order: xt, yt, zt
N_DIRECTIONS = 4
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
    """u = sin(omega x): u' = w cos(wx) x', u'' term uses -w^2 sin(wx)."""
    value = tape.sine(x.value, omega)
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

