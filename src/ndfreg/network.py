"""The implicit representation of the displacement field.

A primary sine-activated MLP maps a spatial coordinate to a displacement;
an auxiliary two-layer LeakyReLU sub-network embeds scalar time into a
feature vector that is concatenated with every hidden layer (per-layer
concatenation; a flag restricts it to the first hidden layer for
ablation).  All derivative products (spatial Jacobian, temporal
derivative, |J| via cofactor expansion, and d|J|/dt via Jacobi's formula
with mixed second-order tangents) are exact chain-rule quantities taped on
the differentiation engine, so losses built on them remain differentiable
with respect to every parameter.

Time fed to the sub-network is normalized: months divided by the fitted
horizon stored on the state.  Derivatives returned here are with respect
to normalized time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import diffengine as de
from .diffengine import Tape, TangentBundle

__all__ = [
    "NetworkConfig",
    "NetworkState",
    "DerivativeRequest",
    "DisplacementResult",
    "NetworkTrace",
    "init_network",
    "make_leaves",
    "trace_network",
    "forward",
    "forward_with_derivatives",
    "time_embed",
    "as_field",
]


# points per network evaluation at inference: bounds the live layer
# buffers (at paper width one f64 layer array of a chunk is 8 MB)
CHUNK_POINTS = 4096


@dataclass(frozen=True)
class NetworkConfig:
    hidden_width: int = 256
    depth: int = 5  # affine layers in the primary net: depth-1 sine + 1 linear
    time_hidden_width: int = 10
    time_embed_width: int = 64
    omega0: float = 30.0
    leaky_slope: float = 0.01
    time_embed_output_leaky: bool = True
    concat_every_layer: bool = True  # False: first hidden layer only (ablation)

    def validate(self):
        if self.hidden_width < 2:
            raise ValueError(f"hidden_width must be >= 2, got {self.hidden_width}")
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.time_hidden_width < 1 or self.time_embed_width < 1:
            raise ValueError("time sub-network widths must be >= 1")

    def layer_shapes(self) -> list:
        """(out, in) of every primary affine layer, concat width included."""
        h, e, d = self.hidden_width, self.time_embed_width, self.depth
        shapes = [(h, 3)]
        for i in range(1, d):
            out = 3 if i == d - 1 else h
            if self.concat_every_layer or i == 1:
                shapes.append((out, h + e))
            else:
                shapes.append((out, h))
        return shapes


@dataclass
class NetworkState:
    """All weights/biases of the primary and time sub-networks."""

    config: NetworkConfig
    psi: list  # [(W, b)] for the primary network
    theta: list  # [(W, b)] for the time sub-network
    seed: int = 0
    time_horizon: float = 1.0

    def param_arrays(self) -> list:
        """Flat parameter list in a fixed order (the Adam/serialize order)."""
        out = []
        for w, b in self.psi + self.theta:
            out.extend((w, b))
        return out

    def copy(self) -> "NetworkState":
        return NetworkState(
            self.config,
            [(w.copy(), b.copy()) for w, b in self.psi],
            [(w.copy(), b.copy()) for w, b in self.theta],
            seed=self.seed,
            time_horizon=self.time_horizon,
        )

    def checksum(self) -> str:
        h = hashlib.sha256()
        for arr in self.param_arrays():
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def init_network(
    seed: int = 0,
    config: NetworkConfig | None = None,
    dtype=np.float64,
    time_horizon: float = 1.0,
) -> NetworkState:
    """Sine-network initialization: first layer U(-1/fan_in, 1/fan_in),
    deeper layers U(+-sqrt(6/fan_in)/omega0); time sub-network
    U(+-sqrt(6/fan_in)); all biases zero.  Deterministic given the seed."""
    config = config or NetworkConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    psi = []
    for li, (out, fan_in) in enumerate(config.layer_shapes()):
        bound = 1.0 / fan_in if li == 0 else np.sqrt(6.0 / fan_in) / config.omega0
        w = rng.uniform(-bound, bound, size=(out, fan_in)).astype(dtype)
        psi.append((w, np.zeros((out, 1), dtype=dtype)))
    theta = []
    for out, fan_in in (
        (config.time_hidden_width, 1),
        (config.time_embed_width, config.time_hidden_width),
    ):
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(out, fan_in)).astype(dtype)
        theta.append((w, np.zeros((out, 1), dtype=dtype)))
    return NetworkState(config, psi, theta, seed=seed, time_horizon=time_horizon)


@dataclass(frozen=True)
class DerivativeRequest:
    spatial: bool = False
    temporal: bool = False
    jacdet: bool = False
    jacdet_dt: bool = False

    def validate(self):
        if self.jacdet and not self.spatial:
            raise ValueError("jacdet requires spatial derivatives")
        if self.jacdet_dt and not (self.spatial and self.temporal):
            raise ValueError("jacdet_dt requires spatial and temporal derivatives")

    @property
    def mixed(self) -> bool:
        return self.jacdet_dt


@dataclass
class DisplacementResult:
    coords: np.ndarray
    displacement: np.ndarray
    spatial_jacobian: np.ndarray | None = None  # (3,3,B), includes identity
    temporal_derivative: np.ndarray | None = None  # (3,B)
    jac_det: np.ndarray | None = None  # (B,)
    jac_det_dt: np.ndarray | None = None  # (B,)

    @property
    def phi(self) -> np.ndarray:
        return self.coords + self.displacement


@dataclass
class Leaves:
    """Tape nodes for every parameter, mirroring the state layout."""

    psi: list
    theta: list

    def flat(self) -> list:
        out = []
        for w, b in self.psi + self.theta:
            out.extend((w, b))
        return out


def make_leaves(tape: Tape, state: NetworkState, trainable: bool = True) -> Leaves:
    mk = tape.leaf if trainable else tape.constant
    return Leaves(
        [(mk(w), mk(b)) for w, b in state.psi],
        [(mk(w), mk(b)) for w, b in state.theta],
    )


@dataclass
class NetworkTrace:
    """Tape handles for one (coords, t) evaluation, consumed by the losses."""

    coords: Tape  # actually Node; annotation kept loose on purpose
    displacement: TangentBundle
    phi: object
    disp_grads: list | None = None  # 3 nodes (3,B): d(disp)/dx, /dy, /dz
    jac_entries: list | None = None  # 9 nodes (B,), row-major J
    dphi_dt: object = None  # node (3,B)
    jac_det: object = None  # node (B,)
    jac_det_dt: object = None  # node (B,)


def _materialize(tape, node, ncols):
    if node.value.ndim == 2 and node.value.shape[1] == 1 and ncols > 1:
        return tape.expand_cols(node, ncols)
    return node


def _trace_time_embed(tape, theta, tb, config: NetworkConfig) -> TangentBundle:
    (w1, b1), (w2, b2) = theta
    z = de.bundle_affine(tape, w1, tb, b1)
    h = de.bundle_leaky(tape, z, config.leaky_slope)
    z2 = de.bundle_affine(tape, w2, h, b2)
    if config.time_embed_output_leaky:
        return de.bundle_leaky(tape, z2, config.leaky_slope)
    return z2


def trace_network(
    tape: Tape,
    leaves: Leaves,
    coords: np.ndarray,
    t: float,
    config: NetworkConfig,
    request: DerivativeRequest,
) -> NetworkTrace:
    request.validate()
    nbatch = coords.shape[1]
    h = config.hidden_width
    he = h + config.time_embed_width

    wb = de.coordinate_bundle(tape, coords, spatial=request.spatial)
    tb = de.time_bundle(tape, t, temporal=request.temporal)
    eb = _trace_time_embed(tape, leaves.theta, tb, config)

    w1, b1 = leaves.psi[0]
    a = de.bundle_sine(tape, de.bundle_affine(tape, w1, wb, b1), config.omega0)
    for li in range(1, config.depth):
        w, b = leaves.psi[li]
        concat = config.concat_every_layer or li == 1
        if concat:
            z = de.bundle_add(
                tape,
                de.bundle_affine(tape, w, a, cols=(0, h)),
                de.bundle_affine(tape, w, eb, b, cols=(h, he)),
            )
        else:
            z = de.bundle_affine(tape, w, a, b)
        a = z if li == config.depth - 1 else de.bundle_sine(tape, z)

    disp = a
    trace = NetworkTrace(wb.value, disp, tape.add(disp.value, wb.value))

    if request.spatial:
        grads = [_materialize(tape, disp.tangent(d), nbatch) for d in range(3)]
        trace.disp_grads = grads
        if request.jacdet or request.jacdet_dt:
            entries = []
            for i in range(3):
                for j in range(3):
                    e = tape.row(grads[j], i)
                    entries.append(tape.offset(e, 1.0) if i == j else e)
            trace.jac_entries = entries
            trace.jac_det = tape.det3(entries)
    if request.temporal:
        trace.dphi_dt = _materialize(tape, disp.tangent(3), nbatch)
    if request.jacdet_dt:
        jdot = [_materialize(tape, disp.mixed_entry(d), nbatch) for d in range(3)]
        adj = tape.adj3(trace.jac_entries)
        acc = None
        for i in range(3):
            for k in range(3):
                term = tape.mul(tape.row(adj, 3 * i + k), tape.row(jdot[i], k))
                acc = term if acc is None else tape.add(acc, term)
        trace.jac_det_dt = acc
    return trace


def forward(state: NetworkState, coords: np.ndarray, t: float) -> DisplacementResult:
    """Displacement only; pure evaluation of a frozen state."""
    return forward_with_derivatives(state, coords, t, DerivativeRequest())


def forward_with_derivatives(
    state: NetworkState,
    coords: np.ndarray,
    t: float,
    request: DerivativeRequest,
    dtype=np.float64,
    chunk_size: int = CHUNK_POINTS,
) -> DisplacementResult:
    """Evaluate the frozen field and the requested derivatives at (3,B)
    coords, `chunk_size` points at a time.  The parameters enter as tape
    constants, so nothing is recorded and memory stays at one chunk's
    layer values; chunking is pure partitioning (results are identical to
    one pass)."""
    request.validate()
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    coords = np.asarray(coords, dtype=dtype)
    parts = [
        _evaluate_chunk(state, coords[:, lo : lo + chunk_size], t, request, dtype)
        for lo in range(0, coords.shape[1], chunk_size) or (0,)
    ]
    if len(parts) == 1:
        return parts[0]
    out = DisplacementResult(coords, None)
    for f in fields(DisplacementResult)[1:]:
        if getattr(parts[0], f.name) is not None:
            stacked = np.concatenate([getattr(p, f.name) for p in parts], axis=-1)
            setattr(out, f.name, stacked)
    return out


def _evaluate_chunk(state, coords, t, request, dtype) -> DisplacementResult:
    tape = Tape(dtype)
    leaves = make_leaves(tape, state, trainable=False)
    tr = trace_network(tape, leaves, coords, t, state.config, request)
    res = DisplacementResult(coords, tr.displacement.value.value.copy())
    if request.spatial and tr.jac_entries is not None:
        jac = np.stack([e.value for e in tr.jac_entries]).reshape(3, 3, -1)
        res.spatial_jacobian = jac
    elif request.spatial:
        grads = np.stack([g.value for g in tr.disp_grads])  # (3dir, 3comp, B)
        jac = np.transpose(grads, (1, 0, 2)).copy()
        jac[0, 0] += 1.0
        jac[1, 1] += 1.0
        jac[2, 2] += 1.0
        res.spatial_jacobian = jac
    if request.temporal:
        res.temporal_derivative = tr.dphi_dt.value.copy()
    if request.jacdet or request.jacdet_dt:
        res.jac_det = tr.jac_det.value.copy()
    if request.jacdet_dt:
        res.jac_det_dt = tr.jac_det_dt.value.copy()
    return res


def as_field(state: NetworkState, dtype=np.float64):
    """Adapter: (coords, t_norm, request) -> DisplacementResult."""

    def field(coords, t, request=DerivativeRequest()):
        return forward_with_derivatives(state, coords, t, request, dtype=dtype)

    return field


def time_embed(state: NetworkState, t: float) -> np.ndarray:
    """Straight numpy evaluation of the time sub-network (cross-checked
    against the taped path in the tests)."""
    slope = state.config.leaky_slope
    (w1, b1), (w2, b2) = state.theta
    z = w1 @ np.array([[t]], dtype=np.float64) + b1
    hval = np.where(z >= 0.0, z, slope * z)
    z2 = w2 @ hval + b2
    if state.config.time_embed_output_leaky:
        z2 = np.where(z2 >= 0.0, z2, slope * z2)
    return z2[:, 0]
