"""Finite-difference verification suites behind the gradcheck command.

Every analytic quantity the engine produces is compared against central
finite differences (or a permutation-expansion determinant) at a toy
scale.  64-bit tolerances are stricter than 32-bit ones.  The `corrupt`
hook multiplies one named analytic term by a factor before comparison, so
tests can prove the harness actually catches a wrong derivative: 1.001,
or 1 + 10 tol where the tolerance of the check it targets is wider than
1e-4 (every f32 check but the determinant's), as 1.001 would pass there.
`mono` scales gamma in the analytic loss by that factor, which scales the
monotonic term's part of the analytic gradient alone; `monotonic` scales
the `monotonic` node's VJP in its own check.

The time checks difference the field at t0 +- h.  The time embedding is
piecewise linear in t, and a central difference across one of its
LeakyReLU kinks measures no derivative, so t0 is the time nearest 0.37
with no kink within the widest step.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from . import network as net
from .diffengine import V, X, Y, Z, Jet, Tape
from .losses import LossWeights, monotonic_node, ncc_node, total_loss
from .trainer import SamplePlan, segment_gradients
from .volume import Volume3D, Volume4DSeries, trilinear_values_and_grads

__all__ = ["CheckResult", "run_gradcheck", "CORRUPT_HOOKS"]

# fault hook -> the check whose analytic side it scales (for mono, the
# monotonic term's part of it)
_HOOK_CHECKS = {
    "det": "cofactor-determinant",
    "spatial": "spatial-tangents",
    "temporal": "temporal-tangent",
    "jacdet_dt": "jacdet-dt",
    "sampler": "sampler-gradient",
    "ncc": "ncc-gradient",
    "monotonic": "monotonic-gradient",
    "params": "parameter-gradients",
    "mono": "parameter-gradients",
}
CORRUPT_HOOKS = tuple(_HOOK_CHECKS)

_TOLS = {
    "f64": {
        "cofactor-determinant": 1e-12,
        "spatial-tangents": 1e-5,
        "temporal-tangent": 1e-5,
        "jacdet-dt": 1e-4,
        "sampler-gradient": 1e-6,
        "ncc-gradient": 1e-6,
        "monotonic-gradient": 1e-6,
        "parameter-gradients": 1e-4,
    },
    "f32": {
        "cofactor-determinant": 1e-5,
        "spatial-tangents": 1e-2,
        "temporal-tangent": 1e-2,
        "jacdet-dt": 1e-2,
        "sampler-gradient": 1e-3,
        "ncc-gradient": 1e-4,
        "monotonic-gradient": 1e-4,
        "parameter-gradients": 5e-2,
    },
}


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool


def _rel(analytic, reference, floor):
    return np.abs(analytic - reference) / np.maximum(np.abs(reference), floor)


def _hook_factor(hook, precision):
    """1.001, or 1 + 10 tol when the targeted check's tolerance would let
    1.001 pass."""
    return max(1.001, 1.0 + 10.0 * _TOLS[precision][_HOOK_CHECKS[hook]])


def _bump(values, name, corrupt, precision):
    return values * _hook_factor(name, precision) if corrupt == name else values


def _toy_state(seed, width, dtype):
    cfg = net.NetworkConfig(
        hidden_width=width, depth=5, time_hidden_width=6, time_embed_width=16
    )
    state = net.init_network(seed=seed, config=cfg, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    for w, b in state.psi + state.theta:
        w *= 3.0  # O(0.1) displacements: FD ratios stay well-conditioned
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    if dtype == np.float32:
        state.psi = [(w.astype(dtype), b.astype(dtype)) for w, b in state.psi]
        state.theta = [(w.astype(dtype), b.astype(dtype)) for w, b in state.theta]
    return state


def _monotonic_rates(rng, ks, points):
    """(K, P) groups of d|J|/dt for K in `ks`, at least 0.1 from 0 and
    from a tie of pos and neg, where the monotonic term is linear: at a
    point where |pos - neg| < 0.1, the positive rates, which sum to at
    least 0.1 there, are tripled."""
    groups = [rng.choice([-1.0, 1.0], size=(k, points)) * rng.uniform(0.1, 1.0, size=(k, points))
              for k in ks]
    near = np.abs(sum(d.sum(axis=0) for d in groups)) < 0.1
    for d in groups:
        d[:, near] = np.where(d[:, near] > 0.0, 3.0 * d[:, near], d[:, near])
    return groups


def _embedding_kinks(state, lo, hi):
    """Normalized times in (lo, hi) at which a pre-activation of the time
    embedding that feeds a LeakyReLU is 0.  Layer 1 is linear in t, and
    layer 2 is linear in t between layer 1's kinks."""
    (w1, b1), (w2, b2) = [
        (w.astype(np.float64), b.astype(np.float64)) for w, b in state.theta
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = -b1[:, 0] / w1[:, 0]
    kinks = kinks[(kinks > lo) & (kinks < hi)]
    knots = np.unique(np.concatenate([[lo, hi], kinks]))
    z1 = w1 @ knots[None, :] + b1
    z2 = w2 @ np.where(z1 >= 0.0, z1, state.config.leaky_slope * z1) + b2
    a, b = z2[:, :-1], z2[:, 1:]
    cross = (a * b <= 0.0) & (a != b)
    at = knots[:-1] + a / np.where(cross, a - b, 1.0) * np.diff(knots)
    return np.concatenate([kinks, at[cross]])


def _kink_free_time(state, t, h):
    """The time nearest `t` with no kink of the time embedding within
    +-h, plus a 1 % margin."""
    reach = 1.01 * h
    kinks = _embedding_kinks(state, t - 1.0, t + 1.0)
    candidates = np.concatenate([[t], kinks - reach, kinks + reach])
    clear = [c for c in candidates if not (np.abs(kinks - c) < reach).any()]
    return float(min(clear, key=lambda c: abs(c - t)))


def run_gradcheck(seed=0, width=16, points=200, precision="f64", corrupt=None):
    if corrupt is not None and corrupt not in CORRUPT_HOOKS:
        raise ValueError(f"unknown fault hook {corrupt!r}")
    dtype = np.float64 if precision == "f64" else np.float32
    tols = _TOLS[precision]
    # f32 step balances truncation (omega0-scaled third derivatives)
    # against roundoff; the f32 floor keeps near-zero entries from turning
    # roundoff into fake relative error
    fd_h = 1e-5 if precision == "f64" else 3e-3
    floor = 1e-6 if precision == "f64" else 1e-2
    rng = np.random.default_rng(seed)
    results = []

    def check(name, worst):
        results.append(CheckResult(name, worst, tols[name], worst <= tols[name]))

    # 1. cofactor determinant vs permutation expansion: |I + J| of a
    # one-point output block whose spatial slots hold J = m - I, and m
    # rebuilt as J + I so both sides see the same rounded matrix
    eye = np.eye(3, dtype=dtype)
    worst = 0.0
    for _ in range(200):
        jac = rng.uniform(-1, 1, size=(3, 3)).astype(dtype) - eye
        m = jac + eye
        block = Tape(dtype).constant(np.concatenate([np.zeros((1, 3), dtype), jac.T]))
        got = de.jacdet(Jet(block, (V, X, Y, Z))).item()
        expect = 0.0
        for perm in itertools.permutations(range(3)):
            sign = 1
            p = list(perm)
            for i in range(3):
                for j in range(i + 1, 3):
                    if p[i] > p[j]:
                        sign = -sign
            expect += sign * float(m[0, perm[0]]) * float(m[1, perm[1]]) * float(
                m[2, perm[2]]
            )
        got = _bump(got, "det", corrupt, precision)
        worst = max(worst, abs(got - expect))
    check("cofactor-determinant", worst)

    state = _toy_state(seed, width, dtype)
    coords = rng.uniform(-0.9, 0.9, size=(3, points)).astype(dtype)
    h2 = 1e-4  # the d|J|/dt step of the f64 reference
    t0 = _kink_free_time(state, 0.37, max(fd_h, h2))
    full = net.DerivativeRequest(spatial=True, temporal=True)
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state, trainable=False)
    (out,) = net.trace_network(tape, leaves, coords, [t0], state.config, full)
    jac = net.jacobian(tape, out).value.reshape(3, 3, points)
    jac[range(3), range(3)] += 1.0  # the Jacobian of phi

    # 2. spatial Jacobian
    worst = 0.0
    for j in range(3):
        shift = np.zeros((3, 1), dtype=dtype)
        shift[j] = fd_h
        fp = net.forward_with_derivatives(
            state, coords + shift, t0, net.DerivativeRequest(), dtype=dtype).phi
        fm = net.forward_with_derivatives(
            state, coords - shift, t0, net.DerivativeRequest(), dtype=dtype).phi
        fd = (fp - fm) / (2 * fd_h)
        an = _bump(jac[:, j, :], "spatial", corrupt, precision)
        # the quotient's roundoff reaches max|phi| eps / h; below
        # roundoff / tol, errors are measured against the floor instead
        roundoff = float(np.abs(fp).max()) * np.finfo(dtype).eps / fd_h
        fd_floor = max(floor, roundoff / tols["spatial-tangents"])
        worst = max(worst, float(_rel(an, fd, fd_floor).max()))
    check("spatial-tangents", worst)

    # 3. temporal derivative
    fp = net.forward_with_derivatives(
        state, coords, t0 + fd_h, net.DerivativeRequest(), dtype=dtype).displacement
    fm = net.forward_with_derivatives(
        state, coords, t0 - fd_h, net.DerivativeRequest(), dtype=dtype).displacement
    fd = (fp - fm) / (2 * fd_h)
    an = _bump(net.dphi_dt(tape, out).value, "temporal", corrupt, precision)
    worst = float(_rel(an, fd, floor).max())
    check("temporal-tangent", worst)

    # 4. d|J|/dt via Jacobi's formula, against |J| differenced in f64 at
    # the same weights and coordinates at either precision: an f32 step
    # wide enough to beat f32 roundoff truncates by more than the f32
    # tolerance (a 3e-2 step truncates by 1.3e-2 at seeds 18, 22 and 29)
    jr = net.DerivativeRequest(spatial=True)
    jp = net.forward_with_derivatives(state, coords, t0 + h2, jr, dtype=np.float64).jac_det
    jm = net.forward_with_derivatives(state, coords, t0 - h2, jr, dtype=np.float64).jac_det
    fd = (jp - jm) / (2 * h2)
    an = _bump(de.jacdet_dt(tape, out).value[0], "jacdet_dt", corrupt, precision)
    worst = float(_rel(an, fd, 1e-5 if precision == "f64" else 1e-3).max())
    check("jacdet-dt", worst)

    # 5. trilinear sampler gradient, interior points away from cell faces
    grid = rng.uniform(0, 1, size=(9, 9, 9))
    base = rng.uniform(-0.9, 0.9, size=(3, points))
    vox = (base + 1) * 4.0
    frac = vox - np.floor(vox)
    pts = base[:, ((frac > 0.05) & (frac < 0.95)).all(axis=0)]
    _, grads = trilinear_values_and_grads(grid, pts)
    grads = _bump(grads, "sampler", corrupt, precision)
    worst = 0.0
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = 1e-6
        vp, _ = trilinear_values_and_grads(grid, pts + shift)
        vm, _ = trilinear_values_and_grads(grid, pts - shift)
        fd = (vp - vm) / 2e-6
        worst = max(worst, float(_rel(grads[d], fd, 1e-3).max()))
    check("sampler-gradient", worst)

    # 6. NCC's closed-form gradient (the `ncc` node's VJP) against central
    # differences of its value in f64 at the same rounded warped values,
    # as the largest error over the largest reference entry; at least 3
    # points, as the NCC of two is +-1 and flat
    n = max(points, 3)
    fixed = rng.uniform(0, 1, size=n)
    warped = (0.5 * fixed + rng.uniform(0, 0.5, size=n)).astype(dtype)
    tape = Tape(dtype)
    leaf = tape.leaf(warped)
    tape.backward(ncc_node(tape, fixed, leaf))
    an = _bump(leaf.adjoint, "ncc", corrupt, precision)
    ref = Tape()  # its constants are never recorded

    def ncc64(i, step):
        m = warped.astype(np.float64)
        m[i] += step
        return float(ncc_node(ref, fixed, ref.constant(m)).value)

    fd = np.array([ncc64(i, 1e-6) - ncc64(i, -1e-6) for i in range(n)]) / 2e-6
    check("ncc-gradient", float(np.abs(an - fd).max() / np.abs(fd).max()))

    # 7. the `monotonic` node's VJP over three groups of rates against
    # central differences of its value in f64 at the same rounded rates, as
    # the largest error over the largest reference entry
    groups = [d.astype(dtype) for d in _monotonic_rates(rng, (1, 2, 3), points)]
    tape = Tape(dtype)
    leaves = [tape.leaf(d) for d in groups]
    tape.backward(monotonic_node(tape, leaves, 2 * points))
    an = np.concatenate([_bump(n.adjoint, "monotonic", corrupt, precision).ravel() for n in leaves])

    def mono64(g, idx, step):
        rates = [d.astype(np.float64) for d in groups]
        rates[g][idx] += step
        return float(monotonic_node(ref, [ref.constant(d) for d in rates], 2 * points).value)

    fd = np.array([mono64(g, idx, 1e-6) - mono64(g, idx, -1e-6)
                   for g, d in enumerate(groups) for idx in np.ndindex(d.shape)]) / 2e-6
    check("monotonic-gradient", float(np.abs(an - fd).max() / np.abs(fd).max()))

    # 8. parameter gradients of the full loss on a tiny series
    check("parameter-gradients", _param_gradient_worst(seed, corrupt, precision, dtype))
    return results


def _param_gradient_worst(seed, corrupt, precision, dtype):
    """Worst relative error of full-loss parameter gradients, taped at
    `dtype` and accumulated segment by segment in the lanes of a fit step
    (`trainer.segment_gradients`), against f64 central differences of the
    one-tape loss (`total_loss`); inf when the plan's monotonic term is 0,
    as the check would then not cover its gradient.

    Depth 3 makes d|J|/dt depend on time, and the plan (16 points, an
    8-time grid, gamma 3) makes the monotonic term non-zero, and its share
    of the gradient visible, at every seed.

    Error model of a central difference with step eps: truncation
    eps^2 |L'''| / 6 plus roundoff up to |L| 2^-52 / eps, as each loss
    value is off by about |L| 2^-53.  Errors are relative to
    max(|fd|, floor) with floor = |L| 2^-52 / (eps tol), so roundoff alone
    stays below the tolerance; eps = 1e-5 keeps truncation far below it
    and the floor near 3e-6 (eps = 1e-6 would need 3e-5)."""
    rng = np.random.default_rng(seed + 7)
    base = Volume3D(rng.uniform(0, 1, size=(6, 6, 6)))
    f1 = Volume3D(np.clip(base.values + rng.uniform(-0.05, 0.05, base.dims), 0, 1))
    series = Volume4DSeries(base, [(12.0, f1)])
    cfg = net.NetworkConfig(
        hidden_width=8, depth=3, time_hidden_width=4, time_embed_width=6
    )
    state = net.init_network(seed=seed, config=cfg)
    for w, b in state.psi + state.theta:
        w *= 3.0
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    plan = SamplePlan(
        coords=rng.uniform(-0.8, 0.8, size=(3, 16)),
        observed_times=np.array([0.0, 1.0]),
        reg_grid=np.linspace(0, 1, 8),
    )
    weights = LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=3.0)
    analytic = weights
    if corrupt == "mono":  # the loss total + (factor - 1)*gamma*mono
        analytic = dataclasses.replace(
            weights, gamma=weights.gamma * _hook_factor("mono", precision)
        )

    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state)
    breakdown, _ = segment_gradients(tape, leaves, series, analytic, plan, cfg)
    if breakdown.monotonic == 0.0:
        return float("inf")
    grads = leaves.grads()
    grads = [_bump(g, "params", corrupt, precision) for g in grads]

    eps = 1e-5  # the reference loss is evaluated in f64 at either precision
    tol = _TOLS[precision]["parameter-gradients"]
    floor = max(1e-6, abs(breakdown.total) * 2.0**-52 / (eps * tol))
    worst = 0.0
    params = state.param_arrays()
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            vp = total_loss(series, state, weights, plan).total
            flat[i] = orig - eps
            vm = total_loss(series, state, weights, plan).total
            flat[i] = orig
            fd = (vp - vm) / (2 * eps)
            an = grads[pi].reshape(-1)[i]
            worst = max(worst, abs(an - fd) / max(abs(fd), floor))
    return worst
