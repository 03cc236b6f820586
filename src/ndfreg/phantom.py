"""Synthetic 4D ground truth: a growing sphere with closed-form fields.

The deformation is uniform radial scaling s(t) = 1 + growth * t (t is
normalized time) inside a core radius, blended C1 to the identity across
a transition shell by a cubic ramp.  Because the map is radial, the true
Jacobian determinant is closed-form: |J| = m^2 (m + rho dm/drho), equal to
s(t)^3 in the core and 1 outside the shell.  Observed volumes are the
baseline intensity profile pulled back through the true map, with optional
i.i.d. Gaussian noise per voxel per time point.

The intensity profile is a smooth-edged ball with concentric rings; the
rings move with the material and give the similarity term radial signal
inside the sphere, not just at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume4DSeries, grid_coordinates, normalize_intensities

__all__ = [
    "PhantomSpec",
    "PhantomTruth",
    "generate_phantom",
    "generate_raw",
    "true_field",
    "true_jacobian_det",
]


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple = (48, 48, 48)
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.4  # baseline sphere radius, normalized units
    growth: float = 0.1  # per normalized-time unit: s(t) = 1 + growth*t
    core_radius: float | None = None  # full-scale region; default 1.15*radius
    outer_radius: float | None = None  # blend reaches identity; default 0.92
    times: tuple = (0.0, 12.0, 24.0, 36.0)  # months, baseline first
    sigma: float = 0.0
    edge_width: float = 0.08
    ring_amplitude: float = 0.3
    ring_period: float = 0.18
    shrink_center: tuple | None = None  # optional second region
    shrink_radius: float = 0.0
    shrink_rate: float = 0.0  # negative growth
    seed: int = 0

    @property
    def core(self) -> float:
        return self.core_radius if self.core_radius is not None else 1.15 * self.radius

    @property
    def outer(self) -> float:
        return self.outer_radius if self.outer_radius is not None else 0.92

    @property
    def t_max(self) -> float:
        return max(self.times)

    def validate(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None and not np.isfinite(np.asarray(value, dtype=np.float64)).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if len(self.dims) != 3:
            raise ValueError(f"dims must have 3 entries, got {self.dims}")
        for name in ("edge_width", "ring_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if len(self.times) < 2 or self.times[0] != 0.0:
            raise ValueError("times must start at 0 with at least one follow-up")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if not 0 < self.radius <= self.core < self.outer <= 1.0:
            raise ValueError(
                f"need 0 < radius <= core < outer <= 1, got "
                f"{self.radius}, {self.core}, {self.outer}"
            )
        s_max = 1.0 + max(self.growth, 0.0)
        if self.radius * s_max >= self.outer:
            raise ValueError("sphere escapes the blend shell at the final time")
        if self.sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.shrink_center is not None:
            d = np.linalg.norm(np.subtract(self.shrink_center, self.center))
            if d <= 2 * self.outer:
                raise ValueError("secondary region overlaps the primary shell")
        # reject folding: the radial map must stay strictly increasing
        rho = np.linspace(0.0, self.outer, 2048)
        fp = 1.0 + self.growth * (_ramp(rho, self.core, self.outer)
                                  + rho * _ramp_deriv(rho, self.core, self.outer))
        if fp.min() <= 0:
            raise ValueError("radial map folds; widen the shell or lower growth")


def _ramp(rho, a, b):
    """Cubic smoothstep from 1 (rho<=a) to 0 (rho>=b); C1 at both ends."""
    u = np.clip((np.asarray(rho, dtype=np.float64) - a) / (b - a), 0.0, 1.0)
    return 1.0 - u * u * (3.0 - 2.0 * u)


def _ramp_deriv(rho, a, b):
    rho = np.asarray(rho, dtype=np.float64)
    u = (rho - a) / (b - a)
    inside = (u > 0.0) & (u < 1.0)
    du = np.where(inside, -6.0 * u * (1.0 - u) / (b - a), 0.0)
    return du


def _regions(spec: PhantomSpec):
    regions = [(np.array(spec.center), spec.core, spec.outer, spec.growth)]
    if spec.shrink_center is not None and spec.shrink_rate != 0.0:
        core2 = 1.15 * spec.shrink_radius
        outer2 = min(2.3 * spec.shrink_radius, 0.92)
        regions.append((np.array(spec.shrink_center), core2, outer2, spec.shrink_rate))
    return regions


def _displacement(spec: PhantomSpec, points: np.ndarray, t: float) -> np.ndarray:
    """Closed-form displacement at normalized time t for points (3,B)."""
    out = np.zeros_like(points, dtype=np.float64)
    for center, a, b, rate in _regions(spec):
        rel = points - center[:, None]
        rho = np.linalg.norm(rel, axis=0)
        out += (rate * t) * _ramp(rho, a, b) * rel
    return out


def _jacdet_and_rate(spec: PhantomSpec, points: np.ndarray, t: float):
    """(|J|, d|J|/dt) of the true map; derivative w.r.t. normalized time."""
    jac = np.ones(points.shape[1], dtype=np.float64)
    rate_out = np.zeros(points.shape[1], dtype=np.float64)
    for center, a, b, rate in _regions(spec):
        rel = points - center[:, None]
        rho = np.linalg.norm(rel, axis=0)
        h = rate * _ramp(rho, a, b)
        hp = rate * _ramp_deriv(rho, a, b)
        m = 1.0 + t * h
        fprime = 1.0 + t * (h + rho * hp)
        jac_r = m * m * fprime
        rate_r = 2.0 * m * h * fprime + m * m * (h + rho * hp)
        # disjoint supports: at most one region is non-identity per point
        jac *= jac_r
        rate_out += rate_r
    return jac, rate_out


def _baseline_intensity(spec: PhantomSpec, points: np.ndarray) -> np.ndarray:
    vals = np.zeros(points.shape[1], dtype=np.float64)
    specs = [(np.array(spec.center), spec.radius, 1.0)]
    if spec.shrink_center is not None and spec.shrink_radius > 0:
        specs.append((np.array(spec.shrink_center), spec.shrink_radius, 0.8))
    for center, radius, amp in specs:
        rho = np.linalg.norm(points - center[:, None], axis=0)
        u = np.clip((rho - (radius - spec.edge_width)) / (2 * spec.edge_width), 0, 1)
        edge = 1.0 - u * u * (3.0 - 2.0 * u)
        tex = 1.0 - 0.5 * spec.ring_amplitude * (
            1.0 - np.cos(2.0 * np.pi * rho / spec.ring_period)
        )
        vals += amp * edge * tex
    return vals


def _pullback_points(spec: PhantomSpec, points: np.ndarray, t: float) -> np.ndarray:
    """Invert the radial map per region (table-based, vectorized)."""
    out = points.astype(np.float64).copy()
    for center, a, b, rate in _regions(spec):
        rel = points - center[:, None]
        rho = np.linalg.norm(rel, axis=0)
        rho_w = np.linspace(0.0, b, 8192)
        f_w = rho_w * (1.0 + rate * t * _ramp(rho_w, a, b))
        inv = np.interp(rho, f_w, rho_w, right=np.nan)
        inv = np.where(np.isnan(inv), rho, inv)  # beyond the shell: identity
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(rho > 0, inv / np.where(rho > 0, rho, 1.0), 1.0)
        out += (scale - 1.0) * rel
    return out


@dataclass
class PhantomTruth:
    """Closed-form ground truth attached to a generated series."""

    spec: PhantomSpec

    @property
    def t_max(self) -> float:
        return self.spec.t_max

    def displacement(self, points, months: float) -> np.ndarray:
        return _displacement(self.spec, np.asarray(points), months / self.t_max)

    def jac_det(self, points, months: float) -> np.ndarray:
        jac, _ = _jacdet_and_rate(self.spec, np.asarray(points), months / self.t_max)
        return jac

    def jac_det_dt(self, points, months: float) -> np.ndarray:
        _, rate = _jacdet_and_rate(self.spec, np.asarray(points), months / self.t_max)
        return rate

    def to_dict(self) -> dict:
        d = {k: getattr(self.spec, k) for k in PhantomSpec.__dataclass_fields__}
        d["core_radius"] = self.spec.core
        d["outer_radius"] = self.spec.outer
        return d


def generate_raw(spec: PhantomSpec):
    """Noisy raw grids (pre-normalization), one per observed time."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    pts = grid_coordinates(spec.dims)
    grids = []
    for months in spec.times:
        t = months / spec.t_max
        clean = _baseline_intensity(spec, _pullback_points(spec, pts, t))
        raw = clean.reshape(spec.dims)
        if spec.sigma > 0:
            raw = raw + spec.sigma * rng.standard_normal(spec.dims)
        grids.append(raw)
    return grids


def generate_phantom(spec: PhantomSpec):
    """Build the observed series plus its ground-truth attachment."""
    grids = generate_raw(spec)
    pts = grid_coordinates(spec.dims)
    vols = [normalize_intensities(g) for g in grids]
    labels = {}
    for months in spec.times:
        s = 1.0 + spec.growth * months / spec.t_max
        rho = np.linalg.norm(pts - np.array(spec.center)[:, None], axis=0)
        lab = (rho <= spec.radius * s).astype(np.int32).reshape(spec.dims)
        if spec.shrink_center is not None and spec.shrink_radius > 0:
            s2 = 1.0 + spec.shrink_rate * months / spec.t_max
            rho2 = np.linalg.norm(pts - np.array(spec.shrink_center)[:, None], axis=0)
            lab[(rho2 <= spec.shrink_radius * s2).reshape(spec.dims)] = 2
        labels[months] = lab
    series = Volume4DSeries(
        vols[0], list(zip(spec.times[1:], vols[1:])), labels=labels
    )
    return series, PhantomTruth(spec)


def true_field(spec: PhantomSpec, months: float) -> np.ndarray:
    """Dense closed-form displacement grid (3, nx, ny, nz) at `months`."""
    spec.validate()
    pts = grid_coordinates(spec.dims)
    disp = _displacement(spec, pts, months / spec.t_max)
    return disp.reshape((3,) + tuple(spec.dims))


def true_jacobian_det(spec: PhantomSpec, months: float) -> np.ndarray:
    """Dense closed-form |J| grid at `months`."""
    spec.validate()
    pts = grid_coordinates(spec.dims)
    jac, _ = _jacdet_and_rate(spec, pts, months / spec.t_max)
    return jac.reshape(spec.dims)
