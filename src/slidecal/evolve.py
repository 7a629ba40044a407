"""Discrete minimization of the weighted area under the sliding constraint.

Vertices carry one of three roles during descent:

  * pinned vertices never move (they realize the compact-support
    requirement on deformations);
  * sliding vertices started on the plane {z = 0} and may move only inside
    it (points on the sliding plane must stay there);
  * free vertices move anywhere in the closed half-space; a step taking
    one below the plane clamps it to z = 0.

A free vertex that stays clamped at z = 0 for five consecutive accepted
steps is converted, one way, into a sliding vertex, and every triangle
whose three corners are sliding becomes part of the weighted contact
region.  That is how the flat contact patch ("fat triangle") grows out of
the half-T below the threshold weight.

Descent is plain projected gradient with a backtracking line search, so
the energy trace is monotone non-increasing.  Each iteration evaluates
the geometry once: the line search's accepted candidate supplies the next
gradient and the step cap.  The kernel keeps coordinates as a (3, n)
array and triangles as (3, m), so every gather and arithmetic step runs
over contiguous rows.  Runs are bit-reproducible, and these rules keep
any rewrite of the kernel bit-identical to it:

  * cross products and norms are written out by component in numpy's
    order: (u1 v2 - u2 v1, u2 v0 - u0 v2, u0 v1 - u1 v0) and
    sqrt((x0^2 + x1^2) + x2^2);
  * a - b is exactly -(b - a), so one edge serves both directions, and
    u x v is exactly -(v x u);
  * the gradient is nine np.bincount sums added per component in corner
    order a, b, c (no accumulation races);
  * J is np.dot(weights, 0.5 * norms), not a reordered or compensated
    sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom

CONTACT_ITERS = 5      # consecutive clamped steps before conversion
SLIDE_Z_TOL = 1e-12    # initial |z| below this means "on the plane"


@dataclass
class EvolveConfig:
    """Settings for a descent run.

    ``pin`` is a boolean vertex mask; None pins the mesh rim
    (``rim_pin_mask``: the ends of boundary edges off the sliding plane or
    on an on-Gamma triangle).  The step is capped each iteration so no
    vertex moves more than a quarter of the current minimum edge length.
    """

    alpha: float
    step: float = 0.05
    max_iters: int = 20000
    tol: float = 1e-10
    pin: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass
class EvolveTrace:
    energies: list
    mesh: geom.Mesh
    gamma_contact_area: float
    converged: bool
    iterations: int


def rim_pin_mask(mesh: geom.Mesh) -> np.ndarray:
    """Vertices on the mesh rim that must stay put: both ends of every
    boundary edge that is not contained in the sliding plane or that
    belongs to an on-Gamma triangle (the rim of a cone-owned sector of the
    plane, which lies on the clip wall).  The remaining boundary edges,
    traces of folds in the plane, stay slidable."""
    n = mesh.n_vertices
    t = mesh.triangles.astype(np.int64)
    i, j = t.ravel(), np.roll(t, -1, axis=1).ravel()
    edges = np.minimum(i, j) * n + np.maximum(i, j)
    keys, counts = np.unique(edges, return_counts=True)
    rim = keys[counts == 1]
    lo, hi = np.divmod(rim, n)
    flat = np.abs(mesh.vertices[:, 2]) <= SLIDE_Z_TOL
    keep = ~(flat[lo] & flat[hi]) | np.isin(rim, edges[np.repeat(mesh.gamma, 3)])
    pin = np.zeros(n, dtype=bool)
    pin[lo[keep]] = True
    pin[hi[keep]] = True
    return pin


def _resolve_pin(mesh: geom.Mesh, pin) -> np.ndarray:
    if pin is None:
        return rim_pin_mask(mesh)
    mask = np.asarray(pin, dtype=bool)
    if mask.shape != (mesh.n_vertices,):
        raise ValueError("pin mask must have one entry per vertex")
    return mask


def seed_contact(mesh: geom.Mesh, height: float,
                 pin: Optional[np.ndarray] = None) -> geom.Mesh:
    """Press the unpinned vertices lower than ``height`` onto the sliding
    plane, dropping triangles this degenerates and flagging those that now
    lie in the plane.

    Fixed-topology gradient flow cannot open a contact patch at a conical
    point on the plane: configurations without contact are calibration-
    bounded below by the cone's energy, so the flow, which never climbs,
    returns to the cone no matter how it is jittered.  (Surface Evolver
    escapes by popping the cone vertex, a topology change.)  Seeding a
    one-ring touchdown is the fixed-topology substitute; whether descent
    then grows or re-absorbs the patch is decided by the weight alpha.
    """
    pinned = _resolve_pin(mesh, pin)
    v = mesh.vertices.copy()
    press = (~pinned) & (v[:, 2] > SLIDE_Z_TOL) & (v[:, 2] <= height)
    v[press, 2] = 0.0
    areas = geom.triangle_areas(v, mesh.triangles)
    keep = areas > 1e-12
    tris = mesh.triangles[keep]
    gamma = mesh.gamma[keep].copy()
    gamma |= (np.abs(v[:, 2]) <= SLIDE_Z_TOL)[tris].all(axis=1)
    return geom.Mesh(v, tris, gamma)


def jitter(mesh: geom.Mesh, scale: float, seed: int,
           pin: Optional[np.ndarray] = None) -> geom.Mesh:
    """Normal perturbation of the non-pinned vertices (fixed seed).

    Sliding vertices are perturbed inside the plane only; free vertices
    are reflected back above it if the noise takes them below."""
    rng = np.random.default_rng(seed)
    pinned = _resolve_pin(mesh, pin)
    v = mesh.vertices.copy()
    noise = rng.normal(0.0, scale, size=v.shape)
    sliding = np.abs(v[:, 2]) <= SLIDE_Z_TOL
    noise[sliding, 2] = 0.0
    noise[pinned] = 0.0
    v += noise
    v[:, 2] = np.abs(v[:, 2])
    v[sliding, 2] = 0.0
    return geom.Mesh(v, mesh.triangles, mesh.gamma)


def _cross(u, v):
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _norm(u):
    return np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])


def _eval(P, T, weights):
    """Geometry of positions P (3, n) on triangles T (3, m) with corners
    a, b, c, and the weighted area J.  The geometry is the edges
    (b - a, c - a, c - b), the normals (b - a) x (c - a) and their norms."""
    a, b, c = (np.take(P, t, axis=1) for t in T)
    edges = (b - a, c - a, c - b)
    normals = _cross(edges[0], edges[1])
    norms = _norm(normals)
    return (edges, normals, norms), float(np.dot(weights, 0.5 * norms))


def _gradient(geo, T, weights, n_vertices) -> np.ndarray:
    """Exact (3, n) gradient of the weighted area from ``_eval``'s
    geometry; degenerate triangles contribute nothing.  The corner terms
    are 0.5 (b - c) x n_hat, 0.5 (c - a) x n_hat and 0.5 (a - b) x n_hat,
    the first and last written as n_hat x (c - b) and n_hat x (b - a)."""
    edges, normals, norms = geo
    n_hat = normals / np.where(norms > 1e-30, norms, 1.0)
    n_hat[:, norms <= 1e-30] = 0.0
    g = ((0.5 * _cross(n_hat, edges[2])) * weights,
         (0.5 * _cross(edges[1], n_hat)) * weights,
         (0.5 * _cross(n_hat, edges[0])) * weights)
    return np.array([np.bincount(T[0], weights=g[0][d], minlength=n_vertices)
                     + np.bincount(T[1], weights=g[1][d], minlength=n_vertices)
                     + np.bincount(T[2], weights=g[2][d], minlength=n_vertices)
                     for d in range(3)])


def _project(G, pinned, sliding) -> np.ndarray:
    """Zero, in place, the gradient (3, n) of pinned vertices and the
    vertical component of sliding ones."""
    G[:, pinned] = 0.0
    G[2, sliding] = 0.0
    return G


def descend(mesh: geom.Mesh, cfg: EvolveConfig) -> EvolveTrace:
    """Projected gradient descent on the weighted area.

    Returns the energy trace (monotone non-increasing), the final mesh,
    and the area of the weighted contact region it grew.  Stops when an
    accepted step decreases the energy by less than ``tol``, when no
    backtracked step decreases it at all, or at ``max_iters`` (flagged
    not converged)."""
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {cfg.alpha}")
    pinned = _resolve_pin(mesh, cfg.pin)
    if not pinned.any():
        raise ValueError("pin set is empty; deformations must be compact")

    pos = mesh.vertices.copy()
    tris = mesh.triangles.copy()
    gamma_tri = mesh.gamma.copy()
    sliding = np.abs(pos[:, 2]) <= SLIDE_Z_TOL
    sliding |= np.isin(np.arange(len(pos)), tris[gamma_tri].ravel())
    pos[sliding, 2] = 0.0
    # triangles lying in the plane carry the weight from the start (the
    # contact rule applied at iteration zero)
    gamma_tri |= sliding[tris].all(axis=1)
    movable = ~pinned

    P, T = np.ascontiguousarray(pos.T), np.ascontiguousarray(tris.T)
    weights = np.where(gamma_tri, cfg.alpha, 1.0)
    geo, j_new = _eval(P, T, weights)
    energies = [j_new]
    contact_count = np.zeros(len(pos), dtype=int)
    converged = False

    for iteration in range(cfg.max_iters):
        grad = _project(_gradient(geo, T, weights, len(pos)), pinned, sliding)
        gmax = float(_norm(grad).max())
        if gmax == 0.0:
            converged = True
            break
        min_edge = min(float(_norm(e).min()) for e in geo[0])
        step = min(cfg.step, min_edge / (4.0 * gmax))
        j_old = energies[-1]
        accepted = False
        for _ in range(40):
            cand = P - step * grad
            cand[2, sliding] = 0.0
            np.maximum(cand[2], 0.0, out=cand[2])
            geo, j_new = _eval(cand, T, weights)
            if j_new < j_old:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        P = cand
        # one-way contact: clamped free vertices become sliding after a few
        # consecutive floor hits, and fully-sliding triangles join the
        # weighted region
        at_floor = movable & ~sliding & (P[2] <= 0.0)
        contact_count[at_floor] += 1
        contact_count[~at_floor] = 0
        new_sliding = contact_count >= CONTACT_ITERS
        if new_sliding.any():
            sliding |= new_sliding
            contact_count[new_sliding] = 0
            newly_flat = ~gamma_tri & sliding[tris].all(axis=1)
            if newly_flat.any():
                gamma_tri |= newly_flat
                weights = np.where(gamma_tri, cfg.alpha, 1.0)
                j_new = float(np.dot(weights, 0.5 * geo[2]))
        energies.append(j_new)
        if j_old - j_new < cfg.tol:
            converged = True
            break

    pos = P.T.copy()
    areas = geom.triangle_areas(pos, tris)
    keep = areas > geom.DEGENERATE_AREA
    final = geom.Mesh(pos, tris[keep], gamma_tri[keep])
    contact = math.fsum(areas[keep & gamma_tri])
    return EvolveTrace(energies=energies, mesh=final,
                       gamma_contact_area=contact,
                       converged=converged, iterations=len(energies) - 1)


def gradient_check(mesh: geom.Mesh, alpha: float, h: float = 1e-5,
                   n_vertices: int = 50, seed: int = 0,
                   pin: Optional[np.ndarray] = None) -> float:
    """Central finite differences of the weighted area against the
    analytic gradient on a random sample of movable vertices; returns the
    maximum relative defect.

    The projection ``descend`` uses must leave pinned vertices exactly
    zero gradient and sliding vertices exactly zero vertical component;
    both are asserted here."""
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-7, 1e-4], got {h}")
    pinned = _resolve_pin(mesh, pin)
    P, T = mesh.vertices.T.copy(), np.ascontiguousarray(mesh.triangles.T)
    weights = np.where(mesh.gamma, alpha, 1.0)
    sliding = np.abs(P[2]) <= SLIDE_Z_TOL

    geo, _ = _eval(P, T, weights)
    grad = _project(_gradient(geo, T, weights, mesh.n_vertices), pinned, sliding)
    if np.any(grad[:, pinned] != 0.0):
        raise AssertionError("pinned vertex with nonzero gradient")
    if np.any(grad[2, sliding] != 0.0):
        raise AssertionError("sliding vertex with vertical gradient")

    movable = np.nonzero(~pinned)[0]
    rng = np.random.default_rng(seed)
    sample = rng.choice(movable, size=min(n_vertices, len(movable)), replace=False)
    worst = 0.0
    for v in sample:
        dims = (0, 1) if sliding[v] else (0, 1, 2)
        for d in dims:
            old = P[d, v]
            P[d, v] = old + h
            jp = _eval(P, T, weights)[1]
            P[d, v] = old - h
            jm = _eval(P, T, weights)[1]
            P[d, v] = old
            fd = (jp - jm) / (2.0 * h)
            defect = abs(fd - grad[d, v]) / max(1.0, abs(grad[d, v]))
            worst = max(worst, defect)
    return worst
