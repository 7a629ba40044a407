"""Core 3D geometry: triangle meshes in the upper half-space and the
weighted area functional.

The ambient space is the closed half-space {z >= 0}; its bounding plane
{z = 0} (called Gamma throughout) is where surfaces may slide.  The energy
of a surface is the area lying off Gamma plus alpha times the area lying
inside Gamma, for a weight alpha in [0, 1].

Meshes are immutable after construction and all evaluation functions are
pure, so values can be shared freely across threads.  Area sums use
``math.fsum`` (exactly rounded), which is stronger than the compensated
summation bound of 2*eps*sum(|terms|) required by the threshold
experiments; permuting the triangle order does not change the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Z_HAT = np.array([0.0, 0.0, 1.0])

# Reflection through the yz plane (x -> -x).
R_X = np.diag([-1.0, 1.0, 1.0])

Z_FLOOR = -1e-12          # vertices may not sink below the sliding plane
GAMMA_Z_TOL = 1e-9        # flatness required of a triangle flagged on-Gamma
DEGENERATE_AREA = 1e-16   # triangles at or below this area are rejected


def unit(v) -> np.ndarray:
    """Normalize v; raises on the zero vector."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def triangle_area(a, b, c) -> float:
    """Area of the triangle (a, b, c).  Degenerate triangles return 0."""
    a = np.asarray(a, dtype=float)
    n = np.cross(np.asarray(b, dtype=float) - a, np.asarray(c, dtype=float) - a)
    return 0.5 * float(np.linalg.norm(n))


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Vectorized per-triangle areas."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    n = np.cross(b - a, c - a)
    return 0.5 * np.linalg.norm(n, axis=1)


@dataclass(frozen=True)
class RotationY:
    """Rotation about the y axis by beta in [0, pi/2].

    The matrix maps z-hat to (cos(beta), 0, sin(beta)), the spine direction
    of the tilted Y cones.
    """

    beta: float
    matrix: np.ndarray

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)


def rotate_y(beta: float) -> RotationY:
    if not 0.0 <= beta <= math.pi / 2:
        raise ValueError(f"beta must lie in [0, pi/2], got {beta}")
    s, c = math.sin(beta), math.cos(beta)
    m = np.array([[s, 0.0, c], [0.0, 1.0, 0.0], [-c, 0.0, s]])
    m.flags.writeable = False
    return RotationY(beta=beta, matrix=m)


@dataclass(frozen=True)
class SlidingEnergy:
    """Energy of a mesh split by position relative to the sliding plane.

    j_alpha = area_off_gamma + alpha * area_on_gamma.
    """

    area_off_gamma: float
    area_on_gamma: float
    j_alpha: float
    alpha: float


@dataclass(frozen=True)
class Mesh:
    """Triangulated surface in {z >= 0} with per-triangle Gamma flags.

    ``gamma[i]`` is True when triangle i lies inside the sliding plane and
    is therefore weighted by alpha.  Flags are stored, not re-derived from
    coordinates; construction validates them against the |z| <= 1e-9 rule
    so that later tolerance flips cannot occur.
    """

    vertices: np.ndarray   # (n, 3) float64
    triangles: np.ndarray  # (m, 3) int64
    gamma: np.ndarray      # (m,) bool

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        g = np.ascontiguousarray(np.asarray(self.gamma, dtype=bool))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "gamma", g)
        self._validate()
        v.flags.writeable = False
        t.flags.writeable = False
        g.flags.writeable = False

    def _validate(self):
        v, t, g = self.vertices, self.triangles, self.gamma
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must have shape (n, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if g.shape != (t.shape[0],):
            raise ValueError("gamma flags must have shape (m,)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        if np.any(v[:, 2] < Z_FLOOR):
            raise ValueError("vertex below the sliding plane (z < -1e-12)")
        areas = triangle_areas(v, t)
        if np.any(areas <= DEGENERATE_AREA):
            bad = int(np.argmin(areas))
            raise ValueError(f"degenerate triangle {bad} (area {areas[bad]:.3g})")
        if g.any():
            zmax = np.abs(v[t[g]][:, :, 2]).max()
            if zmax > GAMMA_Z_TOL:
                raise ValueError(
                    f"triangle flagged on-Gamma has |z| = {zmax:.3g} > {GAMMA_Z_TOL}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def energy(mesh: Mesh, alpha: float) -> SlidingEnergy:
    """Weighted area of a mesh: full weight off Gamma, weight alpha on it.

    The two partial areas are accumulated with exactly rounded summation,
    so the result is independent of triangle order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    on = math.fsum(areas[mesh.gamma])
    off = math.fsum(areas[~mesh.gamma])
    return SlidingEnergy(area_off_gamma=off, area_on_gamma=on,
                         j_alpha=off + alpha * on, alpha=alpha)


def subdivide(mesh: Mesh, levels: int = 1) -> Mesh:
    """Midpoint 4-split of every triangle, `levels` times.

    Purely combinatorial: planar pieces stay in their planes and child
    areas sum to the parent area up to rounding, so energies are stable
    under refinement.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    v, t, g = mesh.vertices, mesh.triangles, mesh.gamma
    for _ in range(levels):
        # edges (a,b), (b,c), (c,a) of each triangle in turn; midpoints are
        # numbered by first occurrence along that list
        n = len(v)
        i, j = t.ravel(), np.roll(t, -1, axis=1).ravel()
        keys, first, inverse = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                                         return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        lo, hi = np.divmod(keys[order], n)
        v = np.concatenate([v, 0.5 * (v[lo] + v[hi])])
        (a, b, c), (ab, bc, ca) = t.T, (n + rank[inverse]).reshape(-1, 3).T
        t = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
        g = np.repeat(g, 4)
    return Mesh(v, t, g)


# ---------------------------------------------------------------------------
# OFF mesh I/O.  ASCII OFF with a JSON sidecar carrying the Gamma flags:
#   line 1: "OFF"; line 2: "V F 0"; then V lines "x y z" (17 significant
#   digits) and F lines "3 i j k".  Sidecar: {"gamma_triangles": [...]} at
#   <path>.json.  Both blocks are formatted and parsed whole, byte for byte
#   as line by line: "%.17g" is format(x, ".17g"), and numpy parses a token
#   as float() and int() do.
# ---------------------------------------------------------------------------

def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_off(mesh: Mesh, path) -> Path:
    """Write mesh to an ASCII OFF file plus the Gamma-flag sidecar."""
    path = Path(path)
    nv, nf = mesh.n_vertices, mesh.n_triangles
    path.write_text(f"OFF\n{nv} {nf} 0\n"
                    + ("%.17g %.17g %.17g\n" * nv) % tuple(mesh.vertices.ravel().tolist())
                    + ("3 %d %d %d\n" * nf) % tuple(mesh.triangles.ravel().tolist()))
    sidecar = _sidecar_path(path)
    idx = [int(i) for i in np.nonzero(mesh.gamma)[0]]
    sidecar.write_text(json.dumps({"gamma_triangles": idx}) + "\n")
    return sidecar


def read_off(path) -> Mesh:
    """Read an ASCII OFF file; Gamma flags come from the sidecar if present.

    A file cut short, a face or sidecar index that is not a 64-bit integer,
    a sidecar without a ``gamma_triangles`` list, or a sidecar index outside
    [0, nf) raises ValueError.  Loaded flags are validated against the
    |z| <= 1e-9 rule by the Mesh constructor.
    """
    path = Path(path)
    tokens = path.read_text().split()
    if not tokens or tokens[0] != "OFF":
        raise ValueError(f"{path}: not an OFF file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: OFF header cut short")
    nv, nf = int(tokens[1]), int(tokens[2])
    if min(nv, nf) < 0 or len(tokens) < 4 + 3 * nv + 4 * nf:
        raise ValueError(f"{path}: {nv} vertices and {nf} faces do not fit the file")
    pos = 4 + 3 * nv  # faces start after the 4 header tokens and the vertices
    verts = np.array(tokens[4:pos], dtype=float).reshape(nv, 3)
    try:
        faces = np.array(tokens[pos:pos + 4 * nf], dtype=np.int64).reshape(nf, 4)
    except OverflowError:
        raise ValueError(f"{path}: face index does not fit in 64 bits") from None
    del tokens  # the largest object here: free it before the Mesh checks
    bad = np.flatnonzero(faces[:, 0] != 3)
    if bad.size:
        raise ValueError(f"{path}: face {bad[0]} is not a triangle")
    tris = faces[:, 1:]
    gamma = np.zeros(nf, dtype=bool)
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        data = json.loads(sidecar.read_text())
        if not isinstance(data, dict) or "gamma_triangles" not in data:
            raise ValueError(f"{sidecar}: no gamma_triangles list")
        try:
            idx = np.asarray(data["gamma_triangles"], dtype=int)
        except (OverflowError, TypeError):
            raise ValueError(f"{sidecar}: gamma triangle index is not an int64") from None
        if idx.size and (idx.min() < 0 or idx.max() >= nf):
            raise ValueError(f"{sidecar}: gamma triangle index outside [0, {nf})")
        gamma[idx] = True
    return Mesh(verts, tris, gamma)
