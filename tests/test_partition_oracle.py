"""The region partition and the calibration flux sums against verbatim
copies of the loops they replaced: a solve per plane triple, a sign test per
fan triangle, and a cross product per triangle in the flux sums.

Partitions (face kinds, names, order, triangles, areas) and built meshes
must be bit-equal.  The flux and the lower-bound constant are now face sums
of vector areas, which round differently from per-triangle sums: they must
agree within 8 eps of the region's boundary area and of the cone energy.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from slidecal import calib, cones2d, geom

EPS = np.finfo(float).eps
FACE_GAMMA_SECTOR = cones2d.FACE_GAMMA_SECTOR
FACE_GAMMA_BARE = cones2d.FACE_GAMMA_BARE
_snap_z = cones2d._snap_z

BETAS = (1e-6, 1e-3, 0.3, math.asin(1 / math.sqrt(3)), 1.2, math.pi / 2)
APOTHEMS = (1e-3, 1.0, 1e3)


def _cases():
    cases = [("t_plus", cones2d.t_plus(), None)]
    for make in (cones2d.y_beta, cones2d.ybar_beta, cones2d.w_beta):
        for beta in BETAS:
            spec = make(beta)
            for a in APOTHEMS:
                clip = (cones2d.box_clip(a) if make is cones2d.w_beta
                        else cones2d.prism_clip(spec, a))
                cases.append((f"{spec.variant}-{beta:.6g}-{a:g}", spec, clip))
    return cases


CASES = _cases()


# ---------------------------------------------------------------------------
# The replaced code, verbatim but for the ``flipped`` list, which records the
# name of the face of every fan triangle whose orientation was flipped.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionFace:
    kind: str
    name: str
    triangles: np.ndarray      # (k, 3, 3), oriented outward

    @property
    def area(self) -> float:
        return math.fsum(geom.triangle_area(*t) for t in self.triangles)


@dataclass(frozen=True)
class Region:
    index: int
    faces: tuple


def _fan(pts):
    """Fan triangulation of a convex polygon (list of (3,) points)."""
    return [(pts[0], pts[i], pts[i + 1]) for i in range(1, len(pts) - 1)]


def _region_from_halfspaces(index, labeled_halfspaces, flipped, tol=1e-9):
    """Faces of a bounded convex region cut out by halfspaces n.p <= d.

    Vertices come from all plane triples; each constraint plane carrying at
    least three of them contributes one convex face, oriented outward along
    its constraint normal.
    """
    planes = [(geom.unit(n), float(d) / float(np.linalg.norm(n)), kind, name)
              for n, d, kind, name in labeled_halfspaces]
    k = len(planes)
    verts = []
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                a = np.array([planes[i][0], planes[j][0], planes[l][0]])
                if abs(np.linalg.det(a)) < 1e-12:
                    continue
                p = np.linalg.solve(a, np.array([planes[i][1], planes[j][1],
                                                 planes[l][1]]))
                if all(float(n @ p) <= d + tol for n, d, _, _ in planes):
                    if not any(np.linalg.norm(p - q) < tol for q in verts):
                        verts.append(p)
    if len(verts) < 4:
        raise ValueError(f"region {index}: degenerate halfspace intersection")
    faces = []
    for n, d, kind, name in planes:
        on = [p for p in verts if abs(float(n @ p) - d) <= tol]
        if len(on) < 3:
            continue
        centroid = np.mean(on, axis=0)
        u = geom.unit(on[0] - centroid)
        v = np.cross(n, u)
        on.sort(key=lambda p: math.atan2(float((p - centroid) @ v),
                                         float((p - centroid) @ u)))
        on = _snap_z(on) if kind in (FACE_GAMMA_SECTOR, FACE_GAMMA_BARE) else on
        tris = []
        for a, b, c in _fan(on):
            cross = np.cross(b - a, c - a)
            if float(cross @ n) < 0:
                a, b, c = a, c, b
                flipped.append(name)
            tris.append((a, b, c))
        faces.append(RegionFace(kind, name, np.array(tris)))
    return Region(index, tuple(faces))


def divergence_balance(partition, cal, drop=None) -> dict:
    out = {}
    for region in partition.regions:
        w = cal.vector(region.index)
        terms = []
        area_terms = []
        for face in region.faces:
            if drop is not None and drop == (region.index, face.name):
                continue
            for a, b, c in face.triangles:
                n = np.cross(b - a, c - a)       # |n| = 2 * area, outward
                terms.append(0.5 * float(w @ n))
                area_terms.append(0.5 * float(np.linalg.norm(n)))
        out[region.index] = (math.fsum(terms), math.fsum(area_terms))
    return out


def lower_bound_constant(partition, cal) -> tuple[float, float]:
    clip_flux_terms = []
    gamma_area_terms = []
    for region in partition.regions:
        w = cal.vector(region.index)
        for face in region.faces:
            if face.kind == cones2d.FACE_CLIP:
                for a, b, c in face.triangles:
                    clip_flux_terms.append(0.5 * float(w @ np.cross(b - a, c - a)))
            elif face.kind in (cones2d.FACE_GAMMA_BARE, cones2d.FACE_GAMMA_SECTOR):
                gamma_area_terms.append(face.area)
    bare_regions = [region.index for region in partition.regions
                    if any(f.kind == cones2d.FACE_GAMMA_BARE for f in region.faces)]
    w_bare_z = float(cal.vector(bare_regions[0]) @ geom.Z_HAT)
    constant = math.fsum(clip_flux_terms) - w_bare_z * math.fsum(gamma_area_terms)

    alpha_star = cones2d.required_alpha(partition.spec).value
    j_cone = cones2d.partition_cone_energy(partition, alpha_star)
    return constant, j_cone


# ---------------------------------------------------------------------------

def _faces(partition):
    return [(r.index, f.kind, f.name, f.triangles.shape, f.triangles.tobytes(), f.area)
            for r in partition.regions for f in r.faces]


def _mesh(mesh):
    return mesh.vertices.tobytes(), mesh.triangles.tobytes(), mesh.gamma.tobytes()


def test_partition_build_and_flux_match_the_loops(monkeypatch):
    flipped = []
    for case, spec, clip in CASES:
        part = cones2d.region_partition(spec, clip)
        with monkeypatch.context() as m:
            m.setattr(cones2d, "_region_from_halfspaces",
                      functools.partial(_region_from_halfspaces, flipped=flipped))
            old_part = cones2d.region_partition(spec, clip)
        assert _faces(part) == _faces(old_part), case
        if spec.variant != cones2d.T_PLUS:
            mesh = cones2d.build(spec, clip)
            with monkeypatch.context() as m:
                m.setattr(cones2d, "_partition", lambda *_: old_part)
                assert _mesh(mesh) == _mesh(cones2d.build(spec, clip)), case

        cal = calib.calibration_for(spec)
        flux = calib.divergence_balance(part, cal)
        for k, (old_flux, old_area) in divergence_balance(part, cal).items():
            assert flux[k][1] == pytest.approx(old_area, rel=8 * EPS, abs=0.0), case
            assert abs(flux[k][0] - old_flux) <= 8 * EPS * old_area, case
        constant, j_cone = calib.lower_bound_constant(part, cal)
        old_constant, old_j = lower_bound_constant(old_part, cal)
        assert j_cone == old_j, case
        assert abs(constant - old_constant) <= 8 * EPS * j_cone, case
    # the negative control: without the orientation flip these triangles
    # would keep their fan order and the bit comparison above would fail
    assert flipped
