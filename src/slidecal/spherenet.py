"""Spherical networks on the upper hemisphere.

A two-dimensional cone is determined by its trace on the unit hemisphere:
a graph of great-circle arcs.  For the trace of a minimal cone the arcs
must meet in threes at 120 degrees at interior nodes, the regions cut out
of the sphere are polygons with at most five sides whose side lengths obey
closed-form relations, and at the equator only the one-dimensional optimal
profiles may appear.

Side-length relations (arc lengths, i.e. subtended angles):

  * triangle: equiangular, side arccos(-1/3);
  * quadrilateral: "rectangular", cos(b) = (3 - 5 cos a) / (5 - 3 cos a);
  * pentagon: 2 cos(g) = 1/3 + cos a + cos b + cos a cos b - sin a sin b,
    g the side adjacent to neither a nor b.

Note the quadrilateral relation in half-angle form is
cos(b/2) = 2 sin(a/2) / sqrt(1 + 3 sin(a/2)^2); the two forms agree
identically (substitute cos a = 1 - 2 sin(a/2)^2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cones1d

_ONE_TOL = 1e-12          # clamp slack for arccos arguments
NODE_TOL = 1e-10          # nodes must sit on the sphere this tightly
EQUATOR_TOL = 1e-9        # |z| below this means "on the equator"
ANGLE_TOL = 1e-8          # junction / profile angle tolerance


def _acos_clamped(x: float) -> float:
    if x > 1.0 + _ONE_TOL or x < -1.0 - _ONE_TOL:
        raise ValueError(f"arccos argument out of range: {x}")
    return math.acos(min(1.0, max(-1.0, x)))


def rect_side(a: float) -> float:
    """Side adjacent to a side of length a in an equiangular spherical
    quadrilateral.  Involution: rect_side(rect_side(a)) == a."""
    if not 0.0 < a < math.pi:
        raise ValueError(f"side must lie in (0, pi), got {a}")
    ca = math.cos(a)
    return _acos_clamped((3.0 - 5.0 * ca) / (5.0 - 3.0 * ca))


def rect_side_half_angle(a: float) -> float:
    """Half-angle form of rect_side: cos(b/2) = 2 s / sqrt(1 + 3 s^2) with
    s = sin(a/2)."""
    if not 0.0 < a < math.pi:
        raise ValueError(f"side must lie in (0, pi), got {a}")
    s = math.sin(0.5 * a)
    return 2.0 * _acos_clamped(2.0 * s / math.sqrt(1.0 + 3.0 * s * s))


def pentagon_side(a: float, b: float) -> float:
    """Side of an equiangular spherical pentagon adjacent to neither of the
    adjacent sides a and b.  Symmetric in (a, b)."""
    rhs = (1.0 / 3.0 + math.cos(a) + math.cos(b)
           + math.cos(a) * math.cos(b) - math.sin(a) * math.sin(b))
    return _acos_clamped(0.5 * rhs)


def triangle_side() -> float:
    """Side of the equiangular spherical triangle: arccos(-1/3)."""
    return math.acos(-1.0 / 3.0)


@dataclass(frozen=True)
class HemisphereNet:
    """Nodes on the closed upper unit hemisphere joined by great-circle
    arcs (always the short arc between the endpoints)."""

    nodes: np.ndarray              # (k, 3), unit vectors with z >= -tol
    arcs: tuple                    # ((i, j), ...)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError(f"nodes must be 3-vectors, got shape {nodes.shape}")
        try:
            arcs = tuple((operator.index(i), operator.index(j))
                         for i, j in self.arcs)
        except (TypeError, ValueError):
            raise ValueError("arcs must be pairs of node indices") from None
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arcs", arcs)
        r = np.linalg.norm(nodes, axis=1)
        if not np.all(np.abs(r - 1.0) <= NODE_TOL):
            raise ValueError("all nodes must lie on the unit sphere")
        if np.any(nodes[:, 2] < -NODE_TOL):
            raise ValueError("all nodes must lie on the closed upper hemisphere")
        for i, j in arcs:
            if not (0 <= i < len(nodes) and 0 <= j < len(nodes)) or i == j:
                raise ValueError(f"bad arc ({i}, {j})")
            if np.linalg.norm(np.cross(nodes[i], nodes[j])) < 1e-12:
                raise ValueError(f"arc ({i}, {j}) joins (anti)parallel nodes")
        nodes.flags.writeable = False

    def arc_normal(self, i: int, j: int) -> np.ndarray:
        n = np.cross(self.nodes[i], self.nodes[j])
        return n / np.linalg.norm(n)

    def tangent(self, i: int, j: int) -> np.ndarray:
        """Unit tangent at node i of the short arc toward node j, computed
        from the great-circle normal (no endpoint-difference noise)."""
        p = self.nodes[i]
        t = np.cross(self.arc_normal(i, j), p)
        return t / np.linalg.norm(t)

    def incident(self, i: int):
        out = []
        for a, b in self.arcs:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return out


@dataclass(frozen=True)
class NodeCheck:
    node: int
    ok: bool
    reason: str = ""
    angles: tuple = ()


@dataclass(frozen=True)
class NetReport:
    ok: bool
    entries: tuple


def junction_check(net: HemisphereNet, angle_tol: float = ANGLE_TOL) -> NetReport:
    """Interior nodes must have exactly 3 incident arcs meeting pairwise at
    120 degrees."""
    entries = []
    for i, p in enumerate(net.nodes):
        if p[2] <= EQUATOR_TOL:
            continue
        nbrs = net.incident(i)
        if len(nbrs) != 3:
            entries.append(NodeCheck(i, False, f"{len(nbrs)} arcs, expected 3"))
            continue
        ts = [net.tangent(i, j) for j in nbrs]
        angles = tuple(sorted(_acos_clamped(float(np.dot(ts[a], ts[b])))
                              for a, b in ((0, 1), (0, 2), (1, 2))))
        bad = max(abs(a - 2 * math.pi / 3) for a in angles)
        if bad > angle_tol:
            entries.append(NodeCheck(i, False, f"angle defect {bad:.3g}", angles))
        else:
            entries.append(NodeCheck(i, True, "", angles))
    return NetReport(ok=all(e.ok for e in entries), entries=tuple(entries))


@dataclass(frozen=True)
class EquatorNodeCheck:
    node: int
    ok: bool
    rays: tuple
    verdict: Optional[cones1d.Verdict] = None
    reason: str = ""


def equator_check(net: HemisphereNet, alpha: float,
                  angle_tol: float = ANGLE_TOL) -> NetReport:
    """Match the local configuration at each equator node against the
    half-plane catalog.

    Arc tangents at the node live in the tangent plane of the sphere, which
    is spanned there by the equator direction and the vertical; the arc
    angles against the equator reproduce the half-plane ray angles, and the
    catalog (with the sloped-profile condition cos(gamma) = alpha) decides
    admissibility.
    """
    entries = []
    for i, p in enumerate(net.nodes):
        if p[2] > EQUATOR_TOL:
            continue
        e_h = np.cross([0.0, 0.0, 1.0], p)
        e_h /= np.linalg.norm(e_h)
        rays = []
        ok = True
        reason = ""
        for j in net.incident(i):
            t = net.tangent(i, j)
            tz = float(t[2])
            th = float(np.dot(t, e_h))
            if abs(tz) <= angle_tol:
                rays.append(0.0 if th > 0 else math.pi)
            elif tz < 0:
                ok, reason = False, f"arc to node {j} dips below the equator"
                break
            else:
                rays.append(math.atan2(tz, th))
        if not ok:
            entries.append(EquatorNodeCheck(i, False, tuple(rays), reason=reason))
            continue
        rays = tuple(sorted(rays))
        try:
            cone = cones1d.BranchCone(rays)
        except ValueError as exc:
            entries.append(EquatorNodeCheck(i, False, rays, reason=str(exc)))
            continue
        verdict = cones1d.classify_branches(cone, alpha, tol=angle_tol)
        entries.append(EquatorNodeCheck(i, verdict.minimal, rays, verdict=verdict,
                                        reason="" if verdict.minimal
                                        else f"profile beaten by {verdict.witness}"))
    return NetReport(ok=all(e.ok for e in entries), entries=tuple(entries))
