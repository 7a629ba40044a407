"""The two-dimensional sliding cone families and their clipped meshes.

Four families live here, each a union of planar folds through the origin
of the closed upper half-space plus (possibly) sectors of the sliding
plane itself:

  * ``t_plus``   half of the cone over the edges of a regular tetrahedron,
                 flipped point-down with its barycentre at the origin;
  * ``y_beta``   a Y cone tilted by beta about the y axis, completed by the
                 convex sector of the sliding plane between its two sloping
                 traces;
  * ``ybar_beta``  the mirror construction completed by the non-convex
                 sector;
  * ``w_beta``   two tilted-Y halves glued across the yz plane (a "double
                 Y"), completed by two horizontal sectors;

plus Cartesian products of the one-dimensional catalog with a segment.

Each family carries metadata consumed by the calibration checks: the
boundary trace rays, the sloping fold normals, the spines, and a labeling
of the connected components of the complement (regions).  Fold records
state which two regions a fold separates and carry the unit normal
oriented from the lower-index region to the higher one; this fixes the
sign conventions once, at construction, so verification never has to infer
topology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cones1d, geom, spherenet

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)
SQ23 = math.sqrt(2.0 / 3.0)

T_PLUS = "t_plus"
Y_BETA = "y_beta"
YBAR_BETA = "ybar_beta"
W_BETA = "w_beta"
PRODUCT = "product"

_VARIANTS = (T_PLUS, Y_BETA, YBAR_BETA, W_BETA, PRODUCT)

# Vertices of the regular tetrahedron generating the half-T; v4 points
# straight down and v1..v3 sit at height 1/3.
T_VERTICES = np.array([
    [2 * SQ2 / 3, 0.0, 1.0 / 3.0],
    [-SQ2 / 3, SQ23, 1.0 / 3.0],
    [-SQ2 / 3, -SQ23, 1.0 / 3.0],
    [0.0, 0.0, -1.0],
])

# Planar Y generators and the in-plane normals used for the tilted cones.
Y_POINTS = np.array([[1.0, 0.0, 0.0],
                     [-0.5, SQ3 / 2, 0.0],
                     [-0.5, -SQ3 / 2, 0.0]])

Z = np.array([0.0, 0.0, 1.0])
Z_DOWN = np.array([0.0, 0.0, -1.0])   # z >= 0 as the half-space Z_DOWN.p <= 0

REQ_EQ = "eq"    # cone minimal exactly at the listed alpha
REQ_GEQ = "geq"  # cone minimal for alpha at or above the listed value

# kinds of the faces bounding a complement region (region partitions)
FACE_FOLD = "fold"
FACE_GAMMA_SECTOR = "gamma_sector"
FACE_GAMMA_BARE = "gamma_bare"
FACE_CLIP = "clip"


@dataclass(frozen=True)
class ConeSpec:
    variant: str
    beta: Optional[float] = None
    cone1d: Optional[cones1d.Cone1D] = None
    length: Optional[float] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown cone variant {self.variant!r}")
        if self.variant in (Y_BETA, YBAR_BETA, W_BETA):
            if self.beta is None or not 0.0 <= self.beta <= math.pi / 2:
                raise ValueError(f"beta must lie in [0, pi/2], got {self.beta}")
        if self.variant == PRODUCT:
            if self.cone1d is None or self.length is None or self.length <= 0:
                raise ValueError("product needs a 1D cone and a positive length")


def t_plus() -> ConeSpec:
    return ConeSpec(T_PLUS)


def y_beta(beta: float) -> ConeSpec:
    return ConeSpec(Y_BETA, beta=beta)


def ybar_beta(beta: float) -> ConeSpec:
    return ConeSpec(YBAR_BETA, beta=beta)


def w_beta(beta: float) -> ConeSpec:
    return ConeSpec(W_BETA, beta=beta)


def product(cone: cones1d.Cone1D, length: float = 1.0) -> ConeSpec:
    return ConeSpec(PRODUCT, cone1d=cone, length=length)


@dataclass(frozen=True)
class Fold:
    """A planar fold of a cone, separating two labeled regions.

    ``normal`` is the unit plane normal oriented from region i toward
    region j where (i, j) = regions and i < j.
    """

    name: str
    regions: tuple
    normal: np.ndarray


@dataclass(frozen=True)
class GammaSector:
    """A sector of the sliding plane belonging to the cone, lying below
    the named region."""

    name: str
    region: int


@dataclass(frozen=True)
class RequiredAlpha:
    """The weight at which a cone is minimal.  ``condition`` is ``eq`` for
    exact equality families and ``geq`` for threshold families."""

    value: float
    condition: str


# ---------------------------------------------------------------------------
# Derived metadata
# ---------------------------------------------------------------------------

def _check_not_product(spec: ConeSpec):
    if spec.variant == PRODUCT:
        raise ValueError("operation not defined for product cones")


def gamma_rays(spec: ConeSpec) -> list:
    """Unit directions of the half-lines where the cone meets the sliding
    plane."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        return [geom.unit([v[0], v[1], 0.0]) for v in T_VERTICES[:3]]
    s = math.sin(spec.beta)
    if spec.variant == Y_BETA:
        return [np.array([1.0, 0.0, 0.0]),
                geom.unit([-1.0, SQ3 * s, 0.0]),
                geom.unit([-1.0, -SQ3 * s, 0.0])]
    if spec.variant == YBAR_BETA:
        return [np.array([-1.0, 0.0, 0.0]),
                geom.unit([1.0, -SQ3 * s, 0.0]),
                geom.unit([1.0, SQ3 * s, 0.0])]
    return [geom.unit([1.0, SQ3 * s, 0.0]),
            geom.unit([1.0, -SQ3 * s, 0.0]),
            geom.unit([-1.0, -SQ3 * s, 0.0]),
            geom.unit([-1.0, SQ3 * s, 0.0])]


def spines(spec: ConeSpec) -> list:
    """Unit directions of the rays where three folds meet at 120 degrees."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        return [np.array(v) for v in T_VERTICES[:3]]
    b = spec.beta
    sp = np.array([math.cos(b), 0.0, math.sin(b)])
    if spec.variant == W_BETA:
        return [sp, geom.R_X @ sp]
    return [sp]


def fold_normals(spec: ConeSpec) -> list:
    """Upward unit normals of the sloping folds (z component > 0)."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        v = T_VERTICES
        out = []
        for i, j in ((1, 2), (2, 0), (0, 1)):
            n = geom.unit(np.cross(v[i], v[j]))
            out.append(n if n[2] > 0 else -n)
        return out
    b = spec.beta
    s, c = math.sin(b), math.cos(b)
    if spec.variant == Y_BETA or spec.variant == YBAR_BETA:
        return [np.array([-SQ3 / 2 * s, -0.5, SQ3 / 2 * c]),
                np.array([-SQ3 / 2 * s, 0.5, SQ3 / 2 * c])]
    return [np.array([-SQ3 / 2 * s, 0.5, SQ3 / 2 * c]),
            np.array([-SQ3 / 2 * s, -0.5, SQ3 / 2 * c]),
            np.array([SQ3 / 2 * s, -0.5, SQ3 / 2 * c]),
            np.array([SQ3 / 2 * s, 0.5, SQ3 / 2 * c])]


def region_count(spec: ConeSpec) -> int:
    _check_not_product(spec)
    return 3 if spec.variant in (Y_BETA, YBAR_BETA) else 4


def folds(spec: ConeSpec) -> list:
    """Fold records with region pairs and (i -> j)-oriented unit normals."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        v = T_VERTICES
        out = []
        # sloping folds over the upper edges; region 4 is the inside of the
        # top tetrahedron [0, v1, v2, v3]
        centroid = v[:3].sum(axis=0)
        for i, (a, b) in zip((1, 2, 3), (((1, 2)), (2, 0), (0, 1))):
            n = geom.unit(np.cross(v[a], v[b]))
            if n @ centroid < 0:
                n = -n
            out.append(Fold(f"slope_{i}", (i, 4), n))
        # vertical folds over the traces; each separates the two lateral
        # regions that flank it
        traces = gamma_rays(spec)
        pairs = ((2, 3), (1, 3), (1, 2))
        towards = (np.array([0.0, 1.0, 0.0]),          # region 3 is y > 0
                   np.array([1.0, 0.0, 0.0]),          # region 3 flanks +x
                   np.array([1.0, -1.0, 0.0]))         # region 2 flanks +x, -y
        for k, (pair, hint) in enumerate(zip(pairs, towards)):
            n = geom.unit(np.cross(Z, traces[k]))
            if n @ hint < 0:
                n = -n
            out.append(Fold(f"vertical_{k + 1}", pair, n))
        return out

    b = spec.beta
    sp = np.array([math.cos(b), 0.0, math.sin(b)])
    if spec.variant == Y_BETA:
        m2, m3 = fold_normals(spec)
        return [Fold("sloping_2", (1, 3), -m2),
                Fold("sloping_3", (1, 2), -m3),
                Fold("vertical", (2, 3), np.array([0.0, 1.0, 0.0]))]
    if spec.variant == YBAR_BETA:
        m2, m3 = fold_normals(spec)
        return [Fold("sloping_2", (1, 3), m2),
                Fold("sloping_3", (1, 2), m3),
                Fold("vertical", (2, 3), np.array([0.0, -1.0, 0.0]))]
    s1, s2, s3, s4 = fold_normals(spec)
    return [Fold("S1", (1, 3), s1),
            Fold("S2", (1, 4), s2),
            Fold("S3", (2, 4), s3),
            Fold("S4", (2, 3), s4),
            Fold("V", (3, 4), np.array([0.0, -1.0, 0.0]))]


def gamma_sectors(spec: ConeSpec) -> list:
    """Sectors of the sliding plane that belong to the cone, with the
    region they sit below.  The half-T owns none (its trace has measure
    zero); region 4 is still the one whose boundary contact carries the
    weight in the lower-bound argument."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        return []
    if spec.variant == Y_BETA:
        return [GammaSector("S", 1)]
    if spec.variant == YBAR_BETA:
        return [GammaSector("Sbar_upper", 2), GammaSector("Sbar_lower", 3)]
    return [GammaSector("H1", 3), GammaSector("H2", 4)]


def gamma_bare_regions(spec: ConeSpec) -> list:
    """Regions whose boundary meets the sliding plane in a bare wedge (no
    cone surface there)."""
    _check_not_product(spec)
    return {T_PLUS: [1, 2, 3], Y_BETA: [2, 3],
            YBAR_BETA: [1], W_BETA: [1, 2]}[spec.variant]


def gamma_weighted_regions(spec: ConeSpec) -> list:
    """Regions whose sliding-plane contact carries the alpha weight in the
    lower-bound argument (for the half-T this contact appears only in
    competitors)."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        return [4]
    return sorted({s.region for s in gamma_sectors(spec)})


def required_alpha(spec: ConeSpec) -> RequiredAlpha:
    """The weight at which the cone is sliding minimal.

    The tilted families are minimal exactly at alpha = (sqrt(3)/2) cos(beta)
    (the double Y additionally needs sin(beta) <= 1/sqrt(3), the norm bound
    that ``calib.verify_alignment`` checks); the half-T is minimal exactly
    for alpha >= sqrt(2/3).

    At beta = 0 the formula gives alpha = sqrt(3)/2 for every tilted
    family, so the families sweep alpha in [0, sqrt(3)/2] (Y) and
    [1/sqrt(2), sqrt(3)/2] (double Y); the degenerate beta = 0 cones are
    products and their alpha = 1 minimality is a separate, product fact.
    """
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        return RequiredAlpha(SQ23, REQ_GEQ)
    return RequiredAlpha(SQ3 / 2 * math.cos(spec.beta), REQ_EQ)


# ---------------------------------------------------------------------------
# Clip regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClipRegion:
    """Convex polytope in which the cone is truncated.

    kinds: "simplex" (canonical half-T truncation), "prism" (right prism
    around the spine; apothem and half_height), "box" (|x|, |y| <= apothem
    and z <= apothem), "slab" (products; the length comes from the cone
    record).
    """

    kind: str
    apothem: float = 1.0
    half_height: Optional[float] = None


def simplex_clip() -> ClipRegion:
    return ClipRegion("simplex")


def _check_apothem(kind: str, apothem: float):
    if not (math.isfinite(apothem) and apothem > 0.0):
        raise ValueError(f"{kind} clip needs a finite apothem > 0, got {apothem}")


def prism_clip(spec: ConeSpec, apothem: float = 1.0,
               half_height: Optional[float] = None) -> ClipRegion:
    """Prism around the spine whose base vertices lie on the cone's folds.

    The default half height 2*apothem/tan(beta) + 1 keeps both triangular
    bases strictly away from the sliding plane.
    """
    b = spec.beta
    if b is None or b <= 0.0:
        raise ValueError("prism clip needs beta > 0")
    _check_apothem("prism", apothem)
    if half_height is None:
        half_height = 2.0 * apothem / math.tan(b) + 1.0
    elif not math.isfinite(half_height):
        raise ValueError(
            f"prism clip needs a finite half_height, got {half_height}")
    if half_height * math.sin(b) - 2.0 * apothem * math.cos(b) <= 0.0:
        raise ValueError("prism bases would intersect the sliding plane")
    return ClipRegion("prism", apothem=apothem, half_height=half_height)


def box_clip(apothem: float = 1.0) -> ClipRegion:
    _check_apothem("box", apothem)
    return ClipRegion("box", apothem=apothem)


def slab_clip() -> ClipRegion:
    return ClipRegion("slab")


def default_clip(spec: ConeSpec) -> ClipRegion:
    if spec.variant == T_PLUS:
        return simplex_clip()
    if spec.variant in (Y_BETA, YBAR_BETA):
        return prism_clip(spec)
    if spec.variant == W_BETA:
        return box_clip()
    return slab_clip()


_COMPATIBLE = {T_PLUS: "simplex", Y_BETA: "prism", YBAR_BETA: "prism",
               W_BETA: "box", PRODUCT: "slab"}


def _check_clip(spec: ConeSpec, clip: ClipRegion):
    if clip.kind != _COMPATIBLE[spec.variant]:
        raise ValueError(
            f"clip {clip.kind!r} incompatible with cone {spec.variant!r}")


def _clip_halfspaces(spec: ConeSpec, clip: ClipRegion) -> list:
    """Faces of the clip polytope as labelled half-spaces (n, d, kind,
    name) meaning n.p <= d, with n pointing out of the clip."""
    a = clip.apothem
    if clip.kind == "simplex":
        v = T_VERTICES
        hs = []
        for i in range(4):
            others = [v[j] for j in range(4) if j != i]
            n = geom.unit(np.cross(others[1] - others[0], others[2] - others[0]))
            if float(n @ (others[0] - v[i])) < 0:
                n = -n
            hs.append((n, float(n @ others[0])))
        names = [f"F{k}" for k in (1, 2, 3, 4)]
    elif clip.kind == "prism":
        b = spec.beta
        sp = np.array([math.cos(b), 0.0, math.sin(b)])
        points = -Y_POINTS if spec.variant == YBAR_BETA else Y_POINTS
        hs = [(-(geom.rotate_y(b).matrix @ p), a) for p in points]
        hs += [(sp, clip.half_height), (-sp, clip.half_height)]
        names = [f"prism_{k}" for k in range(5)]
    else:
        hs = [(np.array(n, dtype=float), a) for n in
              ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1))]
        names = ["box_+x", "box_-x", "box_+y", "box_-y", "box_top"]
    return [(n, d, FACE_CLIP, name) for (n, d), name in zip(hs, names)]


# ---------------------------------------------------------------------------
# Meshes from convex faces
# ---------------------------------------------------------------------------

# A triangle whose area is at most this times its longest edge squared is
# a sliver below rounding resolution: c * eps with c = 45, about 1e-14.
_SLIVER_RATIO = 45 * np.finfo(float).eps


def _mesh_from_faces(faces, refine=0) -> geom.Mesh:
    """Faces: iterable of (triangle list, gamma flag).  Vertices are merged
    across faces (12-decimal key) so fold seams are stitched and the mesh
    boundary is the true rim; slivers (``_SLIVER_RATIO``) are dropped; the
    result is midpoint-subdivided ``refine`` times."""
    verts, tris, flags = [], [], []
    index = {}

    def vid(p):
        p = np.asarray(p, dtype=float)
        key = (round(float(p[0]), 12), round(float(p[1]), 12),
               round(float(p[2]), 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(p)
        return index[key]

    for tri_list, g in faces:
        for a, b, c in tri_list:
            longest = max(np.linalg.norm(np.subtract(p, q))
                          for p, q in ((a, b), (b, c), (c, a)))
            if geom.triangle_area(a, b, c) <= _SLIVER_RATIO * longest ** 2:
                continue
            tris.append((vid(a), vid(b), vid(c)))
            flags.append(g)
    mesh = geom.Mesh(np.array(verts), np.array(tris), np.array(flags))
    return geom.subdivide(mesh, refine) if refine else mesh


def _snap_z(pts, tol=1e-12):
    out = []
    for p in pts:
        q = np.array(p, dtype=float)
        if abs(q[2]) <= tol:
            q[2] = 0.0
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# Builders: canonical half-T
# ---------------------------------------------------------------------------

def _t_plus_faces():
    """Folds of the canonical half-T truncation.

    The sloping folds end at the upper tetrahedron edges; each vertical
    fold spans from the origin out to the vertical segment below its upper
    vertex, so that every fold is the graph of the linear profile
    z = x/sqrt(2) over its per-fold coordinate x in [0, sqrt(2)/3].  The
    total weighted area is then (4/3) sqrt(2) for every alpha.
    """
    v = T_VERTICES
    o = np.zeros(3)
    faces = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        faces.append(([(o, v[a], v[b])], False))
    for i in range(3):
        foot = np.array([v[i][0], v[i][1], 0.0])
        faces.append(([(o, v[i], foot)], False))
    return faces


# ---------------------------------------------------------------------------
# Builders: Cartesian products
# ---------------------------------------------------------------------------

def _segments_1d(cone: cones1d.Cone1D):
    """Unit-window realization of a 1D cone in the (x, z) half-plane as
    segments (p, q, lies_in_gamma)."""
    g = ((-1.0, 0.0), (0.0, 0.0), True), ((0.0, 0.0), (1.0, 0.0), True)
    vert = ((0.0, 0.0), (0.0, 1.0), False)
    if cone.variant == cones1d.GAMMA:
        return [*g]
    if cone.variant == cones1d.VERTICAL:
        return [vert]
    if cone.variant == cones1d.GAMMA_PLUS_VERTICAL:
        return [*g, vert]
    t = cone.theta
    tip = (math.cos(t), math.sin(t))
    if cone.variant == cones1d.SLOPED_PLUS_HORIZONTAL:
        return [((-1.0, 0.0), (0.0, 0.0), True), ((0.0, 0.0), tip, False)]
    return [((0.0, 0.0), (-tip[0], tip[1]), False), ((0.0, 0.0), tip, False)]


def _build_product(spec: ConeSpec, refine: int) -> geom.Mesh:
    length = spec.length
    faces = []
    for (x0, z0), (x1, z1), g in _segments_1d(spec.cone1d):
        a = np.array([x0, 0.0, z0])
        b = np.array([x1, 0.0, z1])
        a2 = a + np.array([0.0, length, 0.0])
        b2 = b + np.array([0.0, length, 0.0])
        faces.append(([(a, b, b2), (a, b2, a2)], g))
    return _mesh_from_faces(faces, refine)


def build(spec: ConeSpec, clip: Optional[ClipRegion] = None, refine: int = 0) -> geom.Mesh:
    """Triangulate a cone inside its clip region.

    A tilted cone's mesh is made of the cone faces of its region partition:
    each fold and each cone-owned sector of the sliding plane, taken once,
    is an exact convex polygon cut by half-spaces, fan-triangulated, with
    the sliding-plane sectors flagged on-Gamma.  ``refine`` only subdivides
    triangles (geometry is fixed), so energies are refinement-stable.
    """
    if clip is None:
        clip = default_clip(spec)
    _check_clip(spec, clip)
    if spec.variant == T_PLUS:
        return _mesh_from_faces(_t_plus_faces(), refine)
    if spec.variant == PRODUCT:
        return _build_product(spec, refine)
    faces = _cone_faces(_partition(spec, clip))
    return _mesh_from_faces([(f.triangles, f.kind == FACE_GAMMA_SECTOR)
                             for f in faces], refine)


# ---------------------------------------------------------------------------
# Region partitions (for the divergence-theorem checks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionFace:
    """A convex face of a complement region, fan-triangulated and oriented
    out of the region.  ``cross`` holds each triangle's (b - a) x (c - a),
    which points outward with length twice the triangle's area."""

    kind: str
    name: str
    triangles: np.ndarray      # (k, 3, 3), oriented outward
    cross: np.ndarray          # (k, 3)

    @classmethod
    def fan(cls, kind: str, name: str, polygon, normal) -> RegionFace:
        """Fan from the first vertex of a convex polygon (vertices in
        angular order), each triangle turned to face along ``normal``."""
        p = np.asarray(polygon)
        tris = np.stack([np.broadcast_to(p[0], p[2:].shape), p[1:-1], p[2:]], axis=1)
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        flip = cross @ normal < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        cross[flip] = -cross[flip]
        return cls(kind, name, tris, cross)

    @property
    def vector_area(self) -> np.ndarray:
        """The integral of the outward unit normal over the face, so the
        flux of a constant field w through it is w . vector_area."""
        return 0.5 * self.cross.sum(axis=0)

    @property
    def area(self) -> float:
        return math.fsum(0.5 * _segment_lengths(self.cross))


@dataclass(frozen=True)
class Region:
    index: int
    faces: tuple


@dataclass(frozen=True)
class Partition:
    spec: ConeSpec
    regions: tuple


def _region_from_halfspaces(index, labeled_halfspaces, tol=1e-9):
    """Faces of a bounded convex region cut out by halfspaces n.p <= d.

    Vertices come from all plane triples, solved as one batch; each
    constraint plane carrying at least three of them contributes one convex
    face, oriented outward along its constraint normal.
    """
    planes = [(geom.unit(n), float(d) / float(np.linalg.norm(n)), kind, name)
              for n, d, kind, name in labeled_halfspaces]
    normals = np.array([n for n, _, _, _ in planes])
    offsets = np.array([d for _, d, _, _ in planes])
    triples = np.array(list(itertools.combinations(range(len(planes)), 3)))
    triples = triples[np.abs(np.linalg.det(normals[triples])) >= 1e-12]
    points = np.linalg.solve(normals[triples], offsets[triples][..., None])[..., 0]
    verts = []
    for p in points[np.all(points @ normals.T <= offsets + tol, axis=1)]:
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
        faces.append(RegionFace.fan(kind, name, on, n))
    return Region(index, tuple(faces))


def _partition(spec: ConeSpec, clip: ClipRegion) -> Partition:
    """Region i is cut out by every fold bordering it (on its side of the
    fold normal), by z >= 0 (a cone-owned sector of the sliding plane
    where ``gamma_sectors`` puts one below it, else bare plane) and by the
    clip faces."""
    if spec.variant == W_BETA and spec.beta <= 0.0:
        raise ValueError("double Y needs beta > 0")
    sectors = {s.region: s.name for s in gamma_sectors(spec)}
    cone_folds = folds(spec)
    clip_halfspaces = _clip_halfspaces(spec, clip)
    regions = []
    for i in range(1, region_count(spec) + 1):
        hs = [((1.0 if i == f.regions[0] else -1.0) * f.normal, 0.0,
               FACE_FOLD, f.name) for f in cone_folds if i in f.regions]
        if i in sectors:
            hs.append((Z_DOWN, 0.0, FACE_GAMMA_SECTOR, sectors[i]))
        else:
            hs.append((Z_DOWN, 0.0, FACE_GAMMA_BARE, f"gamma_{i}"))
        regions.append(_region_from_halfspaces(i, hs + clip_halfspaces))
    return Partition(spec, tuple(regions))


def region_partition(spec: ConeSpec, clip: Optional[ClipRegion] = None) -> Partition:
    """Closed polyhedral boundaries of the complement regions inside the
    clip: cone folds, clip faces, and sliding-plane patches, all oriented
    outward.  Every clip is a convex polytope, so each region is the
    intersection of half-spaces and its faces are exact convex polygons;
    each face carries its outward vector area, so a region's flux of a
    constant field is a sum over its faces."""
    _check_not_product(spec)
    if clip is None:
        clip = default_clip(spec)
    _check_clip(spec, clip)
    return _partition(spec, clip)


def _cone_faces(partition: Partition) -> list:
    """The cone's own faces in a partition: every fold and cone-owned
    sliding-plane sector once, as first met in region order."""
    faces = {}
    for region in partition.regions:
        for f in region.faces:
            if f.kind in (FACE_FOLD, FACE_GAMMA_SECTOR):
                faces.setdefault(f.name, f)
    return list(faces.values())


def partition_cone_energy(partition: Partition, alpha: float) -> float:
    """Weighted area of the cone surface recorded in a partition (each fold
    counted once, sliding-plane sectors weighted by alpha)."""
    return math.fsum(f.area if f.kind == FACE_FOLD else alpha * f.area
                     for f in _cone_faces(partition))


# ---------------------------------------------------------------------------
# Slicing and the Fubini check (products)
# ---------------------------------------------------------------------------

def _segment_lengths(seg: np.ndarray) -> np.ndarray:
    """Row norms, bit for bit ``np.linalg.norm`` of each row alone: stacked
    ``matmul`` (numpy >= 1.23) takes the same BLAS dot, which
    ``np.linalg.norm(axis=1)`` does not (1 ulp off on 1 vector in 10)."""
    return np.sqrt((seg[:, None, :] @ seg[:, :, None])[:, 0, 0])


def _section_energies(mesh: geom.Mesh, axis, ts, alpha: float) -> list:
    """``slice_energy_profile`` at every t in ``ts``, in one numpy pass over
    all (slice, triangle) pairs.  A triangle adds a segment only when it has
    vertices on both sides, so edge-on triangles (two vertices in the plane)
    are skipped: their edge is the two-sided limit carried by neighbors.
    The segment runs between the two candidates, in the order: vertices in
    the plane, then crossings of edges (0,1), (1,2), (2,0) at ``v[a] +
    s (v[b] - v[a])``, ``s = d[a] / (d[a] - d[b])``; other counts are
    skipped.  Each slice sums its ``_segment_lengths`` with ``math.fsum``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    axis = geom.unit(axis)
    proj = mesh.vertices @ axis
    lo, hi = float(proj.min()), float(proj.max())
    for t in ts:
        if not lo < t < hi:
            raise ValueError(f"slice position {t} outside [{lo}, {hi}]")
    ts = np.asarray(ts, dtype=float)
    pt = proj[mesh.triangles]
    j, i = np.nonzero((pt.min(axis=1) < ts[:, None]) & (pt.max(axis=1) > ts[:, None]))
    d = pt[i] - ts[j, None]
    nxt = np.roll(d, -1, axis=1)
    cand = np.concatenate([d == 0.0, d * nxt < 0.0], axis=1)
    keep = cand.sum(axis=1) == 2
    i, j, d, nxt, cand = i[keep], j[keep], d[keep], nxt[keep], cand[keep]
    # the six candidates: vertices 0, 1, 2, then crossings of edges from them
    vs = mesh.vertices[mesh.triangles[i]]
    s = d / np.where(cand[:, 3:], d - nxt, 1.0)
    ends = np.concatenate([vs, vs + s[:, :, None] * (np.roll(vs, -1, axis=1) - vs)],
                          axis=1)[cand].reshape(-1, 2, 3)
    lengths = _segment_lengths(ends[:, 1] - ends[:, 0])
    cuts = np.cumsum(np.bincount(j, minlength=len(ts)))[:-1]
    return [math.fsum(x[~g]) + alpha * math.fsum(x[g]) for x, g in
            zip(np.split(lengths, cuts), np.split(mesh.gamma[i], cuts))]


def slice_energy_profile(mesh: geom.Mesh, axis, t: float, alpha: float) -> float:
    """1D weighted length of the section {p . axis = t} of a mesh: length
    off the sliding plane plus alpha times length inside it.  Sections are
    computed by exact segment/plane intersection per triangle."""
    return _section_energies(mesh, axis, [t], alpha)[0]


def fubini_check(mesh: geom.Mesh, axis, alpha: float,
                 n_slices: int = 100) -> tuple[float, float]:
    """Midpoint-rule integral of the slice energies along ``axis`` versus
    the direct weighted area.  Equality holds for flat products; for a
    general surface the integral cannot exceed the area."""
    if n_slices < 1:
        raise ValueError(f"need at least one slice, got {n_slices}")
    axis = geom.unit(axis)
    proj = mesh.vertices @ axis
    lo, hi = float(proj.min()), float(proj.max())
    dt = (hi - lo) / n_slices
    nudge, near = (hi - lo) * 1e-9, (hi - lo) * 1e-12

    def position(k):
        t = lo + (k + 0.5) * dt
        # sections through mesh vertices are degenerate; step just past them
        while np.min(np.abs(proj - t)) < near and t + nudge < hi:
            t += nudge
        return t

    ts = [position(k) for k in range(n_slices)]
    integral = math.fsum(e * dt for e in _section_energies(mesh, axis, ts, alpha))
    return integral, geom.energy(mesh, alpha).j_alpha


# ---------------------------------------------------------------------------
# Hemisphere traces
# ---------------------------------------------------------------------------

def hemisphere_trace(spec: ConeSpec) -> spherenet.HemisphereNet:
    """Trace of the cone on the upper unit hemisphere as a network of
    great-circle arcs."""
    _check_not_product(spec)
    if spec.variant == T_PLUS:
        v = [np.array(p) for p in T_VERTICES[:3]]
        traces = gamma_rays(spec)
        nodes = v + traces
        arcs = [(0, 1), (1, 2), (2, 0), (3, 0), (4, 1), (5, 2)]
        return spherenet.HemisphereNet(np.array(nodes), tuple(arcs))
    rays = gamma_rays(spec)
    if spec.variant in (Y_BETA, YBAR_BETA):
        sp = spines(spec)[0]
        nodes = rays + [sp]
        arcs = [(0, 3), (1, 3), (2, 3)]
        if spec.variant == Y_BETA:
            arcs.append((1, 2))            # sector trace around -x
        else:
            arcs += [(2, 0), (0, 1)]       # mirror sector, split at -x
        return spherenet.HemisphereNet(np.array(nodes), tuple(arcs))
    sp1, sp2 = spines(spec)
    nodes = rays + [sp1, sp2]
    arcs = [(0, 4), (1, 4), (2, 5), (3, 5), (4, 5), (0, 3), (1, 2)]
    return spherenet.HemisphereNet(np.array(nodes), tuple(arcs))
