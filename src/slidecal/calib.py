"""Paired calibrations and their numerical verification.

A paired calibration for a cone is one constant vector per complement
region.  Applying the divergence theorem to each region and summing shows
that any sliding competitor has weighted area at least a constant that
depends only on the clip region, provided

  * every difference w_j - w_i has norm at most 1,
  * on every fold of the cone the difference equals the unit fold normal
    (so the generic inequality is saturated by the cone itself), and
  * the vertical component of the differences against the bare-plane
    regions reproduces the weight alpha on the cone's sliding sectors.

This module builds the families for the four cones and verifies those
three properties, plus the per-region flux identities, numerically.  For a
constant field w the flux through a region's boundary is the face sum of
w . A_f, with A_f the outward vector area of face f
(``cones2d.RegionFace.vector_area``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cones2d, geom

SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)

NORM_TOL = 1e-12       # slack on |w_i - w_j| <= 1
ALIGN_TOL = 1e-10      # fold alignment defect allowed in a passing report
COEFF_TOL = 1e-10      # boundary coefficient vs required alpha


@dataclass(frozen=True)
class Calibration:
    """Constant vector fields w_1..w_k indexed by complement region."""

    name: str
    vectors: np.ndarray          # (k, 3)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", v)
        v.flags.writeable = False

    @property
    def region_count(self) -> int:
        return len(self.vectors)

    def vector(self, region: int) -> np.ndarray:
        return self.vectors[region - 1]

    def pairwise_norms(self) -> np.ndarray:
        v = self.vectors
        return np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)


def t_plus_calibration() -> Calibration:
    """The four vectors -sqrt(3/8) v_i of the half-T; all six pairwise
    differences are unit vectors."""
    w = np.array([
        [-1 / SQ3, 0.0, -1 / (2 * SQ6)],
        [1 / (2 * SQ3), -0.5, -1 / (2 * SQ6)],
        [1 / (2 * SQ3), 0.5, -1 / (2 * SQ6)],
        [0.0, 0.0, 0.5 * math.sqrt(1.5)],
    ])
    return Calibration("t_plus", w)


def rotated_y_calibration(beta: float, variant: str = "y") -> Calibration:
    """Rotation of the planar Y calibration; norms 1/sqrt(3) and all
    pairwise distances 1 for every beta (the rotation is an isometry)."""
    if variant not in ("y", "ybar"):
        raise ValueError(f"variant must be 'y' or 'ybar', got {variant!r}")
    R = geom.rotate_y(beta)
    if variant == "y":
        planar = np.array([[-1 / SQ3, 0.0, 0.0],
                           [1 / (2 * SQ3), -0.5, 0.0],
                           [1 / (2 * SQ3), 0.5, 0.0]])
    else:
        planar = np.array([[1 / SQ3, 0.0, 0.0],
                           [-1 / (2 * SQ3), 0.5, 0.0],
                           [-1 / (2 * SQ3), -0.5, 0.0]])
    w = planar @ R.matrix.T
    return Calibration(f"{variant}_beta", w)


def w_beta_calibration(beta: float) -> Calibration:
    """Calibration of the double Y.  Five pairwise distances are exactly 1;
    the sixth is |w_1 - w_2| = sqrt(3) sin(beta), which is admissible only
    when sin(beta) <= 1/sqrt(3)."""
    if not 0.0 <= beta <= math.pi / 2:
        raise ValueError(f"beta must lie in [0, pi/2], got {beta}")
    s, c = math.sin(beta), math.cos(beta)
    w = np.array([
        [SQ3 / 2 * s, 0.0, -SQ3 / 2 * c],
        [-SQ3 / 2 * s, 0.0, -SQ3 / 2 * c],
        [0.0, 0.5, 0.0],
        [0.0, -0.5, 0.0],
    ])
    return Calibration("w_beta", w)


def calibration_for(spec: cones2d.ConeSpec) -> Calibration:
    if spec.variant == cones2d.T_PLUS:
        return t_plus_calibration()
    if spec.variant == cones2d.Y_BETA:
        return rotated_y_calibration(spec.beta, "y")
    if spec.variant == cones2d.YBAR_BETA:
        return rotated_y_calibration(spec.beta, "ybar")
    if spec.variant == cones2d.W_BETA:
        return w_beta_calibration(spec.beta)
    raise ValueError(f"no calibration for variant {spec.variant!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of checking a calibration against its cone.

    ``alignment_defects`` maps fold name to |1 - (w_j - w_i) . n_ij|;
    ``boundary_coeffs`` maps sliding-sector name to (w_i - w_bare) . z_hat,
    which must reproduce the cone's required alpha.  ``vacuous_pairs`` are
    region pairs whose norm bound is required by the argument even though
    the cone has no fold between them.
    """

    pairwise_norms: np.ndarray
    alignment_defects: dict
    boundary_coeffs: dict
    required_alpha: float
    structural_pairs: tuple
    vacuous_pairs: tuple
    verdict: bool
    reasons: tuple


def verify_alignment(spec: cones2d.ConeSpec, cal: Calibration) -> CalibrationReport:
    """Check norms, fold alignment and boundary coefficients.

    The fold normals and region labels come from the cone constructor, so
    no topology is inferred here; a labeling mismatch raises.
    """
    folds = cones2d.folds(spec)
    k = cal.region_count
    if cones2d.region_count(spec) != k:
        raise ValueError(
            f"calibration has {k} regions, cone wants {cones2d.region_count(spec)}")
    for f in folds:
        if not all(1 <= r <= k for r in f.regions):
            raise ValueError(f"fold {f.name} references unknown region {f.regions}")

    reasons = []
    norms = cal.pairwise_norms()
    structural = tuple(sorted({f.regions for f in folds}))
    all_pairs = {(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    vacuous = tuple(sorted(all_pairs - set(structural)))
    for i, j in sorted(all_pairs):
        if norms[i - 1, j - 1] > 1.0 + NORM_TOL:
            reasons.append(f"|w{i}-w{j}| = {norms[i - 1, j - 1]:.15g} > 1")

    defects = {}
    for f in folds:
        i, j = f.regions
        diff = cal.vector(j) - cal.vector(i)
        defects[f.name] = abs(1.0 - float(diff @ f.normal))
        if defects[f.name] > ALIGN_TOL:
            reasons.append(f"fold {f.name} misaligned by {defects[f.name]:.3g}")

    required = cones2d.required_alpha(spec).value
    coeffs = {}
    bare = cones2d.gamma_bare_regions(spec)
    weighted = cones2d.gamma_weighted_regions(spec)
    sector_names = {s.region: s.name for s in cones2d.gamma_sectors(spec)}
    for region in weighted:
        name = sector_names.get(region, f"region_{region}_contact")
        vals = [float((cal.vector(region) - cal.vector(b)) @ geom.Z_HAT)
                for b in bare]
        if max(vals) - min(vals) > 1e-12:
            raise ValueError(f"inconsistent boundary coefficients for {name}")
        coeffs[name] = vals[0]
        if abs(vals[0] - required) > COEFF_TOL:
            reasons.append(
                f"boundary coefficient {vals[0]:.15g} for {name} != {required:.15g}")

    return CalibrationReport(
        pairwise_norms=norms,
        alignment_defects=defects,
        boundary_coeffs=coeffs,
        required_alpha=required,
        structural_pairs=structural,
        vacuous_pairs=vacuous,
        verdict=not reasons,
        reasons=tuple(reasons),
    )


def divergence_balance(partition: cones2d.Partition, cal: Calibration,
                       drop: Optional[tuple] = None) -> dict:
    """Flux of each region's calibration vector through its closed
    boundary: the sum over faces of w . A_f with A_f the face's outward
    vector area, zero (to rounding) for a constant field.

    Returns {region: (flux, boundary_area)}.  ``drop=(region, face_name)``
    removes one face first - the negative control: the reported flux then
    equals (w . n) times the missing area.
    """
    out = {}
    for region in partition.regions:
        w = cal.vector(region.index)
        faces = [f for f in region.faces if drop != (region.index, f.name)]
        out[region.index] = (math.fsum(float(w @ f.vector_area) for f in faces),
                             math.fsum(f.area for f in faces))
    return out


def lower_bound_constant(partition: cones2d.Partition, cal: Calibration) -> tuple[float, float]:
    """The clip-dependent constant of the calibration argument, alongside
    the weighted area of the clipped cone at its required alpha.

    The constant is the total calibration flux w . A_f through the clip
    faces plus (-w_bare . z_hat) times the total sliding-plane
    cross-section; by the divergence theorem and the alignment identities
    it equals the clipped cone's weighted area exactly, which is what the
    returned pair lets a caller assert.
    """
    faces = [(region.index, f) for region in partition.regions for f in region.faces]
    clip_flux = math.fsum(float(cal.vector(i) @ f.vector_area)
                          for i, f in faces if f.kind == cones2d.FACE_CLIP)
    gamma_area = math.fsum(f.area for _, f in faces if f.kind in
                           (cones2d.FACE_GAMMA_BARE, cones2d.FACE_GAMMA_SECTOR))
    bare = next(i for i, f in faces if f.kind == cones2d.FACE_GAMMA_BARE)
    constant = clip_flux - float(cal.vector(bare) @ geom.Z_HAT) * gamma_area

    alpha_star = cones2d.required_alpha(partition.spec).value
    j_cone = cones2d.partition_cone_energy(partition, alpha_star)
    return constant, j_cone
