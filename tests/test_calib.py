import math

import numpy as np
import pytest

from slidecal import calib, cones2d, geom

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)


def test_half_t_pairwise_norms_unit():
    cal = calib.t_plus_calibration()
    norms = cal.pairwise_norms()
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(norms[i, j] - 1.0) <= 1e-14


def test_half_t_boundary_difference():
    cal = calib.t_plus_calibration()
    got = float((cal.vector(4) - cal.vector(1)) @ geom.Z_HAT)
    assert got == pytest.approx(math.sqrt(2 / 3), abs=1e-14)


def test_half_t_vectors_sum_to_zero():
    cal = calib.t_plus_calibration()
    assert np.abs(cal.vectors.sum(axis=0)).max() <= 1e-14


def test_half_t_alignment():
    report = calib.verify_alignment(cones2d.t_plus(), calib.t_plus_calibration())
    assert report.verdict
    assert len(report.alignment_defects) == 6
    assert max(report.alignment_defects.values()) <= 1e-12
    assert report.boundary_coeffs["region_4_contact"] == pytest.approx(
        math.sqrt(2 / 3), abs=1e-14)
    assert report.vacuous_pairs == ()


def test_rotated_y_isometry_invariants():
    base = None
    for beta in np.linspace(0.0, math.pi / 2, 20):
        cal = calib.rotated_y_calibration(beta, "y")
        assert np.allclose(np.linalg.norm(cal.vectors, axis=1), 1 / SQ3,
                           atol=1e-14)
        norms = cal.pairwise_norms()
        if base is None:
            base = norms
        assert np.abs(norms - base).max() <= 1e-14
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(norms[i, j] - 1.0) <= 1e-14


def test_rotated_y_display_at_zero():
    cal = calib.rotated_y_calibration(0.0, "y")
    assert np.allclose(cal.vector(1), [0, 0, 1 / SQ3], atol=1e-15)


def test_rotated_y_boundary_coefficient():
    for beta in (0.0, 0.4, 1.0, math.pi / 2):
        cal = calib.rotated_y_calibration(beta, "y")
        for i in (2, 3):
            got = float((cal.vector(i) - cal.vector(1)) @ geom.Z_HAT)
            assert abs(got) == pytest.approx(SQ3 / 2 * math.cos(beta), abs=1e-14)


def test_rotated_y_alignment_20_betas():
    for beta in np.linspace(0.01, math.pi / 2, 20):
        for variant, spec in (("y", cones2d.y_beta(beta)),
                              ("ybar", cones2d.ybar_beta(beta))):
            report = calib.verify_alignment(
                spec, calib.rotated_y_calibration(beta, variant))
            assert report.verdict, (variant, beta, report.reasons)
            assert max(report.alignment_defects.values()) <= 1e-12


def test_w_norm_boundary_case():
    cal = calib.w_beta_calibration(math.asin(1 / SQ3))
    assert cal.pairwise_norms()[0, 1] == pytest.approx(1.0, abs=1e-14)


def test_w_norm_fails_past_boundary():
    cal = calib.w_beta_calibration(math.pi / 4)
    assert cal.pairwise_norms()[0, 1] == pytest.approx(SQ3 * SQ2 / 2, abs=1e-14)
    report = calib.verify_alignment(cones2d.w_beta(math.pi / 4), cal)
    assert not report.verdict


def test_w_other_pairs_unit():
    for beta in np.linspace(0.0, math.pi / 2, 20):
        norms = calib.w_beta_calibration(beta).pairwise_norms()
        for i, j in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            assert norms[i - 1, j - 1] <= 1.0 + 1e-12


def test_w_alignment_and_vacuous_pair():
    beta = 0.5
    report = calib.verify_alignment(cones2d.w_beta(beta),
                                    calib.w_beta_calibration(beta))
    assert report.verdict
    assert report.vacuous_pairs == ((1, 2),)
    assert set(report.alignment_defects) == {"S1", "S2", "S3", "S4", "V"}
    assert report.boundary_coeffs["H1"] == pytest.approx(
        SQ3 / 2 * math.cos(beta), abs=1e-14)


def test_w_verdict_flips_at_admissibility_boundary():
    def passes(beta):
        return calib.verify_alignment(cones2d.w_beta(beta),
                                      calib.w_beta_calibration(beta)).verdict

    lo, hi = 0.4, 0.8
    assert passes(lo) and not passes(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(math.asin(1 / SQ3), abs=1e-10)


def test_calibration_region_mismatch_raises():
    with pytest.raises(ValueError):
        calib.verify_alignment(cones2d.y_beta(0.5), calib.t_plus_calibration())


# ---------------------------------------------------------------------------
# divergence balance
# ---------------------------------------------------------------------------

PARTITIONS = [
    (cones2d.t_plus(), calib.t_plus_calibration()),
    (cones2d.y_beta(0.7), calib.rotated_y_calibration(0.7, "y")),
    (cones2d.ybar_beta(0.7), calib.rotated_y_calibration(0.7, "ybar")),
    (cones2d.w_beta(0.5), calib.w_beta_calibration(0.5)),
] + [(cones2d.w_beta(b), calib.w_beta_calibration(b))
     for b in (0.05, math.pi / 4, math.asin(1 / SQ3), 1.2)]
PARTITION_IDS = [s.variant for s, _ in PARTITIONS[:4]] + [
    f"w_beta-{s.beta:.4f}" for s, _ in PARTITIONS[4:]]


@pytest.mark.parametrize("spec,cal", PARTITIONS, ids=PARTITION_IDS)
def test_divergence_balance(spec, cal):
    part = cones2d.region_partition(spec)
    for region, (flux, area) in calib.divergence_balance(part, cal).items():
        assert abs(flux) <= 1e-10 * area, (spec.variant, region)


def test_divergence_negative_control():
    part = cones2d.region_partition(cones2d.t_plus())
    cal = calib.t_plus_calibration()
    dropped = calib.divergence_balance(part, cal, drop=(4, "F4"))
    flux, area = dropped[4]
    face = next(f for f in part.regions[3].faces if f.name == "F4")
    # the defect is |w . n| times the missing area (the top face is
    # horizontal and w_4 vertical)
    expected = np.linalg.norm(cal.vector(4)) * face.area
    assert abs(flux) == pytest.approx(expected, rel=1e-12)
    assert abs(flux) > 1e-10 * area


def test_tetrahedron_with_any_constant_field():
    tetra = np.array([[0, 0, 0.0], [1, 0, 0.2], [0, 1, 0.1], [0.2, 0.3, 1.0]])
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    w = np.array([0.3, -1.2, 0.7])
    flux = 0.0
    for a, b, c in faces:
        n = np.cross(tetra[b] - tetra[a], tetra[c] - tetra[a])
        flux += 0.5 * float(w @ n)
    assert abs(flux) <= 1e-14


@pytest.mark.parametrize("spec,cal", PARTITIONS, ids=PARTITION_IDS)
def test_lower_bound_constant_matches_clipped_cone(spec, cal):
    # the divergence-theorem constant equals the weighted area of the
    # clipped cone at its required alpha (the equality case of the bound)
    part = cones2d.region_partition(spec)
    constant, j_clipped = calib.lower_bound_constant(part, cal)
    assert constant == pytest.approx(j_clipped, abs=1e-9)


def test_half_t_lower_bound_value():
    # sqrt(3/8) * (faces area) + (1/(2 sqrt 6)) * (plane section) evaluates
    # to (5/4) sqrt(2): the energy of the simplex-clipped truncation, whose
    # vertical folds stop at the section triangle.  (The canonical
    # competitor-comparable truncation extends them to the vertex feet and
    # has energy (4/3) sqrt(2) instead.)
    part = cones2d.region_partition(cones2d.t_plus())
    constant, j_clipped = calib.lower_bound_constant(
        part, calib.t_plus_calibration())
    assert constant == pytest.approx(1.25 * SQ2, abs=1e-12)
    assert j_clipped == pytest.approx(1.25 * SQ2, abs=1e-12)

    faces = sum(f.area for r in part.regions for f in r.faces
                if f.kind == cones2d.FACE_CLIP)
    section = sum(f.area for r in part.regions for f in r.faces
                  if f.kind == cones2d.FACE_GAMMA_BARE)
    assert constant == pytest.approx(
        math.sqrt(3 / 8) * faces + section / (2 * SQ6), abs=1e-12)


def test_half_t_energy_monotone_in_alpha():
    # no plane contact, so the energy is alpha-independent at and above the
    # threshold (and indeed everywhere)
    m = cones2d.build(cones2d.t_plus())
    ref = geom.energy(m, math.sqrt(2 / 3)).j_alpha
    for alpha in (math.sqrt(2 / 3), 0.85, 0.9, 1.0):
        assert geom.energy(m, alpha).j_alpha == ref
