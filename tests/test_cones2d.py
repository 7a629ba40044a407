import itertools
import math
import time

import numpy as np
import pytest

from slidecal import calib, cones1d, cones2d, geom, spherenet

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
J_CONE = 4.0 * SQ2 / 3.0


def test_half_t_energy_all_alpha():
    m = cones2d.build(cones2d.t_plus())
    for alpha in (0.0, 0.5, math.sqrt(2 / 3), 1.0):
        assert geom.energy(m, alpha).j_alpha == pytest.approx(J_CONE, abs=1e-9)


def test_vertical_half_y_areas():
    # beta = pi/2: three vertical half-strips and the wedge of the plane
    spec = cones2d.y_beta(math.pi / 2)
    clip = cones2d.prism_clip(spec, apothem=1.0)
    m = cones2d.build(spec, clip)
    e = geom.energy(m, 0.0)
    assert e.area_off_gamma == pytest.approx(3 * 2 * clip.apothem * clip.half_height,
                                             rel=1e-12)
    assert e.area_on_gamma == pytest.approx(SQ3 * clip.apothem ** 2, rel=1e-12)


def test_build_refinement_stable():
    for spec in (cones2d.t_plus(), cones2d.y_beta(0.7), cones2d.ybar_beta(1.1),
                 cones2d.w_beta(0.5)):
        base = geom.energy(cones2d.build(spec), 0.37).j_alpha
        fine = geom.energy(cones2d.build(spec, refine=1), 0.37).j_alpha
        finer = geom.energy(cones2d.build(spec, refine=2), 0.37).j_alpha
        assert abs(fine - base) < 1e-12
        assert abs(finer - base) < 1e-12


def test_build_rejects_incompatible_clip():
    with pytest.raises(ValueError):
        cones2d.build(cones2d.t_plus(), cones2d.box_clip())
    with pytest.raises(ValueError):
        cones2d.build(cones2d.y_beta(0.5), cones2d.simplex_clip())


def test_spec_validation():
    with pytest.raises(ValueError):
        cones2d.y_beta(-0.1)
    with pytest.raises(ValueError):
        cones2d.ConeSpec("product")
    with pytest.raises(ValueError):
        cones2d.prism_clip(cones2d.y_beta(0.0))


def test_prism_bases_avoid_plane():
    spec = cones2d.y_beta(0.4)
    clip = cones2d.prism_clip(spec)
    assert clip.half_height * math.sin(0.4) - 2 * clip.apothem * math.cos(0.4) > 0
    with pytest.raises(ValueError):
        cones2d.prism_clip(spec, half_height=0.5)


def test_gamma_rays_y_at_right_angle():
    rays = cones2d.gamma_rays(cones2d.y_beta(math.pi / 2))
    assert np.allclose(rays[1], [-0.5, SQ3 / 2, 0], atol=1e-15)
    assert np.allclose(rays[2], [-0.5, -SQ3 / 2, 0], atol=1e-15)


def test_gamma_rays_w_symmetric():
    rays = cones2d.gamma_rays(cones2d.w_beta(0.5))
    pts = {tuple(np.round(r, 12)) for r in rays}
    flip_x = {tuple(np.round(r * np.array([-1, 1, 1]), 12)) for r in rays}
    flip_y = {tuple(np.round(r * np.array([1, -1, 1]), 12)) for r in rays}
    assert pts == flip_x == flip_y


def test_gamma_rays_half_t_mutual_angles():
    rays = cones2d.gamma_rays(cones2d.t_plus())
    for a, b in itertools.combinations(rays, 2):
        assert float(a @ b) == pytest.approx(-0.5, abs=1e-14)


def test_gamma_rays_rejects_product():
    with pytest.raises(ValueError):
        cones2d.gamma_rays(cones2d.product(cones1d.Cone1D(cones1d.GAMMA)))


def test_fold_normals_match_rotated_plane_normals():
    n2 = np.array([-SQ3 / 2, -0.5, 0.0])
    n3 = np.array([-SQ3 / 2, 0.5, 0.0])
    for beta in np.linspace(0.0, math.pi / 2, 20):
        r = geom.rotate_y(beta)
        m2, m3 = cones2d.fold_normals(cones2d.y_beta(beta))
        assert np.abs(m2 - r.apply(n2)).max() <= 1e-12
        assert np.abs(m3 - r.apply(n3)).max() <= 1e-12


def test_w_mesh_mirror_invariant():
    m = cones2d.build(cones2d.w_beta(0.5))
    v = np.array(sorted(map(tuple, np.round(m.vertices, 12))))
    vm = np.array(sorted(map(tuple, np.round(m.vertices @ geom.R_X.T, 12))))
    assert np.abs(v - vm).max() <= 1e-12


def test_w_tetrahedron_endpoint_normals():
    # at alpha = 1/sqrt(2) the four sloping folds lie on the cone over the
    # skeleton of a regular tetrahedron
    beta = math.asin(1 / SQ3)
    spec = cones2d.w_beta(beta)
    assert cones2d.required_alpha(spec).value == pytest.approx(1 / SQ2, abs=1e-15)
    p = [np.array([math.sqrt(2 / 3), 0, 1 / SQ3]),
         np.array([-math.sqrt(2 / 3), 0, 1 / SQ3]),
         np.array([0, math.sqrt(2 / 3), -1 / SQ3]),
         np.array([0, -math.sqrt(2 / 3), -1 / SQ3])]
    face_normals = [geom.unit(np.cross(a, b))
                    for a, b in itertools.combinations(p, 2)]
    for n in cones2d.fold_normals(spec):
        best = min(min(np.abs(n - f).max(), np.abs(n + f).max())
                   for f in face_normals)
        assert best <= 1e-10


def test_required_alpha():
    req = cones2d.required_alpha(cones2d.y_beta(0.0))
    assert req.value == pytest.approx(SQ3 / 2, abs=1e-15)
    assert req.condition == cones2d.REQ_EQ

    req = cones2d.required_alpha(cones2d.w_beta(math.asin(1 / SQ3)))
    assert req.value == pytest.approx(1 / SQ2, abs=1e-14)


def test_double_y_admissibility_is_the_calibration_norm_bound():
    edge = math.asin(1 / SQ3)
    assert calib.verify_alignment(cones2d.w_beta(edge),
                                  calib.w_beta_calibration(edge)).verdict
    bad = calib.verify_alignment(cones2d.w_beta(0.8), calib.w_beta_calibration(0.8))
    assert not bad.verdict
    assert [r.split(" = ")[0] for r in bad.reasons] == ["|w1-w2|"]


def test_required_alpha_half_t_threshold():
    # the half-T's sloping folds touch the plane only at the origin: their
    # dihedral angle against it sets the threshold alpha >= cos(gamma)
    req = cones2d.required_alpha(cones2d.t_plus())
    assert req.condition == cones2d.REQ_GEQ
    assert req.value == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    normals = cones2d.fold_normals(cones2d.t_plus())
    assert len(normals) == 3
    for n in normals:
        assert float(n @ cones2d.Z) == pytest.approx(req.value, abs=1e-14)


def test_equator_profile_y():
    beta = math.pi / 3
    net = cones2d.hemisphere_trace(cones2d.y_beta(beta))
    good = spherenet.equator_check(net, SQ3 / 2 * math.cos(beta))
    assert good.ok and [e.node for e in good.entries] == [0, 1, 2]
    assert good.entries[0].verdict.cone.variant == cones1d.VERTICAL
    for e in good.entries[1:]:
        assert e.verdict.cone.variant == cones1d.SLOPED_PLUS_HORIZONTAL
        assert math.cos(e.verdict.cone.theta) == pytest.approx(SQ3 / 4, abs=1e-12)
    bad = spherenet.equator_check(net, 0.9)
    assert [e.node for e in bad.entries if not e.ok] == [1, 2]


def test_equator_profile_ybar():
    spec = cones2d.ybar_beta(0.8)
    report = spherenet.equator_check(cones2d.hemisphere_trace(spec),
                                     cones2d.required_alpha(spec).value)
    assert report.ok
    assert report.entries[0].node == 0
    assert report.entries[0].verdict.cone.variant == cones1d.GAMMA_PLUS_VERTICAL


# ---------------------------------------------------------------------------
# products, slicing, the Fubini identity
# ---------------------------------------------------------------------------

ALL_1D = (cones1d.Cone1D(cones1d.GAMMA),
          cones1d.Cone1D(cones1d.VERTICAL),
          cones1d.Cone1D(cones1d.GAMMA_PLUS_VERTICAL),
          cones1d.Cone1D(cones1d.SLOPED_PLUS_HORIZONTAL, theta=math.acos(0.55)),
          cones1d.Cone1D(cones1d.VEE, theta=math.pi / 6))

Y_AXIS = (0.0, 1.0, 0.0)


def test_slice_gamma_plus_vertical():
    # full line in the plane (length 2, weighted) plus a unit vertical
    m = cones2d.build(cones2d.product(ALL_1D[2], 1.0))
    for t in (0.25, 0.5, 0.75):
        for alpha in (0.0, 0.5, 1.0):
            assert cones2d.slice_energy_profile(m, Y_AXIS, t, alpha) == \
                pytest.approx(1.0 + 2.0 * alpha, abs=1e-12)


def test_slice_vee():
    m = cones2d.build(cones2d.product(ALL_1D[4], 1.0))
    assert cones2d.slice_energy_profile(m, Y_AXIS, 0.5, 1.0) == \
        pytest.approx(2.0, abs=1e-12)


def test_slice_sloped_plus_horizontal():
    alpha = 0.55
    m = cones2d.build(cones2d.product(ALL_1D[3], 1.0))
    vals = [cones2d.slice_energy_profile(m, Y_AXIS, t, alpha)
            for t in np.linspace(0.1, 0.9, 7)]
    assert vals[0] == pytest.approx(alpha + 1.0, abs=1e-12)
    assert max(vals) - min(vals) <= 1e-12    # translation invariance


def test_product_energy_is_slice_times_length():
    alpha = 0.55
    m = cones2d.build(cones2d.product(ALL_1D[3], 1.0))
    assert geom.energy(m, alpha).j_alpha == pytest.approx(alpha + 1.0, rel=1e-12)


def test_slice_outside_slab():
    m = cones2d.build(cones2d.product(ALL_1D[0], 1.0))
    with pytest.raises(ValueError):
        cones2d.slice_energy_profile(m, Y_AXIS, 1.5, 0.5)


def test_fubini_flat_products():
    for cone in ALL_1D:
        m = cones2d.build(cones2d.product(cone, 1.0), refine=1)
        integral, direct = cones2d.fubini_check(m, Y_AXIS, 0.4, n_slices=100)
        assert abs(integral - direct) <= 1e-9


def test_fubini_single_slice_exact():
    m = cones2d.build(cones2d.product(ALL_1D[3], 1.0))
    integral, direct = cones2d.fubini_check(m, Y_AXIS, 0.4, n_slices=1)
    assert abs(integral - direct) <= 1e-12


@pytest.mark.parametrize("length", [1e-9, 1e-12])
def test_fubini_short_products_finish(length):
    # the test for a slice through a vertex is relative to the extent along
    # the axis; an absolute 1e-12 nudged every slice 1e-9 of the extent at
    # a time, and at length 1e-9 took 16 s
    m = cones2d.build(cones2d.product(ALL_1D[1], length), refine=3)
    started = time.perf_counter()
    integral, direct = cones2d.fubini_check(m, Y_AXIS, 0.5)
    assert time.perf_counter() - started < 1.0
    assert integral == pytest.approx(direct, rel=1e-9)


def perturbed_product(cone, bump):
    """Displace the off-plane vertices sideways by a smooth bump of the
    product coordinate (transverse to the slicing axis, so slices shorten
    strictly relative to the area); vertices in the plane stay in it."""
    m = cones2d.build(cones2d.product(cone, 1.0), refine=3)
    v = m.vertices.copy()
    off = v[:, 2] > 1e-12
    wave = bump * np.sin(math.pi * v[:, 1]) * v[:, 2]
    v[off, 0] += wave[off]
    return geom.Mesh(v, m.triangles, m.gamma)


def test_fubini_inequality_perturbed():
    for cone, bump in ((ALL_1D[1], 0.15), (ALL_1D[3], 0.1), (ALL_1D[4], 0.12)):
        m = perturbed_product(cone, bump)
        integral, direct = cones2d.fubini_check(m, Y_AXIS, 0.7, n_slices=100)
        assert integral <= direct + 1e-9


W_BETAS = (0.05, math.pi / 4, math.asin(1 / SQ3), 1.2)


def test_partition_closes_and_matches_build():
    # the built mesh's energy at alpha* meets the lower-bound constant, which
    # comes only from the partition's clip and sliding-plane faces (prism
    # and box)
    for spec in (cones2d.y_beta(0.9), *map(cones2d.w_beta, W_BETAS)):
        part = cones2d.region_partition(spec)
        alpha = cones2d.required_alpha(spec).value
        constant, _ = calib.lower_bound_constant(part, calib.calibration_for(spec))
        j_mesh = geom.energy(cones2d.build(spec), alpha).j_alpha
        assert constant == pytest.approx(j_mesh, rel=1e-12), spec


TILTED_GRID = [(f, b) for f in (cones2d.y_beta, cones2d.ybar_beta)
               for b in (1e-6, 1e-4, 1e-3, 0.01, 0.3, 0.8, 1.3, math.pi / 2)] + \
              [(cones2d.w_beta, b) for b in (1e-6, 1e-4, 1e-3, 0.05, 0.3,
                                             math.asin(1 / SQ3), 1.2, math.pi / 2)]


@pytest.mark.parametrize("family, beta", TILTED_GRID,
                         ids=[f"{f.__name__}-{b:.3g}" for f, b in TILTED_GRID])
def test_build_energy_is_partition_cone_energy(family, beta):
    spec = family(beta)
    alpha = cones2d.required_alpha(spec).value
    j_mesh = geom.energy(cones2d.build(spec), alpha).j_alpha
    j_part = cones2d.partition_cone_energy(cones2d.region_partition(spec), alpha)
    assert abs(j_mesh - j_part) <= 4 * math.ulp(j_part)


def _rim_edges(mesh):
    edges = {}
    for tri in mesh.triangles.tolist():
        for a, b in zip(tri, tri[1:] + tri[:1]):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return sum(1 for count in edges.values() if count == 1)


@pytest.mark.parametrize("family", [cones2d.y_beta, cones2d.ybar_beta])
@pytest.mark.parametrize("beta", [1e-6, 1e-4, 1e-3])
def test_small_beta_fold_seams_close(family, beta):
    # the three folds meet the plane sectors along shared edges, so the rim
    # is the clip polygon: 8 vertices and 8 boundary edges, as at beta = 0.5
    m = cones2d.build(family(beta))
    assert m.n_vertices == 8
    assert _rim_edges(m) == 8


@pytest.mark.parametrize("apothem", [1e-3, 1.0, 100.0, 1000.0])
def test_prism_scale_keeps_the_mesh(apothem):
    spec = cones2d.y_beta(0.5)
    clip = cones2d.prism_clip(spec, apothem=apothem)
    m = cones2d.build(spec, clip)
    assert m.n_triangles == 7
    alpha = cones2d.required_alpha(spec).value
    j_part = cones2d.partition_cone_energy(cones2d.region_partition(spec, clip), alpha)
    assert geom.energy(m, alpha).j_alpha == pytest.approx(j_part, rel=1e-12)

@pytest.mark.parametrize("apothem, half_height, bad",
                         [(-1.0, None, -1.0), (0.0, None, 0.0),
                          (math.nan, None, math.nan), (math.inf, None, math.inf),
                          (1.0, math.nan, math.nan), (1.0, math.inf, math.inf)],
                         ids=["negative", "zero", "nan", "inf",
                              "nan-height", "inf-height"])
def test_prism_clip_rejects_bad_sizes(apothem, half_height, bad):
    # the bad size is named, not reported later as a degenerate region
    with pytest.raises(ValueError, match=rf"got {bad}$"):
        cones2d.prism_clip(cones2d.y_beta(0.5), apothem=apothem,
                           half_height=half_height)


def test_w_box_mesh_is_small():
    for beta in (*W_BETAS, 0.3, 0.5):
        m = cones2d.build(cones2d.w_beta(beta))
        assert 0 < m.n_triangles <= 20, beta
        assert m.gamma.any()


def test_w_builds_at_right_angle():
    # at beta = pi/2 both spines are the z axis and the V sector is empty;
    # four vertical folds of width 2/sqrt(3) and the two 60-degree plane
    # sectors remain
    m = cones2d.build(cones2d.w_beta(math.pi / 2))
    e = geom.energy(m, 0.0)
    assert e.area_off_gamma == pytest.approx(8.0 / SQ3, rel=1e-12)
    assert e.area_on_gamma == pytest.approx(2.0 / SQ3, rel=1e-12)


def test_box_clip_scales_energy():
    # slivers are cut relative to their own size: no triangle of the
    # unit-box mesh is lost at any box scale, and J scales as s^2
    spec = cones2d.w_beta(0.5)
    unit = cones2d.build(spec)
    j1 = geom.energy(unit, 0.4).j_alpha
    for s in (1e-6, 1e-3, 3.0, 1e3):
        m = cones2d.build(spec, cones2d.box_clip(s))
        assert m.n_triangles == unit.n_triangles == 13, s
        assert geom.energy(m, 0.4).j_alpha / s ** 2 == pytest.approx(j1, rel=1e-15), s
    with pytest.raises(ValueError):
        cones2d.box_clip(0.0)


def test_spines():
    assert len(cones2d.spines(cones2d.t_plus())) == 3
    sp = cones2d.spines(cones2d.y_beta(0.7))[0]
    assert np.allclose(sp, [math.cos(0.7), 0, math.sin(0.7)], atol=1e-15)
    s1, s2 = cones2d.spines(cones2d.w_beta(0.5))
    assert np.allclose(s2, geom.R_X @ s1, atol=1e-15)
