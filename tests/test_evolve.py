import math

import numpy as np
import pytest

from slidecal import cones2d, evolve, geom

SQ2 = math.sqrt(2.0)
J_CONE = 4.0 * SQ2 / 3.0


def flat_square():
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                  [0.5, 0.5, 0]], dtype=float)
    t = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return geom.Mesh(v, t, np.ones(4, dtype=bool))


def nucleated_half_t(refine=3, alpha=0.6, seed=42):
    ring = (1.0 / 3.0) / 2 ** refine
    mesh = cones2d.build(cones2d.t_plus(), refine=refine)
    mesh = evolve.seed_contact(mesh, ring * 1.01)
    mesh = evolve.jitter(mesh, 1e-3, seed=seed)
    return mesh, evolve.EvolveConfig(alpha=alpha, max_iters=20000)


def test_flat_square_already_minimal():
    m = flat_square()
    pin = np.array([True, True, True, True, False])
    for alpha in (0.1, 0.5, 1.0):
        trace = evolve.descend(m, evolve.EvolveConfig(alpha=alpha, pin=pin,
                                                      max_iters=100))
        assert trace.converged
        assert trace.energies[-1] == pytest.approx(alpha, rel=1e-12)
        assert len(trace.energies) <= 2


def test_rim_pin_mask_half_t():
    m = cones2d.build(cones2d.t_plus(), refine=2)
    pin = evolve.rim_pin_mask(m)
    v = m.vertices
    radius = np.linalg.norm(v[:, :2], axis=1)
    on_top = np.abs(v[:, 2] - 1 / 3) <= 1e-12
    on_outer = np.abs(radius - 2 * SQ2 / 3) <= 1e-12
    assert np.array_equal(pin, on_top | on_outer)
    # bottom edges of the vertical folds stay slidable
    bottom = (np.abs(v[:, 2]) <= 1e-12) & ~on_outer
    assert not pin[bottom].any()


def _rim_pin_oracle(mesh, gamma_rim=True):
    """Edge-count dict loop: pin both ends of every boundary edge that is
    not inside the sliding plane or (with ``gamma_rim``) that belongs to an
    on-Gamma triangle.  ``gamma_rim=False`` is the older rule, which leaves
    the clip-wall rim of the plane sectors sliding."""
    edge_tris = {}
    for k, (a, b, c) in enumerate(mesh.triangles):
        for i, j in ((a, b), (b, c), (c, a)):
            edge_tris.setdefault((min(i, j), max(i, j)), []).append(k)
    pin = np.zeros(mesh.n_vertices, dtype=bool)
    z = mesh.vertices[:, 2]
    for (i, j), tris in edge_tris.items():
        in_plane = abs(z[i]) <= 1e-12 and abs(z[j]) <= 1e-12
        if len(tris) == 1 and (not in_plane or
                               (gamma_rim and mesh.gamma[tris[0]])):
            pin[i] = pin[j] = True
    return pin


@pytest.mark.parametrize("spec, refine", [
    (cones2d.t_plus(), 3),
    (cones2d.y_beta(0.5), 2),
    (cones2d.ybar_beta(0.5), 2),
    (cones2d.w_beta(0.5), 1),
], ids=["t_plus-r3", "y_beta-r2", "ybar_beta-r2", "w_beta-r1"])
def test_rim_pin_mask_matches_edge_count_oracle(spec, refine):
    m = cones2d.build(spec, refine=refine)
    pin = evolve.rim_pin_mask(m)
    assert pin.any()
    assert np.array_equal(pin, _rim_pin_oracle(m))


def _projected_gradient_max(mesh, alpha, pinned):
    """Largest |grad J| over the vertices after the projection descent
    applies: zero on pinned vertices, in-plane on sliding ones."""
    P, T = mesh.vertices.T.copy(), np.ascontiguousarray(mesh.triangles.T)
    weights = np.where(mesh.gamma, alpha, 1.0)
    geo, _ = evolve._eval(P, T, weights)
    sliding = np.abs(P[2]) <= evolve.SLIDE_Z_TOL
    grad = evolve._project(
        evolve._gradient(geo, T, weights, mesh.n_vertices), pinned, sliding)
    return float(evolve._norm(grad).max())


TILTED = [cones2d.y_beta(0.5), cones2d.y_beta(1.3), cones2d.ybar_beta(0.5),
          cones2d.w_beta(0.3), cones2d.w_beta(0.5)]


@pytest.mark.parametrize("spec", TILTED,
                         ids=[f"{s.variant}-{s.beta}" for s in TILTED])
def test_tilted_cones_are_critical_at_required_alpha(spec):
    # the calibrated cone is a critical point of the discrete problem under
    # the default pins; with the clip-wall rim of the plane sectors left
    # sliding (the older rule) it is not
    alpha = cones2d.required_alpha(spec).value
    for refine in range(4):
        m = cones2d.build(spec, refine=refine)
        assert _projected_gradient_max(m, alpha, evolve.rim_pin_mask(m)) <= 1e-13
    m = cones2d.build(spec, refine=1)
    assert _projected_gradient_max(
        m, alpha, _rim_pin_oracle(m, gamma_rim=False)) > 0.1


def test_descent_does_not_beat_calibrated_y_cone():
    spec = cones2d.y_beta(0.5)
    alpha = cones2d.required_alpha(spec).value
    cone = cones2d.build(spec, refine=2)
    j_cone = geom.energy(cone, alpha).j_alpha
    trace = evolve.descend(evolve.jitter(cone, 1e-3, seed=3),
                           evolve.EvolveConfig(alpha=alpha))
    assert trace.converged
    assert j_cone - 1e-12 <= trace.energies[-1] <= j_cone + 1e-6
    # negative control: with the older pins the clip-wall vertices slide
    # and descent drags the weighted sector away
    old = _rim_pin_oracle(cone, gamma_rim=False)
    trace = evolve.descend(evolve.jitter(cone, 1e-3, seed=3, pin=old),
                           evolve.EvolveConfig(alpha=alpha, pin=old))
    assert trace.energies[-1] < j_cone - 1.0


def test_gradient_check_smooth_mesh():
    m = cones2d.build(cones2d.t_plus(), refine=3)
    m = evolve.jitter(m, 1e-3, seed=7)
    assert evolve.gradient_check(m, 0.6, h=1e-5) <= 1e-5


def test_gradient_check_catches_unprojected_pin(monkeypatch):
    m = evolve.jitter(cones2d.build(cones2d.t_plus(), refine=2), 1e-3, seed=7)
    pinned_vertex = np.flatnonzero(evolve.rim_pin_mask(m))[0]
    project = evolve._project

    def leaky(grad, pinned, sliding):
        grad = project(grad, pinned, sliding)
        grad[:, pinned_vertex] = 1.0
        return grad

    monkeypatch.setattr(evolve, "_project", leaky)
    with pytest.raises(AssertionError, match="pinned"):
        evolve.gradient_check(m, 0.6)


def test_gradient_check_h_domain():
    m = cones2d.build(cones2d.t_plus(), refine=1)
    with pytest.raises(ValueError):
        evolve.gradient_check(m, 0.5, h=1e-2)


def test_jitter_deterministic_and_constrained():
    m = cones2d.build(cones2d.t_plus(), refine=2)
    a = evolve.jitter(m, 1e-3, seed=5)
    b = evolve.jitter(m, 1e-3, seed=5)
    assert np.array_equal(a.vertices, b.vertices)
    pin = evolve.rim_pin_mask(m)
    assert np.array_equal(a.vertices[pin], m.vertices[pin])
    sliding = np.abs(m.vertices[:, 2]) <= 1e-12
    assert np.abs(a.vertices[sliding, 2]).max() == 0.0
    assert a.vertices[:, 2].min() >= 0.0


def test_descend_requires_pin():
    m = flat_square()
    with pytest.raises(ValueError):
        evolve.descend(m, evolve.EvolveConfig(alpha=0.5,
                                              pin=np.zeros(5, dtype=bool)))


@pytest.mark.parametrize("setting, value", [
    ("step", math.nan), ("step", 0.0), ("step", -0.05), ("step", math.inf),
    ("max_iters", -1), ("tol", math.nan), ("tol", -1e-3), ("tol", math.inf),
])
def test_config_rejects_bad_settings(setting, value):
    with pytest.raises(ValueError, match=f"{setting} .*got {value}"):
        evolve.EvolveConfig(alpha=0.5, **{setting: value})


def test_descend_trace_monotone_and_constrained():
    mesh, cfg = nucleated_half_t(refine=3)
    trace = evolve.descend(mesh, cfg)
    assert all(b <= a for a, b in zip(trace.energies, trace.energies[1:]))
    assert trace.mesh.vertices[:, 2].min() >= -1e-12
    flagged = trace.mesh.triangles[trace.mesh.gamma]
    if len(flagged):
        assert np.abs(trace.mesh.vertices[flagged.ravel(), 2]).max() <= 1e-9


def test_descend_pinned_bit_identical():
    mesh, cfg = nucleated_half_t(refine=3)
    pin = evolve.rim_pin_mask(mesh)
    trace = evolve.descend(mesh, cfg)
    assert np.array_equal(trace.mesh.vertices[pin], mesh.vertices[pin])


def test_descend_deterministic():
    mesh, cfg = nucleated_half_t(refine=3)
    t1 = evolve.descend(mesh, cfg)
    t2 = evolve.descend(mesh, cfg)
    assert t1.energies == t2.energies


def test_descend_golden_half_t():
    # recorded before the descent kernel moved to the (3, n) column layout;
    # any change to the kernel's floating-point operations shows here
    mesh, cfg = nucleated_half_t(refine=3, alpha=0.6, seed=42)
    trace = evolve.descend(mesh, cfg)
    assert trace.converged
    assert trace.iterations == 974
    assert trace.energies[-1] == 1.8805470592497302
    assert trace.gamma_contact_area == 0.06921690853887162


def test_descend_below_threshold_beats_cone():
    mesh, cfg = nucleated_half_t(refine=3, alpha=0.6)
    trace = evolve.descend(mesh, cfg)
    assert trace.energies[-1] < J_CONE - 1e-4
    assert trace.gamma_contact_area > 0


def test_descend_above_threshold_stays_at_cone():
    m = cones2d.build(cones2d.t_plus(), refine=3)
    m = evolve.jitter(m, 1e-3, seed=42)
    trace = evolve.descend(m, evolve.EvolveConfig(alpha=0.95, max_iters=20000))
    assert trace.energies[-1] >= J_CONE - 1e-6


def test_seed_contact_flags_floor_triangles():
    m = cones2d.build(cones2d.t_plus(), refine=3)
    seeded = evolve.seed_contact(m, (1.0 / 3.0) / 8 * 1.01)
    assert seeded.gamma.sum() > 0
    flagged = seeded.triangles[seeded.gamma]
    assert np.abs(seeded.vertices[flagged.ravel(), 2]).max() == 0.0
    # pressing is one-way: the seeded mesh has no vertices below the plane
    assert seeded.vertices[:, 2].min() >= 0.0
