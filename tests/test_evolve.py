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


def _rim_pin_oracle(mesh):
    """Edge-count dict loop: pin both ends of every boundary edge that is
    not inside the sliding plane."""
    edge_count = {}
    for a, b, c in mesh.triangles:
        for i, j in ((a, b), (b, c), (c, a)):
            key = (min(i, j), max(i, j))
            edge_count[key] = edge_count.get(key, 0) + 1
    pin = np.zeros(mesh.n_vertices, dtype=bool)
    z = mesh.vertices[:, 2]
    for (i, j), count in edge_count.items():
        if count == 1 and not (abs(z[i]) <= 1e-12 and abs(z[j]) <= 1e-12):
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
