"""Build the four sliding minimal cone families and evaluate their
weighted areas.

The energy of a surface in the closed upper half-space is its area off the
bounding plane plus alpha times the area inside it.  Each cone family is
minimal at the weight printed next to it; the half-T is special in being
minimal for a whole range alpha >= sqrt(2/3) and having the same energy
(4/3) sqrt(2) for every weight, because it meets the plane in measure zero.
"""

import math

from slidecal import calib, cones2d, geom

print("half-T in its canonical truncation")
mesh = cones2d.build(cones2d.t_plus())
for alpha in (0.0, 0.5, math.sqrt(2 / 3), 1.0):
    e = geom.energy(mesh, alpha)
    print(f"  alpha = {alpha:.6f}:  J = {e.j_alpha:.15f}"
          f"  (off = {e.area_off_gamma:.6f}, on = {e.area_on_gamma:.6f})")
print(f"  closed form (4/3) sqrt(2) = {4 * math.sqrt(2) / 3:.15f}")
print()

for make, label in ((cones2d.y_beta, "tilted Y"),
                    (cones2d.ybar_beta, "mirrored tilted Y"),
                    (cones2d.w_beta, "double Y")):
    print(label)
    for beta in (0.3, 0.6):
        spec = make(beta)
        req = cones2d.required_alpha(spec)
        mesh = cones2d.build(spec)
        e = geom.energy(mesh, req.value)
        verdict = calib.verify_alignment(spec, calib.calibration_for(spec)).verdict
        print(f"  beta = {beta}:  minimal at alpha = {req.value:.6f}, "
              f"calibration {'pass' if verdict else 'fail'}; "
              f"J = {e.j_alpha:.6f} in the default clip "
              f"({mesh.n_triangles} triangles)")
    print()

print("boundary rays and spines of the double Y at beta = 0.5")
spec = cones2d.w_beta(0.5)
for ray in cones2d.gamma_rays(spec):
    print(f"  ray    ({ray[0]:+.6f}, {ray[1]:+.6f}, {ray[2]:+.6f})")
for sp in cones2d.spines(spec):
    print(f"  spine  ({sp[0]:+.6f}, {sp[1]:+.6f}, {sp[2]:+.6f})")

print()
print("every fold is planar, so refinement never changes the energy:")
spec = cones2d.y_beta(0.8)
for refine in (0, 1, 2, 3):
    m = cones2d.build(spec, refine=refine)
    print(f"  refine = {refine}: {m.n_triangles:5d} triangles, "
          f"J = {geom.energy(m, 0.5).j_alpha:.15f}")
