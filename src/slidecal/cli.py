"""Command-line front end.

Thin adapters over the library: no numerics live here.  Subcommands:

  build       construct a cone mesh and write it as OFF (+ flag sidecar)
  energy      weighted area of a mesh at a given alpha
  calibrate   build and verify the paired calibration of a cone
  compete     search the pinched competitor family at a given alpha
  evolve      gradient descent on a mesh under the sliding constraint
  net         junction/equator checks of a spherical network
  classify1d  classify a one-dimensional cone given by its ray angles
  fubini      slice-integral versus direct energy of a mesh

Exit codes: 0 success, 1 usage or I/O error (malformed input included,
with one ``error:`` line), 2 verification failure.  All numbers print with
17 significant digits, so parsing them back yields the library values bit
for bit.  Each ``_cmd_*`` returns its exit code and its outputs; ``main``
times it and writes the ``--report`` file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, calib, compete, cones1d, cones2d, evolve, geom, spherenet


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cone_spec(args) -> cones2d.ConeSpec:
    name = args.cone.replace("-", "_")
    if name == "t_plus":
        return cones2d.t_plus()
    if name == "product":
        variant = args.variant1d.replace("-", "_")
        cone1d = cones1d.Cone1D(variant, args.theta) \
            if variant in (cones1d.SLOPED_PLUS_HORIZONTAL, cones1d.VEE) \
            else cones1d.Cone1D(variant)
        return cones2d.product(cone1d, args.length)
    if args.beta is None:
        raise ValueError("--beta required for tilted cones")
    return cones2d.ConeSpec(name, beta=args.beta)


def _clip_for(args, spec) -> cones2d.ClipRegion:
    if args.clip is None:
        return cones2d.default_clip(spec)
    if args.clip == "simplex":
        return cones2d.simplex_clip()
    if args.clip == "prism":
        return cones2d.prism_clip(spec, apothem=args.apothem,
                                  half_height=args.half_height)
    if args.clip == "box":
        return cones2d.box_clip(apothem=args.apothem)
    return cones2d.slab_clip()


# ---------------------------------------------------------------------------


def _cmd_build(args) -> tuple[int, dict]:
    spec = _cone_spec(args)
    mesh = cones2d.build(spec, _clip_for(args, spec), refine=args.refine)
    sidecar = geom.write_off(mesh, args.out)
    e = geom.energy(mesh, 1.0)
    print(f"wrote {args.out} ({mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles) + {sidecar}")
    print(f"area_off_gamma = {_fmt(e.area_off_gamma)}")
    print(f"area_on_gamma  = {_fmt(e.area_on_gamma)}")
    return 0, {"out": str(args.out),
               "area_off_gamma": e.area_off_gamma,
               "area_on_gamma": e.area_on_gamma}


def _cmd_energy(args) -> tuple[int, dict]:
    mesh = geom.read_off(args.mesh)
    e = geom.energy(mesh, args.alpha)
    print(f"area_off_gamma = {_fmt(e.area_off_gamma)}")
    print(f"area_on_gamma  = {_fmt(e.area_on_gamma)}")
    print(f"j_alpha        = {_fmt(e.j_alpha)}")
    return 0, {"area_off_gamma": e.area_off_gamma,
               "area_on_gamma": e.area_on_gamma,
               "j_alpha": e.j_alpha}


def _cmd_calibrate(args) -> tuple[int, dict]:
    spec = _cone_spec(args)
    cal = calib.calibration_for(spec)
    report = calib.verify_alignment(spec, cal)
    out = {
        "cone": args.cone,
        "beta": args.beta,
        "pairwise_norms": report.pairwise_norms.tolist(),
        "alignment_defects": report.alignment_defects,
        "boundary_coeffs": report.boundary_coeffs,
        "required_alpha": report.required_alpha,
        "structural_pairs": [list(p) for p in report.structural_pairs],
        "vacuous_pairs": [list(p) for p in report.vacuous_pairs],
        "verdict": "pass" if report.verdict else "fail",
        "reasons": list(report.reasons),
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
    print(f"calibration {cal.name}: {'pass' if report.verdict else 'fail'}")
    for reason in report.reasons:
        print(f"  {reason}")
    print(f"required alpha = {_fmt(report.required_alpha)}")
    return 0 if report.verdict else 2, out


def _cmd_compete(args) -> tuple[int, dict]:
    if args.x0 is not None:
        report = compete.competitor_energy(args.x0, args.alpha)
        print(f"x0 = {_fmt(report.x0)}  c = {_fmt(report.c)}")
        print(f"j_quadrature = {_fmt(report.j_competitor_quadrature)}")
        print(f"j_bound      = {_fmt(report.j_competitor_bound)}")
        print(f"j_cone       = {_fmt(report.j_cone)}")
        print(f"gap_bound    = {_fmt(report.gap_bound)}")
        return 0, {"gap_bound": report.gap_bound,
                   "j_quadrature": report.j_competitor_quadrature}
    if args.csv:
        if args.sweep_points < 1:
            raise ValueError(f"sweep needs at least one point, got {args.sweep_points}")
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "c", "area_B", "area_V", "j_quad",
                             "j_bound", "gap_bound"])
            for x0 in np.logspace(-4, math.log10(0.4), args.sweep_points):
                areas = compete.fold_areas(x0)
                rep = compete.competitor_energy(x0, args.alpha)
                writer.writerow([_fmt(x0), _fmt(rep.c), _fmt(areas.area_B),
                                 _fmt(areas.area_V),
                                 _fmt(rep.j_competitor_quadrature),
                                 _fmt(rep.j_competitor_bound),
                                 _fmt(rep.gap_bound)])
        print(f"wrote {args.csv}")
    found = compete.find_better_competitor(args.alpha)
    if found is None:
        print(f"no better competitor at alpha = {_fmt(args.alpha)} "
              f"(threshold {_fmt(compete.ALPHA_THRESHOLD)})")
        return 0, {"better": None}
    print(f"better competitor at alpha = {_fmt(args.alpha)}: "
          f"x0 = {_fmt(found.x0)} (log10 {_fmt(found.log10_x0)}), "
          f"certified by {found.certified_by}")
    if found.report is not None:
        print(f"j_quadrature = {_fmt(found.report.j_competitor_quadrature)}"
              f" < j_cone = {_fmt(found.report.j_cone)}")
    return 0, {"better": {"x0": found.x0,
                          "log10_x0": found.log10_x0,
                          "certified_by": found.certified_by}}


def _cmd_evolve(args) -> tuple[int, dict]:
    mesh = geom.read_off(getattr(args, "in"))
    if args.seed_contact > 0.0:
        mesh = evolve.seed_contact(mesh, args.seed_contact)
    if args.jitter > 0.0:
        mesh = evolve.jitter(mesh, args.jitter, args.seed)
    cfg = evolve.EvolveConfig(alpha=args.alpha, step=args.step,
                              max_iters=args.iters, tol=args.tol)
    trace = evolve.descend(mesh, cfg)
    final = geom.energy(trace.mesh, args.alpha).j_alpha
    if args.out:
        geom.write_off(trace.mesh, args.out)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "j_alpha"])
            for k, e in enumerate(trace.energies):
                writer.writerow([k, _fmt(e)])
    print(f"iterations = {trace.iterations}  converged = {trace.converged}")
    print(f"final j_alpha = {_fmt(final)}")
    print(f"gamma_contact_area = {_fmt(trace.gamma_contact_area)}")
    return 0, {"final_j": final,
               "gamma_contact_area": trace.gamma_contact_area,
               "converged": trace.converged}


def _cmd_net(args) -> tuple[int, dict]:
    with open(getattr(args, "in")) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not {"nodes", "arcs"} <= data.keys():
        raise ValueError(f"{getattr(args, 'in')}: needs 'nodes' and 'arcs'")
    net = spherenet.HemisphereNet(data["nodes"], data["arcs"])
    junction = spherenet.junction_check(net)
    equator = spherenet.equator_check(net, args.alpha)
    ok = junction.ok and equator.ok
    print(f"junctions: {'pass' if junction.ok else 'fail'}")
    for e in junction.entries:
        if not e.ok:
            print(f"  node {e.node}: {e.reason}")
    print(f"equator:   {'pass' if equator.ok else 'fail'}")
    for e in equator.entries:
        if not e.ok:
            print(f"  node {e.node}: {e.reason}")
    return 0 if ok else 2, {"junction_ok": junction.ok, "equator_ok": equator.ok}


def _cmd_classify1d(args) -> tuple[int, dict]:
    with open(getattr(args, "in")) as fh:
        rays = json.load(fh)
    cone = cones1d.BranchCone(rays)
    verdict = cones1d.classify_branches(cone, args.alpha)
    out = {"minimal": verdict.minimal}
    if verdict.minimal:
        out["variant"] = verdict.cone.variant
        if verdict.cone.theta is not None:
            out["theta"] = verdict.cone.theta
    else:
        out["witness"] = verdict.witness
    print(json.dumps(out))
    return 0, out


def _cmd_fubini(args) -> tuple[int, dict]:
    mesh = geom.read_off(getattr(args, "in"))
    axis = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[args.axis]
    integral, direct = cones2d.fubini_check(mesh, axis, args.alpha,
                                            n_slices=args.slices)
    print(f"slice integral = {_fmt(integral)}")
    print(f"direct energy  = {_fmt(direct)}")
    print(f"difference     = {_fmt(integral - direct)}")
    ok = integral <= direct + 1e-9
    return 0 if ok else 2, {"integral": integral, "direct": direct}


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="slidecal",
                     description="sliding-boundary minimal cone toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cone_args(p):
        p.add_argument("--cone", required=True,
                       choices=["t-plus", "y-beta", "ybar-beta", "w-beta",
                                "product"])
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--variant1d", default="gamma_plus_vertical")
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--length", type=float, default=1.0)

    p = sub.add_parser("build", help="construct a cone mesh")
    add_cone_args(p)
    p.add_argument("--clip", choices=["simplex", "prism", "box", "slab"],
                   default=None)
    p.add_argument("--apothem", type=float, default=1.0)
    p.add_argument("--half-height", dest="half_height", type=float, default=None)
    p.add_argument("--refine", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("energy", help="weighted area of a mesh")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("calibrate", help="verify a cone's calibration")
    add_cone_args(p)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compete", help="pinched competitor search")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--sweep-points", dest="sweep_points", type=int, default=40)
    p.set_defaults(func=_cmd_compete)

    p = sub.add_parser("evolve", help="sliding gradient descent")
    p.add_argument("--in", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed-contact", dest="seed_contact", type=float, default=0.0,
                   help="press vertices below this height onto the plane first")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("net", help="spherical network checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--in", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("classify1d", help="classify a 1D cone")
    p.add_argument("--in", required=True, help="JSON file with the ray angles")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_classify1d)

    p = sub.add_parser("fubini", help="slice integral vs direct energy")
    p.add_argument("--in", required=True)
    p.add_argument("--axis", choices=["x", "y", "z"], required=True)
    p.add_argument("--slices", type=int, default=100)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=_cmd_fubini)

    # added last, so usage and help list it where they always did
    for p in sub.choices.values():
        p.add_argument("--report", default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        code, outputs = args.func(args)
        wall_time_s = time.perf_counter() - t0
        if args.report:
            source = getattr(args, "in", None) or getattr(args, "mesh", None)
            digest = hashlib.sha256()
            if source is not None:
                with open(source, "rb") as fh:
                    digest.update(fh.read())
            report = {"command": " ".join(argv),
                      "inputs_digest": digest.hexdigest()[:16],
                      "outputs": outputs,
                      "version": __version__,
                      "wall_time_s": wall_time_s}
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=2)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
