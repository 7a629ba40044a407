import hashlib
import json
import math
import re
import subprocess
import sys

import pytest

from slidecal import __version__, cli, cones2d, geom

J_CONE = 4.0 * math.sqrt(2.0) / 3.0


def run_module(*args):
    """Run ``python -m slidecal.cli``: the real entry point and exit code."""
    proc = subprocess.run([sys.executable, "-m", "slidecal.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def run_cli(capsys):
    """Run ``cli.main`` in-process; usage errors arrive as SystemExit."""
    def run(*args):
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err
    return run


def grab(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key):
            return float(line.split("=")[1])
    raise AssertionError(f"{key!r} not in output:\n{stdout}")


@pytest.fixture(scope="module")
def t_plus_off(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "t_plus.off"
    assert cli.main(["build", "--cone", "t-plus", "--out", str(path)]) == 0
    return path


def test_energy_half_t(t_plus_off):
    code, out, _ = run_module("energy", "--alpha", "0.8164965809277260",
                              str(t_plus_off))
    assert code == 0
    j = grab(out, "j_alpha")
    # printed with 17 significant digits: parses back bit-for-bit
    mesh = geom.read_off(t_plus_off)
    assert j == geom.energy(mesh, 0.8164965809277260).j_alpha
    assert j == pytest.approx(J_CONE, abs=1e-9)


def test_calibrate_w_beta_inadmissible():
    # sin(0.9) > 1/sqrt(3): verification failure
    code, out, _ = run_module("calibrate", "--cone", "w-beta", "--beta", "0.9")
    assert code == 2
    assert "fail" in out


def test_calibrate_w_beta_admissible(tmp_path, run_cli):
    report = tmp_path / "report.json"
    code, out, _ = run_cli("calibrate", "--cone", "w-beta", "--beta", "0.5",
                           "--json", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["verdict"] == "pass"
    assert set(data) >= {"pairwise_norms", "alignment_defects",
                         "boundary_coeffs", "verdict"}


def test_compete_above_threshold(run_cli):
    code, out, _ = run_cli("compete", "--alpha", "0.9")
    assert code == 0
    assert "no better competitor" in out


def test_compete_below_threshold_with_csv(tmp_path, run_cli):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli("compete", "--alpha", "0.5", "--csv", str(csv_path),
                           "--sweep-points", "5")
    assert code == 0
    assert "better competitor" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",") == ["x0", "c", "area_B", "area_V", "j_quad",
                                  "j_bound", "gap_bound"]
    assert len(rows) == 6


def test_classify1d(tmp_path, run_cli):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps([0.0, math.pi / 2, math.pi]))
    code, out, _ = run_cli("classify1d", "--in", str(rays), "--alpha", "0.5")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"minimal": True, "variant": "gamma_plus_vertical"}

    rays.write_text(json.dumps([0.0, 0.4, 2.8, math.pi]))
    code, out, _ = run_cli("classify1d", "--in", str(rays), "--alpha", "0.5")
    assert json.loads(out) == {"minimal": False, "witness": "project_to_gamma"}


def test_fubini(tmp_path, run_cli):
    mesh_path = tmp_path / "prod.off"
    code, _, err = run_cli("build", "--cone", "product", "--variant1d",
                           "vee", "--theta", str(math.pi / 6),
                           "--out", str(mesh_path))
    assert code == 0, err
    code, out, _ = run_cli("fubini", "--in", str(mesh_path), "--axis", "y",
                           "--slices", "100", "--alpha", "1.0")
    assert code == 0
    assert abs(grab(out, "difference")) <= 1e-9


def test_net_check(tmp_path, run_cli):
    spec = cones2d.y_beta(0.7)
    net = cones2d.hemisphere_trace(spec)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": net.nodes.tolist(),
                                "arcs": [list(a) for a in net.arcs]}))
    alpha = cones2d.required_alpha(spec).value
    code, out, _ = run_cli("net", "check", "--in", str(path),
                           "--alpha", f"{alpha:.17g}")
    assert code == 0
    code, out, _ = run_cli("net", "check", "--in", str(path), "--alpha", "0.95")
    assert code == 2


def test_evolve(tmp_path, t_plus_off, run_cli):
    out_path = tmp_path / "final.off"
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli("evolve", "--in", str(t_plus_off),
                             "--alpha", "0.95", "--iters", "200",
                             "--seed", "42", "--jitter", "1e-3",
                             "--out", str(out_path), "--trace", str(trace_path))
    assert code == 0, err
    energies = [float(r.split(",")[1]) for r in
                trace_path.read_text().splitlines()[1:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    final = geom.read_off(out_path)
    assert final.vertices[:, 2].min() >= -1e-12


def test_report_round_trips(tmp_path, t_plus_off, run_cli):
    report = tmp_path / "run.json"
    code, out, _ = run_cli("energy", "--alpha", "0.25", str(t_plus_off),
                           "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    mesh = geom.read_off(t_plus_off)
    assert data["outputs"]["j_alpha"] == geom.energy(mesh, 0.25).j_alpha
    assert data["version"]


def test_usage_errors_exit_one(run_cli):
    code, _, err = run_module("energy", "--alpha", "0.5", "--bogus-flag", "x.off")
    assert code == 1
    code, _, err = run_cli("energy", "--alpha", "0.5", "/nonexistent/mesh.off")
    assert code == 1


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, slidecal.cli; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("sidecar", ['{"gamma": []}\n',
                                     '{"gamma_triangles": [0, 6]}\n',
                                     '{"gamma_triangles": [-1]}\n'],
                         ids=["missing-key", "index-past-end", "negative-index"])
def test_damaged_sidecar_exits_one_with_one_line(tmp_path, capsys, t_plus_off,
                                                 sidecar):
    path = tmp_path / "m.off"
    path.write_text(t_plus_off.read_text())        # 6 triangles
    (tmp_path / "m.off.json").write_text(sidecar)
    assert cli.main(["energy", "--alpha", "0.5", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_evolve_prints_energy_of_written_mesh(tmp_path, capsys):
    spec = cones2d.y_beta(0.5)
    mesh_path, out_path = tmp_path / "y.off", tmp_path / "final.off"
    geom.write_off(cones2d.build(spec, refine=1), mesh_path)
    alpha = f"{cones2d.required_alpha(spec).value:.17g}"
    assert cli.main(["evolve", "--in", str(mesh_path), "--alpha", alpha,
                     "--jitter", "1e-3", "--seed", "3",
                     "--out", str(out_path)]) == 0
    evolved = capsys.readouterr().out
    assert cli.main(["energy", "--alpha", alpha, str(out_path)]) == 0
    energy = capsys.readouterr().out
    final = next(line for line in evolved.splitlines()
                 if line.startswith("final j_alpha"))
    printed = next(line for line in energy.splitlines()
                   if line.startswith("j_alpha"))
    assert final.split("=")[1].strip() == printed.split("=")[1].strip()


@pytest.mark.parametrize("keep", [1, 2, 5, -1],
                         ids=["magic-only", "header-only", "vertices-cut",
                              "faces-cut"])
def test_truncated_off_exits_one_with_one_line(tmp_path, capsys, t_plus_off,
                                               keep):
    path = tmp_path / "m.off"
    lines = t_plus_off.read_text().splitlines()[:keep]
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["energy", "--alpha", "0.5", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("data", [{"nodes": [[1.0, 0.0, 0.0]]}, {"arcs": []},
                                  [[1.0, 0.0, 0.0]],
                                  {"nodes": [[1.0, 0.0, 0.0]], "arcs": [1]},
                                  {"nodes": [[1.0, 0.0]], "arcs": []},
                                  {"nodes": [[None, 0.0, 1.0]], "arcs": []},
                                  {"nodes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                   "arcs": [[0.5, 1]]}],
                         ids=["no-arcs", "no-nodes", "not-an-object",
                              "arc-not-a-pair", "node-not-3d",
                              "null-coordinate", "fractional-index"])
def test_damaged_net_exits_one_with_one_line(tmp_path, capsys, data):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert cli.main(["net", "check", "--in", str(path), "--alpha", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_report_records_the_command_it_was_given(tmp_path, capsys, t_plus_off):
    report = tmp_path / "run.json"
    argv = ["energy", "--alpha", "0.25", str(t_plus_off), "--report", str(report)]
    assert cli.main(argv) == 0
    assert json.loads(report.read_text())["command"] == " ".join(argv)


@pytest.mark.parametrize("argv, message", [
    (["classify1d", "--in", "{rays}", "--alpha", "0.5"], "sequence of angles"),
    (["fubini", "--in", "{mesh}", "--axis", "y", "--slices", "0"], "got 0"),
    (["build", "--cone", "y-beta", "--beta", "0.5", "--clip", "prism",
      "--apothem", "-1", "--out", "{out}"], "got -1.0"),
    (["evolve", "--in", "{mesh}", "--alpha", "0.9", "--step", "nan"], "got nan"),
    (["evolve", "--in", "{mesh}", "--alpha", "0.9", "--step", "0"], "got 0.0"),
    (["evolve", "--in", "{mesh}", "--alpha", "0.9", "--step", "-0.05"],
     "got -0.05"),
    (["evolve", "--in", "{mesh}", "--alpha", "0.9", "--iters", "-1"], "got -1"),
    (["evolve", "--in", "{mesh}", "--alpha", "0.9", "--tol", "nan"], "got nan"),
    (["compete", "--alpha", "0.5", "--csv", "{csv}", "--sweep-points", "0"],
     "at least one point, got 0"),
    (["compete", "--alpha", "0.5", "--csv", "{csv}", "--sweep-points", "-3"],
     "at least one point, got -3"),
    (["energy", "--alpha", "0.5", "{huge_face}"],
     "huge.off: face index does not fit in 64 bits"),
    (["energy", "--alpha", "0.5", "{huge_gamma}"],
     "gamma.off.json: gamma triangle index is not an int64"),
], ids=["rays-not-a-list", "zero-slices", "negative-prism-apothem",
        "nan-step", "zero-step", "negative-step", "negative-iters", "nan-tol",
        "zero-sweep-points", "negative-sweep-points", "face-index-overflow",
        "gamma-index-overflow"])
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, t_plus_off,
                                           argv, message):
    rays = tmp_path / "rays.json"
    rays.write_text("5")
    lines = t_plus_off.read_text().splitlines()
    huge_face = tmp_path / "huge.off"
    huge_face.write_text("\n".join(lines[:-1] + ["3 0 1 99999999999999999999"]) + "\n")
    huge_gamma = tmp_path / "gamma.off"
    huge_gamma.write_text(t_plus_off.read_text())
    (tmp_path / "gamma.off.json").write_text('{"gamma_triangles": [99999999999999999999]}')
    paths = {"rays": rays, "mesh": t_plus_off, "out": tmp_path / "p.off",
             "csv": tmp_path / "sweep.csv", "huge_face": huge_face,
             "huge_gamma": huge_gamma}
    assert cli.main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err
    assert not paths["out"].exists() and not paths["csv"].exists()


def _printed(stdout):
    """The ``name = value`` and ``name: value`` pairs a subcommand printed."""
    return dict(re.findall(r"(\w[\w ]*?) *[=:] +(\S+)", stdout))


# subcommand -> (its arguments, exit code, {report output: printed name});
# None means the subcommand prints its outputs as one JSON object
REPORT_CASES = {
    "build": (["--cone", "t-plus", "--out", "{tmp}/b.off"], 0,
              {"area_off_gamma": "area_off_gamma",
               "area_on_gamma": "area_on_gamma"}),
    "energy": (["--alpha", "0.25", "{mesh}"], 0,
               {"area_off_gamma": "area_off_gamma",
                "area_on_gamma": "area_on_gamma", "j_alpha": "j_alpha"}),
    "calibrate": (["--cone", "y-beta", "--beta", "0.5"], 0,
                  {"required_alpha": "required alpha",
                   "verdict": "calibration y_beta"}),
    "compete": (["--alpha", "0.5", "--x0", "0.01"], 0,
                {"gap_bound": "gap_bound", "j_quadrature": "j_quadrature"}),
    "evolve": (["--in", "{mesh}", "--alpha", "0.95", "--iters", "20",
                "--jitter", "1e-3"], 0,
               {"final_j": "final j_alpha",
                "gamma_contact_area": "gamma_contact_area",
                "converged": "converged"}),
    "net": (["check", "--in", "{net}", "--alpha", "0.95"], 2,
            {"junction_ok": "junctions", "equator_ok": "equator"}),
    "classify1d": (["--in", "{rays}", "--alpha", "0.5"], 0, None),
    "fubini": (["--in", "{mesh}", "--axis", "y", "--slices", "10"], 0,
               {"integral": "slice integral", "direct": "direct energy"}),
}


@pytest.mark.parametrize("command", list(REPORT_CASES))
def test_report_of_every_subcommand(tmp_path, capsys, t_plus_off, command):
    net = cones2d.hemisphere_trace(cones2d.y_beta(0.7))
    (tmp_path / "net.json").write_text(json.dumps(
        {"nodes": net.nodes.tolist(), "arcs": [list(a) for a in net.arcs]}))
    (tmp_path / "rays.json").write_text(json.dumps([0.0, math.pi / 2, math.pi]))
    paths = {"tmp": tmp_path, "mesh": t_plus_off,
             "net": tmp_path / "net.json", "rays": tmp_path / "rays.json"}
    args, code, shown = REPORT_CASES[command]
    report = tmp_path / "run.json"
    argv = [command, *(a.format(**paths) for a in args), "--report", str(report)]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    data = json.loads(report.read_text())
    assert list(data) == ["command", "inputs_digest", "outputs", "version",
                          "wall_time_s"]
    assert data["command"] == " ".join(argv)
    source = next((paths[k] for k in ("mesh", "net", "rays")
                   if f"{{{k}}}" in args), None)
    content = source.read_bytes() if source else b""
    assert data["inputs_digest"] == hashlib.sha256(content).hexdigest()[:16]
    assert data["version"] == __version__
    assert data["wall_time_s"] >= 0.0
    outputs = data["outputs"]
    if shown is None:
        assert json.loads(out) == outputs
        return
    printed = _printed(out)
    for key, name in shown.items():
        value = outputs[key]
        if isinstance(value, bool):
            assert printed[name] in (str(value), "pass" if value else "fail")
        elif isinstance(value, float):
            assert float(printed[name]) == value, key
        else:
            assert printed[name] == value, key
