import json
import math
import subprocess
import sys

import pytest

from slidecal import cli, cones2d, geom

J_CONE = 4.0 * math.sqrt(2.0) / 3.0


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "slidecal.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def grab(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key):
            return float(line.split("=")[1])
    raise AssertionError(f"{key!r} not in output:\n{stdout}")


@pytest.fixture(scope="module")
def t_plus_off(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "t_plus.off"
    code, out, err = run_cli("build", "--cone", "t-plus", "--out", str(path))
    assert code == 0, err
    return path


def test_energy_half_t(t_plus_off):
    code, out, _ = run_cli("energy", "--alpha", "0.8164965809277260",
                           str(t_plus_off))
    assert code == 0
    j = grab(out, "j_alpha")
    # printed with 17 significant digits: parses back bit-for-bit
    mesh = geom.read_off(t_plus_off)
    assert j == geom.energy(mesh, 0.8164965809277260).j_alpha
    assert j == pytest.approx(J_CONE, abs=1e-9)


def test_calibrate_w_beta_inadmissible():
    # sin(0.9) > 1/sqrt(3): verification failure
    code, out, _ = run_cli("calibrate", "--cone", "w-beta", "--beta", "0.9")
    assert code == 2
    assert "fail" in out


def test_calibrate_w_beta_admissible(tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli("calibrate", "--cone", "w-beta", "--beta", "0.5",
                           "--json", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["verdict"] == "pass"
    assert set(data) >= {"pairwise_norms", "alignment_defects",
                         "boundary_coeffs", "verdict"}


def test_compete_above_threshold():
    code, out, _ = run_cli("compete", "--alpha", "0.9")
    assert code == 0
    assert "no better competitor" in out


def test_compete_below_threshold_with_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli("compete", "--alpha", "0.5", "--csv", str(csv_path),
                           "--sweep-points", "5")
    assert code == 0
    assert "better competitor" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",") == ["x0", "c", "area_B", "area_V", "j_quad",
                                  "j_bound", "gap_bound"]
    assert len(rows) == 6


def test_classify1d(tmp_path):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps([0.0, math.pi / 2, math.pi]))
    code, out, _ = run_cli("classify1d", "--in", str(rays), "--alpha", "0.5")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"minimal": True, "variant": "gamma_plus_vertical"}

    rays.write_text(json.dumps([0.0, 0.4, 2.8, math.pi]))
    code, out, _ = run_cli("classify1d", "--in", str(rays), "--alpha", "0.5")
    assert json.loads(out) == {"minimal": False, "witness": "project_to_gamma"}


def test_fubini(tmp_path):
    mesh_path = tmp_path / "prod.off"
    code, _, err = run_cli("build", "--cone", "product", "--variant1d",
                           "vee", "--theta", str(math.pi / 6),
                           "--out", str(mesh_path))
    assert code == 0, err
    code, out, _ = run_cli("fubini", "--in", str(mesh_path), "--axis", "y",
                           "--slices", "100", "--alpha", "1.0")
    assert code == 0
    assert abs(grab(out, "difference")) <= 1e-9


def test_net_check(tmp_path):
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


def test_evolve(tmp_path, t_plus_off):
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


def test_report_round_trips(tmp_path, t_plus_off):
    report = tmp_path / "run.json"
    code, out, _ = run_cli("energy", "--alpha", "0.25", str(t_plus_off),
                           "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    mesh = geom.read_off(t_plus_off)
    assert data["outputs"]["j_alpha"] == geom.energy(mesh, 0.25).j_alpha
    assert data["version"]


def test_usage_errors_exit_one():
    code, _, err = run_cli("energy", "--alpha", "0.5", "--bogus-flag", "x.off")
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
                                  [[1.0, 0.0, 0.0]]],
                         ids=["no-arcs", "no-nodes", "not-an-object"])
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
