"""The benchmark's own tests: every output check can fail, outputs and
counts repeat exactly for a fixed seed with and without tracing, and the
result line matches BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from slidecal import calib, cones2d, geom  # noqa: E402

SEED = 3
_outputs = {}


def outputs(name, workdir):
    if name not in _outputs:
        wl = workloads.WORKLOADS[name]
        _outputs[name] = wl.run(wl.setup(SEED), str(workdir))
    return _outputs[name]


def failed(checks):
    return [label for label, ok in checks if not ok]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_fresh_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    checks = wl.checks(outputs(name, tmp_path))
    assert len(checks) > 0
    assert failed(checks) == []


def test_descent_check_fails_when_bound_tightened_past_known_result(tmp_path):
    out = outputs("descent", tmp_path)
    # the alpha = 0.6 descent ends about 4.4e-4 below the cone, not 1e-2
    bad = failed(workloads.descent_checks(out, low_margin=1e-2))
    assert bad and all("beats the cone" in label for label in bad)


def test_certify_check_fails_on_dropped_face(tmp_path):
    results, competitors, oracle = outputs("certify", tmp_path)
    assert results[0].spec.variant == cones2d.T_PLUS
    part = cones2d.region_partition(cones2d.t_plus())
    broken = dataclasses.replace(results[0], flux=calib.divergence_balance(
        part, calib.t_plus_calibration(), drop=(4, "F4")))
    bad = failed(workloads.certify_checks(([broken] + results[1:], competitors, oracle)))
    assert bad == ["certify: t_plus region 4 flux"]


def test_certify_check_fails_on_wrong_competitor_verdict(tmp_path):
    results, competitors, oracle = outputs("certify", tmp_path)
    alpha = next(a for a, f in competitors if f is not None)
    flipped = [(a, None if a == alpha else f) for a, f in competitors]
    bad = failed(workloads.certify_checks((results, flipped, oracle)))
    assert bad == ["certify: competitor exists iff alpha < sqrt(2/3)"]


def test_mesh_io_check_fails_on_nudged_vertex(tmp_path):
    trips, fubini = outputs("mesh_io", tmp_path)
    t = trips[0]
    v = t.copy.vertices.copy()
    k = int(np.argmax(v[:, 2]))
    v[k, 0] = np.nextafter(v[k, 0], np.inf)
    nudged = geom.Mesh(v, t.copy.triangles, t.copy.gamma)
    broken = dataclasses.replace(t, copy=nudged,
                                 energy_copy=geom.energy(nudged, t.energy.alpha))
    bad = failed(workloads.mesh_io_checks(([broken] + trips[1:], fubini)))
    assert "mesh_io: OFF round trip bit-identical" in bad


def test_mesh_io_check_fails_on_bent_product(tmp_path):
    trips, fubini = outputs("mesh_io", tmp_path)
    integral, direct = fubini[0]
    bad = failed(workloads.mesh_io_checks((trips, [(integral, direct + 1e-8)] + fubini[1:])))
    assert bad == ["mesh_io: flat-product Fubini identity"]


def traced_run(name, workdir):
    wl = workloads.WORKLOADS[name]
    tracer = Tracer(workloads.traced_functions())
    tracer.install()
    try:
        out = wl.run(wl.setup(SEED), str(workdir))
    finally:
        tracer.uninstall()
    calls = {f: s["calls"] for f, s in tracer.phase_stats(0, tracer.mark()).items()}
    return wl.digest(out), calls, dict(tracer.counts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_and_counts_repeat_exactly_with_and_without_tracing(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    plain = wl.digest(outputs(name, tmp_path))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = traced_run(name, tmp_path / "a")
    second = traced_run(name, tmp_path / "b")
    assert first[0] == plain
    assert second == first
    assert sum(first[1].values()) > 0
    assert any(first[2].get(k) for k in workloads.COUNT_NAMES)
    assert not any(hasattr(getattr(m, fn), "__wrapped__")
                   for m, fn, _ in workloads.traced_functions())


def test_tracer_self_time_and_parents():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    tracer = Tracer([(mod, "outer", None), (mod, "inner", None)])
    tracer.install()
    try:
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert list(tracer.parent) == [-1, 0, 0]
    stats = tracer.phase_stats(0, tracer.mark())
    assert stats["fake.outer"]["calls"] == 1 and stats["fake.inner"]["calls"] == 2
    children = sum(tracer.end[k] - tracer.start[k] for k in (1, 2))
    assert stats["fake.outer"]["self_s"] == pytest.approx(
        stats["fake.outer"]["s"] - children, abs=1e-12)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    spec = _bench_json()
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
