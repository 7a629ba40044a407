"""Smoke test of the benchmark's ``mesh_io`` workload, run in-process on
the seed-1 inputs with no timing: every check passes, and the digest's
``t_plus`` round trip and five Fubini lines equal the values recorded
before the tilted meshes were built from their region partitions, a change
that left these entries untouched."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

T_PLUS_DIGEST = ['3c5f04312dd9e4d0', '24576', '1.8856180831641267', '0', '384']
FUBINI_DIGEST = ['1.5243241501127069 1.5243241501127069', '1 1',
                 '2.5243241501127072 2.5243241501127072',
                 '1.7621620750563536 1.7621620750563536', '2 2']


def test_mesh_io_workload_checks_and_digest(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    outputs = workloads.mesh_io_run(workloads.mesh_io_setup(1), str(tmp_path))
    checks = workloads.mesh_io_checks(outputs)
    assert checks
    assert [label for label, ok in checks if not ok] == []
    digest = workloads.mesh_io_digest(outputs)
    assert digest[:5] == T_PLUS_DIGEST
    assert digest[-5:] == FUBINI_DIGEST
