"""Smoke test of the benchmark's ``certify`` workload, run in-process on
the seed-1 inputs with no timing: every check passes."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_certify_workload_checks_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    outputs = workloads.certify_run(workloads.certify_setup(1))
    checks = workloads.certify_checks(outputs)
    assert checks
    assert [label for label, ok in checks if not ok] == []
