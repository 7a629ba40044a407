"""Smoke test of the benchmark's ``descent`` workload, run in-process with
one jitter instance and no timing: its checks pass and its digest equals
the one recorded before the descent kernel moved to the column layout."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGEST = ['1.8852072823865762', '0.0036774587504183804', '400',
          '0.0030361293450261143', '7c011075fc596a2f',
          '1.8856181679936905', '0', '400', '0.0065651318304454677',
          '51c85c10bbe8999d']


def test_descent_workload_one_instance(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    outputs = workloads.descent_run(workloads.descent_setup(1)[:1])
    checks = workloads.descent_checks(outputs)
    assert checks
    assert [label for label, ok in checks if not ok] == []
    assert workloads.descent_digest(outputs) == DIGEST
