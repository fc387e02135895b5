"""Tiny-scale self-test of the benchmark: every workload, both modes.

Runs the real harness on 2,000-record pools against the recorded tiny
references, so it needs no timing and finishes in well under a minute:

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent


def _load(name: str, file: str):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / file)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


bench = _load("capforge_benchmark_run", "run.py")


@pytest.mark.parametrize("workload", bench.ALL)
def test_untraced_run_is_correct_and_reports_every_metric(workload):
    result, _ = bench.execute(workload, 7, 1, False, "tiny", False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", bench.ALL)
def test_traced_run_enters_every_expected_span(workload):
    result, ledger = bench.execute(workload, 7, 1, True, "tiny", False)
    assert ledger.failures == []
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _, _ in bench.LAYER_METRICS}
    for name, _, on in bench.LAYER_METRICS:
        if workload in on:
            assert metrics[name]["value"] > 0, name
    if workload == bench.IN1K:
        assert metrics["curation.kmeans.iters"]["value"] >= 2
    else:
        assert metrics["curation.kmeans.iters"]["value"] == 0


def test_wrong_reference_value_counts_as_failed_operation():
    references = json.loads(bench.REFERENCES.read_text(encoding="utf-8"))
    wrong = copy.deepcopy(references)
    wrong["in1k/2000/7"]["report.0"]["mean_cosine"] += 1e-6
    result, ledger = bench.execute(bench.IN1K, 7, 1, False, "tiny", False, wrong)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert all("report row 0" in failure for failure in ledger.failures)


def test_missing_traced_name_stops_the_command(tmp_path):
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import capforge.curation\n"
        "del capforge.curation.kmeans_trace\n"
        "import traced_cli\n"
        "sys.exit(traced_cli.main([sys.argv[1], 'validate', 'nowhere']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(bench.SRC)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "spans.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "kmeans_trace is missing" in proc.stderr
