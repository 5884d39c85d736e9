"""Tests of the benchmark itself: smoke runs, the output format, the tracer.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert result["metrics"]["trace.top_span_coverage"]["value"] > 0.9


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "flip_enum", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_bounds_check_catches_broken_constants(tmp_path):
    wl = workloads.BoundsWorkload("bounds_cli", 1, True, tmp_path)
    out = tmp_path / "bounds.json"
    rep = {"theorem": "glm", "c1": 2.0, "c2": 3.0, "c_r": 4.0, "kappa_r": 2.0}
    out.write_text(json.dumps(rep))
    assert wl.check(("glm", None, 0), (0, out)) == []
    out.write_text(json.dumps(dict(rep, c_r=4.5)))
    assert wl.check(("glm", None, 0), (0, out)) == ["c_r != 3 c1^2 / c2"]
    out.write_text(json.dumps(dict(rep, c2=-1.0)))
    assert wl.check(("glm", None, 0), (0, out))
    assert wl.check(("glm", None, 0), (2, out)) == ["glm: exit code 2"]


def test_coverage_check_counts_fit_errors(tmp_path):
    wl = workloads.CoverageWorkload("flip_enum", 1, True, tmp_path)
    _kind, cfg = wl.prepare(0)
    res = wl.run(cfg)
    assert wl.check(cfg, res) == []
    res.rows[0]["fit_error"] = "boom"
    res.n_fit_errors = 1
    assert wl.check(cfg, res) == ["fit_error: boom"]
    res.rows[0].update(fit_error="", spt_hat=99)
    res.n_fit_errors = 0
    assert any("support size" in p for p in wl.check(cfg, res))


def _child(x):
    return x + 1


def _parent(x):
    return sum(_child(x) for _ in range(3))


def test_tracer_self_time_and_restore():
    tr = Tracer()
    mod = sys.modules[__name__]
    originals = (_child, _parent)
    tr.patch_function("t.child", _child, [mod])
    tr.patch_function("t.parent", _parent, [mod])
    tr.install()
    try:
        assert _parent(1) == 6
    finally:
        tr.uninstall()
    assert (_child, _parent) == originals
    assert tr.calls["t.child"] == 3 and tr.calls["t.parent"] == 1
    assert [name for name, _t0, _t1 in tr.top_spans] == ["t.parent"]
    assert tr.self_s["t.parent"] == pytest.approx(tr.incl_s["t.parent"] - tr.incl_s["t.child"])
    assert tr.top_span_s() == pytest.approx(tr.incl_s["t.parent"])
