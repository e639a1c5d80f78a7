"""Smoke test of the benchmark itself, at tiny input sizes.

Run with ``python -m pytest perfbench/test_smoke.py -q`` from the
repository root.  It checks that every named metric is printed with its
unit in both modes, that the correctness gate catches a corrupted
expected closure and a read pinned at the wrong revision, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert any(line.startswith(f"{name} = ") and f" {metric['unit']}" in line
                   for line in lines[:-1]), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_tail_is_never_below_the_upper_quartile():
    assert measure.tail(range(1, 41)) == (30.0, 75.0, 40)  # 10 beyond p75
    assert measure.tail(range(1, 101))[:2] == (90.0, 90.0)
    value, percentile, n = measure.tail(range(1, 22))  # p52 would have 10 beyond
    assert (value, percentile, n) == (16.0, 75.0, 21)


def test_speed_factor_is_the_mean_of_the_samples_around_an_interval():
    sampler = speed.SpeedSampler()
    sampler._times = [0.0, 1.0, 1.05, 1.2, 3.0]
    sampler._factors = [9.0, 1.0, 2.0, 3.0, 9.0]
    assert sampler.factor(1.02, 1.1) == 2.0  # from 0.92 to 1.2
    assert sampler.factor(2.0, 2.1) == sampler.median_factor() == 3.0


def test_declared_workloads_match_the_command():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(workloads.E2E_UNITS) == {m["name"] for m in declared["end_to_end"]}
    assert set(workloads.LAYER_UNITS) == {m["name"] for m in declared["per_layer"]}


@pytest.mark.parametrize("workload", ["load_bsbm", "window_stream", "serve_durable"])
def test_gate_catches_a_corrupted_expected_closure(workload, monkeypatch):
    honest = workloads.baseline_graph

    def corrupted(triples):
        graph = honest(triples)
        victim = next(t for t in graph if "bsbm" in t.subject.value)
        bad = workloads.Graph()
        bad.add_all(t for t in graph if t != victim)
        return bad

    monkeypatch.setattr(workloads, "baseline_graph", corrupted)
    out = bench.run(workload, seed=5, seconds=0.3, trace=False, size="tiny")
    assert not out.correct
    assert out.failed >= 1 and out.e2e["ok_share"] < 1.0
    assert out.problems


def test_gate_catches_a_read_pinned_one_revision_off(monkeypatch):
    honest = workloads._http_select
    pinned: list[int] = []

    def off_by_one(port, op, at):
        if not pinned:
            pinned.append(at)  # the oldest revision the gate pins
        return honest(port, op, at + 1 if at == pinned[0] else at)

    monkeypatch.setattr(workloads, "_http_select", off_by_one)
    out = bench.run("serve_durable", seed=5, seconds=0.3, trace=False, size="tiny")
    assert not out.correct
    assert all(problem.startswith(f"at={pinned[0]}:") for problem in out.problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "load_bsbm", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
