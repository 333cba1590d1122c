"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS, _path_count, _run_count

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def _traced_run(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _in_work_dir(workload, path: Path, monkeypatch) -> None:
    for rel, text in workload.files.items():
        (path / rel).write_text(text, encoding="utf-8")
    monkeypatch.chdir(path)


def _digest(result: tuple[str, int]) -> tuple[str, int]:
    return hashlib.sha256(result[0].encode("utf-8")).hexdigest(), result[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_stdout_digests_match(name, tmp_path, monkeypatch):
    cli = run.import_cli(ROOT)
    workload = WORKLOADS[name](SEED)
    _in_work_dir(workload, tmp_path, monkeypatch)
    untraced = [_digest(cli.run_command(list(op.argv))) for op in workload.ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_digest(cli.run_command(list(op.argv))) for op in workload.ops]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(op.check(*cli.run_command(list(op.argv))) is None for op in workload.ops)


@pytest.mark.parametrize("name", ["harness", "trace-enum"])
def test_self_times_sum_to_at_most_the_op_wall_time(name, tmp_path, monkeypatch):
    cli = run.import_cli(ROOT)
    workload = WORKLOADS[name](SEED)
    _in_work_dir(workload, tmp_path, monkeypatch)
    tracer = Tracer()
    tracer.install()
    walls = []
    try:
        for index, op in enumerate(workload.ops):
            tracer.op_id = index
            start = perf_counter()
            cli.run_command(list(op.argv))
            walls.append(perf_counter() - start)
    finally:
        tracer.uninstall()
    # self time of every span from the recorded spans, summed per op
    duration = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    child = [0.0] * len(duration)
    for index, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            child[parent] += duration[index]
    per_op = [0.0] * len(walls)
    for index, op_id in enumerate(tracer.span_op):
        assert child[index] <= duration[index]
        per_op[op_id] += duration[index] - child[index]
    for self_sum, wall in zip(per_op, walls):
        assert 0 < self_sum <= wall
    # the online accumulation agrees with the recorded spans
    assert sum(layer.self_s for layer in tracer.layers.values()) == pytest.approx(sum(per_op), rel=1e-6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_across_traced_runs(name):
    first = _traced_run(name, "1")
    second = _traced_run(name, "2")
    assert first["correct"] and second["correct"]
    assert first["metrics"].keys() == second["metrics"].keys()
    for key, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bytes") or key.endswith(("repeat_ratio", "_per_transition", "_per_term")):
            assert metric == second["metrics"][key], key


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    tracer = Tracer()
    run.import_cli(ROOT)
    tracer.install()
    tracer.uninstall()
    layer = run.layer_metrics(tracer, 1.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_v, u) in layer.items()]
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "throughput_ops_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_time_metrics_scale_every_latency():
    metrics, slowest = run.corrected_metrics({"a": [0.3, 0.1, 0.2], "b": [0.5, 0.4], "c": [0.2, 0.6]}, 0.5)
    assert slowest == "b"
    assert metrics["throughput_ops_s"][0] == pytest.approx(7 / 1.15)
    assert metrics["op_p50_ms"][0] == pytest.approx(200.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(225.0)


def test_count_recurrences_match_known_cases():
    # q0 -a-> q1 -b-> q2 at depth 2 has 6 runs (the CLI test fixture)
    assert _run_count({"q0": [["q1"]], "q1": [["q2"]], "q2": []}, "q0", 2) == 6
    # binary step functor plus the added point: 34 paths up to length 3
    assert _path_count([2, 0], 3) == 34


def test_checks_reject_wrong_answers():
    workload = WORKLOADS["open-check"](SEED)
    identity, _fold, drop = workload.ops[:3]
    assert identity.check("verdict: not-open (bound 29)\n", 1) is not None
    assert drop.check("verdict: open (bound 57)\n", 0) is not None
    lts = WORKLOADS["trace-enum"](SEED).ops[0]
    assert lts.check("ε\na\n", 0) is not None
