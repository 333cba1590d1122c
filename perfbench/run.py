"""End-to-end and per-layer benchmark of the coalgpath command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload open-check --seed 1 --seconds 30 --trace 0

One process, one caller, no threads: a closed loop that calls the CLI's
public entry point ``coalgpath.cli.run_command(argv)`` in-process over
model files generated from ``--seed`` (see ``workloads.py``).  Every op's
exit code and stdout are checked against answers the benchmark derives
itself, and the sha256 of every op's stdout must match the pin in
``digests.json`` when the seed is pinned there, and otherwise the first
run of the same op.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
cycle untraced, then the same cycle with per-layer spans (``spans.py``)
and reports the per-layer metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, reference_seconds
from spans import Tracer
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent

# Nominal seconds per cycle of each workload at the commit that defined the
# benchmark (2-core Intel Xeon VM, Python 3.11.7).  A run times
# round(seconds / cycle) whole cycles, so every commit runs the same ops the
# same number of times: at 30 s, 14 cycles of open-check (9 ops each), 3 of
# harness (50 ops) and 21 of trace-enum (7 ops).
CYCLE_SECONDS = {"open-check": 2.1, "harness": 10.0, "trace-enum": 1.4}
SETUP_PROBES = 9


class Runner:
    """Runs ops in the work directory and checks each result."""

    def __init__(self, cli, workload: Workload, pins: dict[str, str]):
        self.cli = cli  # the module: the traced run replaces its run_command
        self.workload = workload
        self.expected = dict(pins)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            out, code = self.cli.run_command(list(op.argv))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{op.name}: raised {exc!r}")
            return latency
        latency = perf_counter() - start
        problem = op.check(out, code)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if problem is None and self.expected.setdefault(op.name, digest) != digest:
            problem = f"stdout sha256 {digest[:12]} differs from {self.expected[op.name][:12]}"
        if problem is not None:
            self.failures.append(f"{op.name}: {problem}")
        return latency


def import_cli(root: Path):
    """``coalgpath.cli`` from the checkout's own ``src``, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import coalgpath.cli

    if not Path(coalgpath.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported coalgpath from {coalgpath.cli.__file__}, not from {src}")
    return coalgpath.cli


def setup(args, root: Path) -> tuple[Runner, Path]:
    """Import, generate the inputs, write the model files, run the warm-up op."""
    cli = import_cli(root)
    workload = WORKLOADS[args.workload](args.seed)
    pins = json.loads((HERE / "digests.json").read_text()).get(args.workload, {}).get(str(args.seed), {})
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    for rel, text in workload.files.items():
        (work / rel).write_text(text, encoding="utf-8")
    os.chdir(work)
    runner = Runner(cli, workload, pins)
    runner.run(workload.op(workload.warmup))
    return runner, work


def probe_setup(args, root: Path) -> tuple[float, str | None]:
    """Time a fresh interpreter from spawn to the end of its warm-up op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        rest = proc.stdout.read()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return elapsed, "setup probe did not exit"
    if line.strip() != "ready":
        return elapsed, f"setup probe failed: {(line + rest).strip()[:200]}"
    return elapsed, None


def timed_cycles(runner: Runner, seconds: int, before_cycle) -> tuple[dict[str, list[float]], list[float]]:
    """Latencies per op kind over round(seconds / cycle) whole cycles, and the
    reference work timed right before every op.  ``before_cycle(index,
    cycles)`` runs ahead of each cycle.  A program so slow that the cycles
    overrun 1.5 times ``seconds`` stops early, so the run still ends well
    within the benchmark's time limit."""
    workload = runner.workload
    cycles = max(1, round(seconds / CYCLE_SECONDS[workload.name]))
    deadline = perf_counter() + 1.5 * seconds
    latencies: dict[str, list[float]] = {op.kind: [] for op in workload.ops}
    references: list[float] = []
    for index in range(cycles):
        before_cycle(index, cycles)
        for op in workload.ops:
            references.append(reference_seconds())
            latencies[op.kind].append(runner.run(op))
        if perf_counter() > deadline:
            break
    return latencies, references


def end_to_end(runner: Runner, args, root: Path) -> dict[str, tuple[float, str]]:
    """Time metrics corrected for the speed the host gave this run.

    The host's CPU switches between a fast state and states up to twice as
    slow, for spans from a fraction of a second to about a minute
    (``reference.py``); raw latencies moved with it by 20-30% between runs
    of the same code.  Op latencies are scaled by how much longer than
    nominal the reference work timed before every op took on average; each
    set-up probe is divided by the reference work timed around it.
    """
    setups: list[float] = []
    raw_setups: list[float] = []

    def probe(count: int) -> None:
        while len(setups) < count:
            before = reference_seconds()
            elapsed, problem = probe_setup(args, root)
            after = reference_seconds()
            raw_setups.append(elapsed)
            setups.append(elapsed * NOMINAL_S / ((before + after) / 2))
            runner.attempted += 1
            if problem is not None:
                runner.failures.append(problem)

    # the set-up probes are spread over the timed region, between cycles,
    # so that they meet the host in the states the ops meet it in
    latencies, references = timed_cycles(
        runner, args.seconds,
        lambda index, cycles: probe(min(SETUP_PROBES, -(-(index + 1) * SETUP_PROBES // cycles))))
    probe(SETUP_PROBES)
    every = [x for values in latencies.values() for x in values]
    scale = NOMINAL_S / statistics.fmean(references)
    metrics, slowest = corrected_metrics(latencies, scale)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(every)} ops, {len(every) // len(runner.workload.ops)} cycles; "
          f"slowest op kind {slowest}; reference work mean {statistics.fmean(references) * 1000:.3f} ms "
          f"(nominal {NOMINAL_S * 1000:g} ms); uncorrected: "
          f"set-up median {statistics.median(raw_setups):.4f} s, op latency median {statistics.median(every) * 1000:.1f} ms, "
          f"{len(every) / sum(every):.3f} ops/s; Python {platform.python_version()}, nproc {os.cpu_count()}")
    print("perfbench: mean corrected ms per op kind: " + ", ".join(
        f"{kind} {statistics.fmean(values) * scale * 1000:.1f}" for kind, values in latencies.items()))
    return {
        "setup_s": (statistics.median(setups), "s"),
        **metrics,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def corrected_metrics(latencies: dict[str, list[float]],
                      scale: float) -> tuple[dict[str, tuple[float, str]], str]:
    """Throughput over every timed op, and the median and the largest of the
    op kinds' mean latencies, all times ``scale``; and the slowest kind."""
    mean = {name: statistics.fmean(values) * scale for name, values in latencies.items()}
    slowest = max(mean, key=mean.get)
    count = sum(len(values) for values in latencies.values())
    return {
        "throughput_ops_s": (count / (sum(sum(values) for values in latencies.values()) * scale), "ops/s"),
        "op_p50_ms": (statistics.median(mean.values()) * 1000, "ms"),
        "op_tail_ms": (mean[slowest] * 1000, "ms"),
    }, slowest


def per_layer(runner: Runner, args, root: Path) -> dict[str, tuple[float, str]]:
    ops = runner.workload.ops
    untraced = sum(runner.run(op) for op in ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for index, op in enumerate(ops):
            tracer.op_id = index
            traced += runner.run(op)
    finally:
        tracer.uninstall()
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}.bin", seed=args.seed)
    return layer_metrics(tracer, traced / untraced, len(runner.failures) / runner.attempted)


def layer_metrics(tracer, overhead: float, failed_ratio: float) -> dict[str, tuple[float, str]]:
    layers, counts = tracer.layers, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics: dict[str, tuple[float, str]] = {}

    def add(name: str, *kinds: str) -> None:
        layer = layers[name]
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (layer.calls, "count")
            elif kind == "items":
                metrics[f"{name}.items"] = (layer.items, "count")
            elif kind == "self_s":
                metrics[f"{name}.self_s"] = (layer.self_s, "s")
            elif kind == "repeat_ratio":
                metrics[f"{name}.repeat_ratio"] = (ratio(layer.repeats, layer.calls), "ratio")

    add("openmap.is_open", "calls", "self_s")
    metrics["openmap.is_open.subst_per_transition"] = (
        ratio(counts["openmap.is_open.subst_calls"], counts["openmap.is_open.src_transitions"]),
        "calls/transition")
    for name in ("openmap.reachable_bfs", "openmap.replay_witness", "openmap.verify_theorems"):
        add(name, "self_s")
    add("precise.element_shapes", "calls", "self_s", "repeat_ratio")
    add("precise.enumerate_precise_maps", "items", "self_s")
    for name in ("functors.subst_node", "functors.fmap", "functors.occurrences", "functors.term_in_functor"):
        add(name, "calls", "self_s")
    add("functors.eval_functor", "calls", "repeat_ratio")
    add("functors.rebuild_with_fresh", "self_s")
    metrics["functors.term_lt.calls"] = (counts["functors.term_lt"], "count")
    add("trace.trace", "calls", "self_s")
    metrics["trace.trace.terms_out"] = (counts["trace.trace.terms_out"], "count")
    metrics["trace.term_lt_per_term"] = (
        ratio(counts["functors.term_lt.inside"], counts["trace.trace.terms_out"]), "calls/term")
    add("coalgebra.PointedCoalgebra", "calls", "self_s")
    add("coalgebra.random_coalgebra", "self_s")
    add("coalgebra.is_strict_hom", "self_s")
    add("paths.enumerate_runs", "items", "self_s")
    add("paths.comp", "self_s")
    add("groups.canonical_tuple", "calls", "self_s")
    add("sets.SortedFun", "calls", "self_s")
    metrics["sets.SortedSet.has.calls"] = (counts["sets.SortedSet.has"], "count")
    add("modelio.parse_coalgebra", "self_s")
    metrics["modelio.parse_coalgebra.bytes"] = (counts["modelio.parse_coalgebra.bytes"], "bytes")
    add("modelio.print_term_for", "calls", "self_s")
    add("nominal.rnna_expand", "self_s")
    add("nominal.bar_trace", "self_s")
    add("lasota.paths_bijection_check", "self_s")
    add("cli.run_command", "self_s")
    metrics["cli.output_bytes"] = (counts["cli.output_bytes"], "bytes")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    metrics["failed_ratio"] = (failed_ratio, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "coalgpath" / "cli.py").is_file():
        print("perfbench: src/coalgpath not found; run from the root of a coalgpath checkout", file=sys.stderr)
        return 2
    runner, work = setup(args, root)
    try:
        if args.setup_probe:
            print("ready" if not runner.failures else f"failed {runner.failures[0]}", flush=True)
            return 0
        metrics = per_layer(runner, args, root) if args.trace else end_to_end(runner, args, root)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in runner.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order, and with it how many comparisons a sort
        # makes, follows the hash seed: fix it so traced counts repeat
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
