"""Benchmark for busterfixer: seeded workloads, end-to-end metrics, per-module trace.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload`` is ``sweep``, ``engine``, ``verify`` or ``all`` (the default,
which runs the three in turn in this one process). A run builds its
inputs from ``--seed`` (the median of several set-ups is ``setup_s``),
then times whole passes over those inputs until ``--seconds`` of
measured time have passed; every pass's outputs are checked outside the
timed region. Each operation's time is its median over the passes, and
``ops_per_s``, ``op_ms_p50`` and ``op_ms_p99`` are taken over those
medians. With ``--trace 1`` half the time goes to untraced passes and one
more pass runs with the per-module tracer installed; that run reports the
per-layer metrics instead of the end-to-end ones.

Every metric is printed as ``<workload> <name> <value> <unit>``, then a
``record`` line with the run's provenance and tallies, and last one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 when any operation failed its check, 2 when the library source is
missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "busterfixer"

sys.path[:0] = [str(HERE), str(SRC)]
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Reference slices per speed estimate (see ``workloads.reference_slice``).
WINDOW = 41
WORKLOADS = ("sweep", "engine", "verify")
clock = time.perf_counter


def make_workload(name: str) -> workloads.Workload:
    if name == "sweep":
        return workloads.Sweep()
    if name == "engine":
        return workloads.Engine()
    return workloads.Verify(ROOT / f".perfbench-{os.getpid()}")


def import_fresh():
    """Import the package from ``src/``, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    bf = importlib.import_module(PACKAGE)
    if Path(bf.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {bf.__file__}, not from {SRC}")
    return bf


def set_up(workload: workloads.Workload, seed: int):
    """Import the package and build the inputs, several times; keep the last.

    Returns each repetition's seconds, raw and corrected by the reference
    slices run just before and after it.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [workloads.reference_slice() for _ in range(WINDOW)]
        start = clock()
        bf = import_fresh()
        inputs = workload.build(bf, seed)
        elapsed = clock() - start
        after = [workloads.reference_slice() for _ in range(WINDOW)]
        raw.append(elapsed)
        scaled.append(elapsed * workloads.REFERENCE_S / statistics.median(before + after))
    return bf, inputs, raw, scaled


def timed_pass(workload, bf, inputs) -> workloads.Pass:
    gc.collect()
    start = clock()
    done = workload.run_pass(bf, inputs)
    done.wall_s = clock() - start
    return done


def traced_pass(workload, bf, inputs) -> tuple[tracer.Tracer, workloads.Pass]:
    """One pass with every public function of the package wrapped."""
    probe = tracer.Tracer(PACKAGE, observe={"adjudicator.verify_optimal_report": lambda r: r.alternatives})
    gc.collect()
    with probe:
        done = workload.run_pass(bf, inputs)
    left = tracer.installed_wrappers(PACKAGE)
    if left:
        raise RuntimeError(f"tracer left wrappers installed: {left}")
    return probe, done


def corrected(done: workloads.Pass) -> list[float]:
    """Operation times at the reference speed.

    Each time is scaled by ``REFERENCE_S`` over the median of the
    reference slices run before the ``WINDOW`` operations around it.
    """
    half = WINDOW // 2
    return [
        t * workloads.REFERENCE_S / statistics.median(done.ref_s[max(0, i - half) : i + half + 1])
        for i, t in enumerate(done.op_s)
    ]


def op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes that timed every operation."""
    ops = max(len(p) for p in passes)
    return [statistics.median(times) for times in zip(*[p for p in passes if len(p) == ops])]


def timing_metrics(per_op: list[float]) -> dict[str, float]:
    total = sum(per_op)
    return {
        "ops_per_s": len(per_op) / total if total else 0.0,
        "op_ms_p50": statistics.median(per_op) * 1e3 if per_op else 0.0,
        "op_ms_p99": statistics.quantiles(per_op, n=100)[98] * 1e3 if len(per_op) > 1 else 0.0,
    }


def layer_metrics(table: dict, observed: dict, checks: int, series: int, overhead: float) -> dict:
    """The per-layer metrics from one traced pass."""
    modules = tracer.module_totals(table)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    def self_s(module: str) -> float:
        return modules.get(module, {}).get("self_s", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    verify_calls = calls("adjudicator.verify_optimal_report")
    values = {
        "adjudicator.calls": (modules.get("adjudicator", {}).get("calls", 0), "count"),
        "adjudicator.self_s": (self_s("adjudicator"), "s"),
        "adjudicator.verify_calls": (verify_calls, "count"),
        "adjudicator.verify_calls_per_check": (ratio(verify_calls, checks), "calls/check"),
        "adjudicator.enumerate_fixer_responses.calls": (calls("adjudicator.enumerate_fixer_responses"), "count"),
        "adjudicator.alternatives_per_verify": (
            ratio(observed.get("adjudicator.verify_optimal_report", 0), verify_calls),
            "alts/verify",
        ),
        "adjudicator.naive_calls": (calls("adjudicator.verify_optimal_naive"), "count"),
        "adjudicator.naive_s": (table.get("adjudicator.verify_optimal_naive", {}).get("total_s", 0.0), "s"),
        "graph.contract.calls": (calls("graph.contract"), "count"),
        "graph.is_connected.calls": (calls("graph.is_connected"), "count"),
        "graph.multigraph_built": (calls("graph.Multigraph"), "count"),
        "graph.self_s": (self_s("graph"), "s"),
        "reconnect.greedy_fixer_move.calls": (calls("reconnect.greedy_fixer_move"), "count"),
        "reconnect.all_msts.calls": (calls("reconnect.all_msts"), "count"),
        "reconnect.self_s": (self_s("reconnect"), "s"),
        "engine.replay_positions.calls": (calls("engine.replay_positions"), "count"),
        "engine.replays_per_series": (ratio(calls("engine.replay_positions"), series), "replays/series"),
        "engine.apply_round.calls": (calls("engine.apply_round"), "count"),
        "engine.buster_wins.calls": (calls("engine.buster_wins"), "count"),
        "engine.self_s": (self_s("engine"), "s"),
        "transcript.render.calls": (calls("transcript.render_transcript"), "count"),
        "transcript.parse.calls": (calls("transcript.parse_transcript"), "count"),
        "transcript.replay.calls": (calls("transcript.replay_transcript"), "count"),
        "transcript.self_s": (self_s("transcript"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "scenario.parse_scenario.calls": (calls("scenario.parse_scenario"), "count"),
        "scenario.self_s": (self_s("scenario"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package's source files, so runs of one source compare."""
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = make_workload(name)
    try:
        bf, inputs, setup_raw, setup_s = set_up(workload, seed)
        expected = workload.expect(bf, inputs)
        passes: list[workloads.Pass] = []
        failed = 0
        budget = seconds / 2 if trace else seconds
        while not passes or sum(p.wall_s for p in passes) < budget:
            done = timed_pass(workload, bf, inputs)
            failed += workload.check(bf, inputs, expected, done, passes[0] if passes else None)
            if passes:
                done.outputs = []  # checked against the first pass; only its outputs are kept
            passes.append(done)
        attempted = len(inputs) * len(passes)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": git_commit(ROOT),
            "src_sha256": source_digest(),
            "ops_per_pass": len(inputs),
            "pass_wall_s": [round(p.wall_s, 4) for p in passes],
            "reference_us_median": round(statistics.median(t for p in passes for t in p.ref_s) * 1e6, 2),
            "setup_raw_s": [round(s, 6) for s in setup_raw],
            "tallies": workload.tallies(expected, passes[0]),
            "error": next((p.error for p in passes if p.error), None),
        }
        if trace:
            probe, traced = traced_pass(workload, bf, inputs)
            failed += workload.check(bf, inputs, expected, traced, passes[0])
            attempted += len(inputs)
            table = probe.summary()
            untraced = statistics.median(timing_metrics(corrected(p))["ops_per_s"] for p in passes)
            overhead = timing_metrics(corrected(traced))["ops_per_s"] / untraced
            metrics = layer_metrics(table, probe.observed, workload.checks(expected), workload.series(inputs), overhead)
            record["spans"] = probe.span_count
            record["trace_table"] = {k: {"calls": v["calls"], "self_s": round(v["self_s"], 6)} for k, v in table.items()}
            record["error"] = record["error"] or traced.error
        else:
            record["raw"] = timing_metrics(op_medians([p.op_s for p in passes]))
            metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"}}
            units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p99": "ms"}
            for metric, value in timing_metrics(op_medians([corrected(p) for p in passes])).items():
                metrics[metric] = {"value": value, "unit": units[metric]}
            metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        return {"name": name, "metrics": metrics, "attempted": attempted, "failed": failed, "record": record}
    finally:
        workload.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    metrics = {}
    for result in results:
        error_rate = result["failed"] / result["attempted"]
        for metric, entry in (*result["metrics"].items(), ("error_rate", {"value": error_rate, "unit": "ratio"})):
            print(f"{result['name']:<7} {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
            if metric != "error_rate":
                metrics[metric if len(results) == 1 else f"{result['name']}.{metric}"] = entry
        print("record " + json.dumps(result["record"], sort_keys=True))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
