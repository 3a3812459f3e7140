"""The three benchmark workloads: ``sweep``, ``engine`` and ``verify``.

Each workload builds its inputs from a seed (``build``, timed as set-up),
derives what the outputs must be (``expect``, untimed), runs one *pass*
over its inputs timing every operation (``run_pass``), and checks a
pass's outputs outside the timed region (``check``). Every call into the
library goes through a module attribute looked up at call time, so a
tracer installed on those bindings sees it.

``sweep``  one ``theorem_sweep(..., compare_prune=True)`` over a stratified
           seeded sample of the default corpus: the adjudicator searches
           and their per-call set-up, with the cross-instance cache live.
``engine`` ``play_series`` -> ``series_totals`` -> ``render_transcript`` ->
           ``parse_transcript`` -> ``replay_transcript`` on random small
           instances: graph rebuilds, reconnection, replay and the text
           formats; the adjudicator is never called.
``verify`` one in-process ``cli_main(["verify", ...])`` per scenario file:
           cold one-off adjudication, scenario parsing, the CLI, and the
           naive oracle on instances of at most five edges.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

clock = time.perf_counter


# The reference slice: fixed stdlib work with the library's instruction mix
# (rationals, frozensets, dicts, sorting) that runs right before every
# operation. On a shared host the core's speed changes by up to 2x from
# second to second, and the slice slows with it, so an operation's time
# over the time of the slices around it measures the library alone.
REFERENCE_ROUNDS = 60
# The slice's duration on an uncontended core of the development host (2
# vCPUs, CPython 3.11.7); corrected times are scaled to that speed.
REFERENCE_S = 165e-6


def reference_slice() -> float:
    """Run the reference slice once; return its duration in seconds."""
    start = clock()
    total = Fraction(0)
    seen: dict = {}
    for i in range(REFERENCE_ROUNDS):
        ids = frozenset(range(i % 7, i % 7 + 4))
        seen[ids] = seen.get(ids, 0) + 1
        total += Fraction(i % 5, 2)
        tuple(sorted(ids, reverse=True))
    return clock() - start


@dataclass
class Pass:
    """One timed pass: seconds per operation, seconds of the reference
    slice run before each operation, the pass's wall-clock seconds,
    outputs, and the first exception."""

    op_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    outputs: list = field(default_factory=list)
    error: str | None = None

    def record(self, exc: Exception) -> None:
        if self.error is None:
            self.error = f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""

    def checks(self, expected) -> int:
        """Adjudications the workload asks for; 0 when it asks for none."""
        return 0

    def series(self, inputs) -> int:
        """Series the workload plays; 0 when it plays none."""
        return 0

    def close(self) -> None:
        """Remove whatever ``build`` left on disk."""


class Sweep(Workload):
    name = "sweep"
    # One instance from each block of STRIDE consecutive corpus instances:
    # 2,504 instances whose size mix matches the whole corpus for any seed.
    STRIDE = 4

    def __init__(self, stride: int = STRIDE):
        self.stride = stride

    def build(self, bf, seed: int) -> list:
        corpus = list(bf.adjudicator.generate_instances(3, 5, (0, 1, 2)))
        rng = random.Random(seed)
        return [
            corpus[start + rng.randrange(min(self.stride, len(corpus) - start))]
            for start in range(0, len(corpus), self.stride)
        ]

    def expect(self, bf, sample) -> dict:
        """The sweep's tallies, derived without any search."""
        engine, graph, reconnect, adjudicator = bf.engine, bf.graph, bf.reconnect, bf.adjudicator
        tallies = {"instances": len(sample), "moves": 0, "greedy_checked": 0, "responses_checked": 0}
        for p in sample:
            for busted in engine.enumerate_buster_moves(p):
                tallies["moves"] += 1
                if engine.buster_wins(p, busted):
                    tallies["greedy_checked"] += 1
                    continue
                m = graph.contract(p.graph.without(busted), p.reserve.edges)
                greedy = {frozenset(t.edge_ids) for t in reconnect.all_msts(m)}
                tallies["greedy_checked"] += len(greedy)
                tallies["responses_checked"] += sum(
                    1 for r in adjudicator.enumerate_fixer_responses(p, busted) if r not in greedy
                )
        return tallies

    def run_pass(self, bf, sample) -> Pass:
        done = Pass()

        def feed():
            # The time from a yield to the next pull is the sweep's work on one instance.
            for p in sample:
                done.ref_s.append(reference_slice())
                start = clock()
                yield p
                done.op_s.append(clock() - start)

        try:
            done.outputs.append(bf.adjudicator.theorem_sweep(feed(), compare_prune=True))
        except Exception as exc:
            done.record(exc)
        return done

    def check(self, bf, sample, expected: dict, done: Pass, first: Pass | None = None) -> int:
        """Every instance fails unless the report is clean and its tallies match."""
        if not done.outputs:
            return len(sample)
        report = done.outputs[0]
        got = {key: getattr(report, key) for key in expected}
        return 0 if report.ok and got == expected and len(done.op_s) == len(sample) else len(sample)

    def tallies(self, expected: dict, first: Pass) -> dict:
        return dict(expected)

    def checks(self, expected: dict) -> int:
        return expected["greedy_checked"] + expected["responses_checked"]


def _random_edges(rng: random.Random, n: int, count: int, prefix: str, weight) -> list[tuple]:
    return [(f"{prefix}{i}", rng.randrange(n), rng.randrange(n), weight()) for i in range(count)]


def _sizes(vertices: range, totals: range) -> list[tuple[int, int, int]]:
    """Every (vertices, total edges, graph edges) with a connected graph and a reserve.

    Workloads take these in turn, so every seed has the same size mix and
    only the edges' endpoints and weights vary.
    """
    return [(n, total, g) for n in vertices for total in totals if total > n - 1 for g in range(n - 1, total)]


def _random_graph(rng: random.Random, n: int, total: int, graph_size: int, top_weight: int) -> tuple[list, list]:
    """Graph and reserve edge tuples; a random spanning tree keeps the graph connected."""
    tree = [(f"g{v - 1}", rng.randrange(v), v, 1) for v in range(1, n)]
    extra = _random_edges(rng, n, graph_size - len(tree), "x", lambda: 1)
    reserve = _random_edges(rng, n, total - graph_size, "r", lambda: Fraction(rng.randint(0, 2 * top_weight), 2))
    return tree + extra, reserve


class Engine(Workload):
    name = "engine"
    SERIES = 4000
    SIZES = _sizes(range(2, 5), range(2, 11))

    def __init__(self, count: int = SERIES):
        self.count = count

    def build(self, bf, seed: int) -> list[tuple]:
        """``(position, buster_seed)`` pairs: 2-4 vertices, at most 10 edges, half-integer reserve weights."""
        Edge, Multigraph, Position = bf.graph.Edge, bf.graph.Multigraph, bf.engine.Position
        rng = random.Random(seed)
        items = []
        for index in range(self.count):
            n, total, graph_size = self.SIZES[index % len(self.SIZES)]
            graph, reserve = _random_graph(rng, n, total, graph_size, 3)
            position = Position(
                graph=Multigraph(n, tuple(Edge(*e) for e in graph)),
                reserve=Multigraph(n, tuple(Edge(*e) for e in reserve)),
            )
            items.append((position, rng.randrange(1 << 32)))
        return items

    def expect(self, bf, items) -> None:
        return None

    def run_pass(self, bf, items) -> Pass:
        engine, transcript = bf.engine, bf.transcript
        done = Pass()
        for index, (position, seed) in enumerate(items):
            policy = f"random_buster({seed}) vs greedy_fixer"
            done.ref_s.append(reference_slice())
            start = clock()
            try:
                series = engine.play_series(position, engine.random_buster(seed), engine.greedy_fixer())
                totals = engine.series_totals(series)
                text = transcript.render_transcript(series, scenario=f"engine-{index}", policy=policy)
                replayed = transcript.replay_transcript(position, transcript.parse_transcript(text))
            except Exception as exc:
                done.record(exc)
                totals = text = replayed = None
            done.op_s.append(clock() - start)
            done.outputs.append((totals, text, replayed, policy))
        return done

    def check(self, bf, items, expected: None, done: Pass, first: Pass | None = None) -> int:
        """The re-render must be byte-identical and the totals must match the replay.

        A later pass is compared with the first pass, which was checked in full.
        """
        engine, transcript = bf.engine, bf.transcript
        failed = 0
        for index, (totals, text, replayed, policy) in enumerate(done.outputs):
            if text is None:
                failed += 1
            elif first is not None:
                failed += (totals, text) != first.outputs[index][:2]
            else:
                again = transcript.render_transcript(replayed, scenario=f"engine-{index}", policy=policy)
                failed += again != text or engine.series_totals(replayed) != totals
        return failed

    def tallies(self, expected: None, first: Pass) -> dict:
        totals = [out[0] for out in first.outputs if out[0] is not None]
        return {
            "series": len(first.outputs),
            "rounds": sum(len(out[2].rounds) for out in first.outputs if out[2] is not None),
            "fixer_wins": sum(t.fixer_win for t in totals),
            "busted": sum(t.total_busted for t in totals),
            "spent": str(sum((t.fix_cost for t in totals), Fraction(0))),
        }

    def series(self, items) -> int:
        return len(items)


@dataclass(frozen=True)
class VerifyCase:
    path: str
    busted: str
    candidate: str


class Verify(Workload):
    name = "verify"
    CASES = 3000
    NAMES = "abcd"
    SIZES = _sizes(range(3, 5), range(4, 8))

    def __init__(self, workdir: Path, count: int = CASES):
        self.workdir = workdir
        self.count = count

    def _scenario_text(self, rng: random.Random, n: int, total: int, graph_size: int) -> str:
        graph, reserve = _random_graph(rng, n, total, graph_size, 2)
        lines = [f"vertex {self.NAMES[v]}" for v in range(n)]
        for pool, edges in (("G", graph), ("R", reserve)):
            for edge_id, u, v, weight in edges:
                lines.append(f"edge {edge_id} {self.NAMES[u]} {self.NAMES[v]} {float(weight):g} {pool}")
        return "\n".join(lines) + "\n"

    def build(self, bf, seed: int) -> list[VerifyCase]:
        """Scenario files (3-4 vertices, 4-7 edges), each with a legal non-winning bust and response."""
        engine, adjudicator, scenario = bf.engine, bf.adjudicator, bf.scenario
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cases = []
        while len(cases) < self.count:
            text = self._scenario_text(rng, *self.SIZES[len(cases) % len(self.SIZES)])
            p = scenario.parse_scenario(text).initial_position()
            moves = [b for b in engine.enumerate_buster_moves(p) if not engine.buster_wins(p, b)]
            if not moves:
                continue
            busted = rng.choice(moves)
            candidate = rng.choice(adjudicator.enumerate_fixer_responses(p, busted))
            path = self.workdir / f"case{len(cases)}.scn"
            path.write_text(text, encoding="utf-8")
            cases.append(VerifyCase(str(path), ",".join(sorted(busted)), ",".join(sorted(candidate))))
        return cases

    def expect(self, bf, cases) -> list[bool | None]:
        """Verdicts from the game search and, up to the naive cap, the naive oracle.

        None marks a case where the two disagree or either raises.
        """
        adjudicator, scenario = bf.adjudicator, bf.scenario
        verdicts = []
        for case in cases:
            p = scenario.parse_scenario(Path(case.path).read_bytes()).initial_position()
            busted = frozenset(case.busted.split(","))
            candidate = frozenset(i for i in case.candidate.split(",") if i)
            try:
                verdict = adjudicator.verify_optimal(p, busted, candidate)
                if p.total_edges <= adjudicator.DEFAULT_CAPS.naive_max_total_edges:
                    if adjudicator.verify_optimal_naive(p, busted, candidate) != verdict:
                        verdict = None
            except Exception:
                verdict = None
            verdicts.append(verdict)
        return verdicts

    def run_pass(self, bf, cases) -> Pass:
        cli = bf.cli
        done = Pass()
        for case in cases:
            argv = ["verify", case.path, "--busted", case.busted, "--candidate", case.candidate]
            out, err = io.StringIO(), io.StringIO()
            done.ref_s.append(reference_slice())
            start = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.cli_main(argv)
            except Exception as exc:
                done.record(exc)
                code = None
            done.op_s.append(clock() - start)
            done.outputs.append((code, out.getvalue(), err.getvalue()))
        return done

    def check(self, bf, cases, expected: list, done: Pass, first: Pass | None = None) -> int:
        """The printed verdict and the exit code must match the expected verdict."""
        failed = 0
        for verdict, (code, out, err) in zip(expected, done.outputs):
            want = (0, "OPTIMAL") if verdict else (1, "NOT-OPTIMAL")
            failed += verdict is None or (code, out.split("\n", 1)[0]) != want or "ORACLE-MISMATCH" in err
        return failed

    def tallies(self, expected: list, first: Pass) -> dict:
        return {
            "cases": len(expected),
            "optimal": sum(v is True for v in expected),
            "not_optimal": sum(v is False for v in expected),
        }

    def checks(self, expected: list) -> int:
        return len(expected)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
