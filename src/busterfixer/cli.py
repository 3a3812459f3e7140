"""Command-line surface.

Subcommands:

* ``simulate <scenario>`` — run the scenario's script (or a seeded random
  Buster with ``--seed``) against the greedy Fixer and print a transcript.
* ``verify <scenario> --busted <ids> --candidate <ids>`` — adjudicate one
  response; prints OPTIMAL or NOT-OPTIMAL with a witness line.
* ``theorem-sweep`` — exhaustively check greedy optimality (and its
  converse) over all instances within the given caps; prints the report.
* ``msts <scenario> --busted <ids>`` — print every minimum spanning tree
  of the contracted graph after the bust.
* ``replay <scenario> <transcript>`` — re-execute a saved transcript and
  re-assert all of its columns.
* ``play <scenario>`` — interactive loop: you enter Buster moves, the
  engine answers with the greedy fix.

Exit codes: 0 success; 1 verification failure, sweep counterexample, or
replay mismatch (including the no-spanning-tree answer from ``msts``);
2 usage, parse, validation, illegal-move, or cap errors, and unreadable
files. Diagnostics go to stderr; no input ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import adjudicator, engine, transcript
from .errors import (
    BusterWinsError,
    CapExceededError,
    DisconnectedError,
    GameError,
    IllegalMoveError,
    PolicyError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .graph import contract, format_weight, parse_decimal_weight
from .reconnect import all_msts
from .scenario import ScenarioFile, load_bundled_scenario, parse_scenario

_USAGE_ERRORS = (
    ScenarioParseError,
    ScenarioValidationError,
    IllegalMoveError,
    PolicyError,
    CapExceededError,
    BusterWinsError,
)


def _load_scenario(path_text: str) -> ScenarioFile:
    path = Path(path_text)
    if path.exists():
        return parse_scenario(path.read_bytes(), name=path.stem)
    try:
        return load_bundled_scenario(path.name)
    except FileNotFoundError:
        raise ScenarioParseError(f"no such scenario file: {path_text}") from None


def _ids(text: str) -> frozenset[str]:
    return frozenset(part for part in text.split(",") if part)


def _weights(text: str) -> list:
    """Comma-separated reserve weights, in the scenario files' decimal grammar."""
    try:
        return [parse_decimal_weight(w) for w in text.split(",") if w != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _caps(args: argparse.Namespace) -> adjudicator.Caps:
    return adjudicator.Caps(
        max_total_edges=args.max_total_edges,
        naive_max_total_edges=args.naive_cap,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    initial = scenario.initial_position()
    if scenario.script:
        buster = engine.scripted_buster(scenario.script)
        policy_label = "buster=scripted fixer=greedy"
    else:
        buster = engine.random_buster(args.seed)
        policy_label = f"buster=random(seed={args.seed}) fixer=greedy"
    series = engine.play_series(initial, buster, engine.greedy_fixer())
    _emit(transcript.render_transcript(series, scenario=scenario.name, policy=policy_label), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    initial = scenario.initial_position()
    caps = _caps(args)
    result = adjudicator.verify_optimal_report(
        initial, _ids(args.busted), _ids(args.candidate), caps, bridge_only=not args.no_bridge_prune
    )
    if initial.total_edges <= caps.naive_max_total_edges:
        naive = adjudicator.verify_optimal_naive(initial, _ids(args.busted), _ids(args.candidate), caps)
        if naive != result.optimal:
            print(
                f"ORACLE-MISMATCH: game search says {result.optimal}, naive says {naive}",
                file=sys.stderr,
            )
            return 1
    if result.optimal:
        _emit(
            "OPTIMAL\n"
            f"witness: every reachable outcome dominates all {result.alternatives} "
            "alternative response lines\n",
            args.out,
        )
        return 0
    outcome = result.failing_outcome
    assert outcome is not None and result.failing_alternative is not None
    winner = "Fixer" if outcome.fixer_win else "Buster"
    _emit(
        "NOT-OPTIMAL\n"
        f"witness: outcome (winner={winner}, busted={outcome.total_busted}, "
        f"spent={format_weight(outcome.fix_cost)}) is not dominated when the alternative "
        f"response is {{{','.join(sorted(result.failing_alternative))}}}\n",
        args.out,
    )
    return 1


def _cmd_theorem_sweep(args: argparse.Namespace) -> int:
    instances = adjudicator.generate_instances(
        max_vertices=args.max_vertices,
        max_total_edges=args.max_total_edges,
        reserve_weights=args.weights,
    )
    report = adjudicator.theorem_sweep(
        instances,
        _caps(args),
        bridge_only=not args.no_bridge_prune,
        compare_prune=args.compare_prune,
    )
    _emit(report.summary() + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_msts(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    initial = scenario.initial_position()
    busted = _ids(args.busted)
    if not busted or not busted <= initial.graph.ids:
        raise IllegalMoveError("busted must be a nonempty subset of the graph")
    m = contract(initial.graph.without(busted), initial.reserve.edges)
    try:
        trees = all_msts(m)
    except DisconnectedError:
        _emit("no spanning tree: the reserve cannot reconnect this bust\n", args.out)
        return 1
    lines = [f"{len(trees)} minimum spanning tree(s) over {m.component_count} component(s)"]
    for tree in trees:
        lines.append("{" + ",".join(sorted(tree.edge_ids)) + "}" + f" weight {format_weight(tree.total_weight)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    text = Path(args.transcript).read_text(encoding="utf-8")
    parsed = transcript.parse_transcript(text)
    try:
        series = transcript.replay_transcript(scenario.initial_position(), parsed)
    except ScenarioParseError as exc:
        print(f"REPLAY-MISMATCH: {exc}", file=sys.stderr)
        return 1
    rendered = transcript.render_transcript(series, scenario=parsed.scenario_name, policy=parsed.policy)
    if rendered != text:
        print("REPLAY-MISMATCH: re-rendered transcript differs from the file", file=sys.stderr)
        return 1
    print("REPLAY-OK")
    return 0


def _cmd_play(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    pos = scenario.initial_position()
    fixer = engine.greedy_fixer()
    history: list[engine.RoundRecord] = []
    print(f"playing {scenario.name}; enter Buster moves as comma-separated edge ids, or 'quit'")
    while True:
        print(f"round {len(history) + 1}: graph {{{','.join(sorted(pos.graph.ids))}}} "
              f"reserve {{{','.join(sorted(pos.reserve.ids))}}}")
        if len(pos.graph) == 0:
            print("graph has no edges left to bust; Fixer wins")
            return 0
        try:
            entered = input("buster> ").strip()
        except EOFError:
            print("input closed; ending session")
            return 0
        if entered == "quit":
            if not history:
                print("cannot quit before making a move; enter a move")
                continue
            print("Buster quits; Fixer wins")
            return 0
        move = _ids(entered)
        if not move or not move <= pos.graph.ids:
            print("illegal move: must be a nonempty subset of the current graph; try again")
            continue
        if engine.buster_wins(pos, move):
            print(f"busting {{{','.join(sorted(move))}}} cannot be fixed; Buster wins")
            return 0
        fix = fixer(pos, move, tuple(history))
        cost = pos.reserve.weight(fix)
        print(f"fixer responds {{{','.join(sorted(fix))}}} (cost {format_weight(cost)})")
        history.append(engine.RoundRecord(busted=move, fixed=fix))
        pos = engine.apply_round(pos, move, fix)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="busterfixer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    caps_parent = argparse.ArgumentParser(add_help=False)
    caps_parent.add_argument("--max-total-edges", type=int, default=adjudicator.DEFAULT_CAPS.max_total_edges)
    caps_parent.add_argument("--naive-cap", type=int, default=adjudicator.DEFAULT_CAPS.naive_max_total_edges)
    caps_parent.add_argument("--no-bridge-prune", action="store_true")

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("simulate", parents=[out_parent], help="run a scenario against the greedy Fixer")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0, help="random Buster seed when the scenario has no script")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[caps_parent, out_parent], help="adjudicate one Fixer response")
    p.add_argument("scenario")
    p.add_argument("--busted", required=True, help="comma-separated ids Buster removes")
    p.add_argument("--candidate", required=True, help="comma-separated Fixer response ids")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("theorem-sweep", parents=[caps_parent, out_parent],
                       help="check greedy optimality over all instances within caps")
    p.add_argument("--max-vertices", type=int, default=3)
    p.add_argument("--weights", type=_weights, default="0,1,2", help="comma-separated decimal reserve weights")
    p.add_argument("--compare-prune", action="store_true",
                   help="also run every check without the bridge restriction and compare")
    p.set_defaults(func=_cmd_theorem_sweep)

    p = sub.add_parser("msts", parents=[out_parent], help="all minimum spanning trees after a bust")
    p.add_argument("scenario")
    p.add_argument("--busted", required=True)
    p.set_defaults(func=_cmd_msts)

    p = sub.add_parser("replay", help="re-execute a saved transcript and re-assert it")
    p.add_argument("scenario")
    p.add_argument("transcript")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("play", help="interactive Buster against the greedy Fixer")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_play)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
