import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from busterfixer import cli, cli_main
from busterfixer.scenario import load_bundled_scenario, render_scenario

SCN = "paper_1_2.scn"


def _scenario_path(tmp_path: Path) -> str:
    target = tmp_path / SCN
    target.write_text(render_scenario(load_bundled_scenario(SCN)), encoding="utf-8")
    return str(target)


def test_verify_optimal_exit_zero(tmp_path, capsys):
    code = cli_main(["verify", _scenario_path(tmp_path), "--busted", "e1,e2", "--candidate", "e4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("OPTIMAL")
    assert "witness:" in out


def test_verify_not_optimal_exit_one(tmp_path, capsys):
    code = cli_main(["verify", _scenario_path(tmp_path), "--busted", "e1,e2", "--candidate", "e5"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("NOT-OPTIMAL")
    assert "alternative" in out


def test_verify_flags_no_bridge_prune_and_caps(tmp_path, capsys):
    code = cli_main(
        [
            "verify",
            _scenario_path(tmp_path),
            "--busted",
            "e1,e2",
            "--candidate",
            "e4,e5",
            "--no-bridge-prune",
            "--max-total-edges",
            "7",
            "--naive-cap",
            "5",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out.startswith("NOT-OPTIMAL")


def test_verify_rejects_a_negative_naive_cap(tmp_path, capsys):
    # 0 turns the naive oracle off; a negative cap is a usage error that names the flag
    argv = ["verify", _scenario_path(tmp_path), "--busted", "e1,e2", "--candidate", "e5", "--naive-cap"]
    assert cli_main([*argv, "-4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --naive-cap: must be an integer of at least 0, got '-4'" in err
    assert cli_main([*argv, "0"]) == 1
    assert capsys.readouterr().out.startswith("NOT-OPTIMAL")


def test_verify_names_the_empty_response_as_witness(tmp_path, capsys):
    # busting the only graph loop leaves one connected vertex: the empty
    # response spends nothing, so the candidate's outcome, spent 1,
    # dominates no outcome under it
    loops = tmp_path / "loops.scn"
    loops.write_text("vertex a\nedge g0 a a 1 G\nedge r0 a a 1 R\n", encoding="utf-8")
    assert cli_main(["verify", str(loops), "--busted", "g0", "--candidate", "r0"]) == 1
    assert capsys.readouterr().out == (
        "NOT-OPTIMAL\n"
        "witness: outcome (winner=Fixer, busted=1, spent=1) is not dominated when the alternative response is {}\n"
    )


def test_verify_bundled_scenario_by_name(capsys):
    # falls back to the packaged scenario when no such file exists
    code = cli_main(["verify", SCN, "--busted", "e1,e2", "--candidate", "e4"])
    assert code == 0
    capsys.readouterr()


def test_a_scenario_path_with_a_directory_is_never_a_bundled_name(tmp_path, capsys):
    missing = str(tmp_path / "no" / SCN)
    assert cli_main(["verify", missing, "--busted", "e1,e2", "--candidate", "e4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: no such scenario file: {missing}\n"
    assert cli_main(["msts", f"./{SCN}", "--busted", "e1,e2"]) == 2
    assert capsys.readouterr().err == f"error: no such scenario file: ./{SCN}\n"


@pytest.mark.parametrize(
    "argv, good",
    [
        (["verify", SCN, "--busted", "e1,e2", "--candidate", "e4", "--naive-cap"], "5"),
        (["verify", SCN, "--busted", "e1,e2", "--candidate", "e4", "--max-total-edges"], "5"),
        (["theorem-sweep", "--max-vertices", "1", "--max-total-edges"], "2"),
        (["theorem-sweep", "--max-total-edges", "2", "--max-vertices"], "2"),
    ],
)
def test_every_count_flag_takes_only_ascii_digits(argv, good, capsys):
    flag = argv[-1]
    for text in ("5_0", " +5", "+5", "\u0662", "5.0", "x"):
        assert cli_main([*argv, text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: invalid int value: {text!r}" in err
    assert cli_main([*argv, "-4"]) == 2
    assert f"argument {flag}: must be an integer of at least " in capsys.readouterr().err
    assert cli_main([*argv, good]) == 0
    capsys.readouterr()


def test_msts_lists_single_tree(tmp_path, capsys):
    code = cli_main(["msts", _scenario_path(tmp_path), "--busted", "e1,e2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 minimum spanning tree(s) over 2 component(s)" in out
    assert "{e4} weight 1" in out


def test_msts_unreconnectable_exit_one(tmp_path, capsys):
    bare = tmp_path / "bare.scn"
    bare.write_text("vertex a\nvertex b\nedge g a b 1 G\n", encoding="utf-8")
    code = cli_main(["msts", str(bare), "--busted", "g"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no spanning tree" in out


def test_msts_all_edges_busted_still_spannable(tmp_path, capsys):
    code = cli_main(["msts", _scenario_path(tmp_path), "--busted", "e1,e2,e3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "over 3 component(s)" in out
    assert "{e4,e5} weight 3" in out


def test_msts_spanning_tree_enumeration_capped(tmp_path, capsys):
    # a 14-vertex path, two reserve edges per link, every graph edge busted:
    # comb(26, 13) = 10,400,600 candidate trees must be refused, not tried
    lines = [f"vertex v{i}" for i in range(14)]
    for i in range(13):
        lines.append(f"edge g{i} v{i} v{i + 1} 1 G")
        lines += [f"edge r{i}{side} v{i} v{i + 1} 1 R" for side in "ab"]
    path = tmp_path / "ladder.scn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli_main(["msts", str(path), "--busted", ",".join(f"g{i}" for i in range(13))])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_simulate_scripted_and_replay_round_trip(tmp_path, capsys):
    scenario = _scenario_path(tmp_path)
    transcript_path = tmp_path / "run.txt"
    code = cli_main(["simulate", scenario, "--out", str(transcript_path)])
    assert code == 0
    text = transcript_path.read_text(encoding="utf-8")
    assert "Buster" in text and "# scenario: paper_1_2" in text

    code = cli_main(["replay", scenario, str(transcript_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "REPLAY-OK" in out


@pytest.mark.parametrize("name", [" sp.scn", "x\ny.scn"])
def test_simulate_refuses_a_file_name_a_transcript_cannot_hold(tmp_path, capsys, name):
    # the file's stem is the transcript's scenario label, which replay must read back byte for byte
    scenario = tmp_path / name
    scenario.write_text(render_scenario(load_bundled_scenario(SCN)), encoding="utf-8")
    transcript_path = tmp_path / "run.txt"
    assert cli_main(["simulate", str(scenario), "--out", str(transcript_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not transcript_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_replay_detects_mismatch(tmp_path, capsys):
    scenario = _scenario_path(tmp_path)
    transcript_path = tmp_path / "run.txt"
    cli_main(["simulate", scenario, "--out", str(transcript_path)])
    text = transcript_path.read_text(encoding="utf-8")
    transcript_path.write_text(text.replace("| 2      | 1", "| 2      | 2"), encoding="utf-8")
    code = cli_main(["replay", scenario, str(transcript_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "REPLAY-MISMATCH" in captured.err


def test_replay_zero_row_transcript_names_fixer_the_winner(tmp_path, capsys):
    # one vertex and no edges: the series has no round, so only a Fixer win replays
    scenario = tmp_path / "point.scn"
    scenario.write_text("vertex a\n", encoding="utf-8")
    transcript_path = tmp_path / "run.txt"
    assert cli_main(["simulate", str(scenario), "--out", str(transcript_path)]) == 0
    text = transcript_path.read_text(encoding="utf-8")
    assert text.endswith("\nWinner: Fixer\n")
    assert cli_main(["replay", str(scenario), str(transcript_path)]) == 0
    assert capsys.readouterr().out == "REPLAY-OK\n"
    transcript_path.write_text(text.replace("Winner: Fixer", "Winner: Buster"), encoding="utf-8")
    assert cli_main(["replay", str(scenario), str(transcript_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "REPLAY-MISMATCH: re-rendered transcript differs from the file\n"


def test_replay_byte_only_mismatch(tmp_path, capsys):
    # an extra blank line parses and replays, so only the byte comparison sees it
    scenario = _scenario_path(tmp_path)
    transcript_path = tmp_path / "run.txt"
    cli_main(["simulate", scenario, "--out", str(transcript_path)])
    transcript_path.write_text(transcript_path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    code = cli_main(["replay", scenario, str(transcript_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "REPLAY-MISMATCH: re-rendered transcript differs from the file\n"


def test_simulate_random_seeded_deterministic(tmp_path, capsys):
    # a scenario without a script uses the seeded random Buster
    scenario = tmp_path / "noscript.scn"
    base = load_bundled_scenario(SCN)
    lines = [l for l in render_scenario(base).splitlines() if not l.startswith("buster")]
    scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli_main(["simulate", str(scenario), "--seed", "7"])
    first = capsys.readouterr().out
    assert code == 0
    assert "buster=random(seed=7)" in first
    cli_main(["simulate", str(scenario), "--seed", "7"])
    assert capsys.readouterr().out == first


def test_theorem_sweep_micro(capsys):
    code = cli_main(
        [
            "theorem-sweep",
            "--max-vertices",
            "2",
            "--max-total-edges",
            "3",
            "--weights",
            "0,1",
            "--compare-prune",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "counterexamples: 0" in out
    assert "prune mismatches: 0" in out


def test_theorem_sweep_rejects_naive_cap(capsys):
    # the sweep never runs the naive oracle, so its cap is verify's flag only
    code = cli_main(["theorem-sweep", "--max-vertices", "2", "--max-total-edges", "2", "--naive-cap", "3"])
    assert code == 2
    assert "--naive-cap" in capsys.readouterr().err


def test_theorem_sweep_rejects_no_bridge_prune(capsys):
    # sweep verdicts always come from the pruned search; --compare-prune adds the unpruned one
    code = cli_main(["theorem-sweep", "--max-vertices", "2", "--max-total-edges", "2", "--no-bridge-prune"])
    assert code == 2
    assert "--no-bridge-prune" in capsys.readouterr().err


def test_verify_reports_an_oracle_mismatch(tmp_path, capsys):
    # the two verifiers must agree: a differing naive verdict fails the call and prints no verdict
    scenario = _scenario_path(tmp_path)
    with mock.patch.object(cli.adjudicator, "verify_optimal_naive", return_value=False) as naive:
        code = cli_main(["verify", scenario, "--busted", "e1,e2", "--candidate", "e4"])
    assert naive.call_count == 1
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "ORACLE-MISMATCH: game search says True, naive says False\n")


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli_main(["verify"]) == 2  # missing required flags
    capsys.readouterr()
    bad = tmp_path / "bad.scn"
    bad.write_text("vertex a\nvertex b\nedge g a b 1e9 G\n", encoding="utf-8")
    assert cli_main(["simulate", str(bad)]) == 2
    assert cli_main(["simulate", str(tmp_path / "missing.scn")]) == 2
    assert cli_main(["verify", SCN, "--busted", "zz", "--candidate", "e4"]) == 2


def test_theorem_sweep_decimal_weights(capsys):
    # --weights takes the scenario files' decimal grammar
    code = cli_main(["theorem-sweep", "--max-vertices", "2", "--max-total-edges", "2", "--weights", "0,0.5"])
    assert code == 0
    assert "counterexamples: 0" in capsys.readouterr().out


def test_theorem_sweep_counts_a_repeated_weight_once(capsys):
    # 1 and 1.0 are one weight: the sweep sees each instance once
    code = cli_main(["theorem-sweep", "--max-vertices", "2", "--max-total-edges", "3", "--weights", "0,1,1.0"])
    assert code == 0
    assert "instances: 65" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-sweep", "--weights", "a"],
        ["theorem-sweep", "--weights", "-1"],
        ["theorem-sweep", "--weights", "1/2"],
        ["theorem-sweep", "--weights", ","],
        ["theorem-sweep", "--weights", ""],
        ["theorem-sweep", "--max-vertices", "0"],
        ["theorem-sweep", "--max-vertices", "-1"],
        ["theorem-sweep", "--max-total-edges", "0"],
        ["theorem-sweep", "--max-total-edges", "-3"],
        ["replay", SCN, "{latin1}"],
        ["replay", SCN, "{dir}"],
        ["simulate", "{dir}"],
        ["theorem-sweep", "--weights", "\u0660,\u0661"],
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# scenario: caf\xe9\n".encode("latin-1"))
    argv = [arg.format(latin1=latin1, dir=tmp_path) for arg in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_readme_scenario_example_simulates(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.scn"
    path.write_text(block, encoding="utf-8")
    assert cli_main(["simulate", str(path)]) == 0
    assert "Winner" in capsys.readouterr().out


def test_unrepresentable_edge_id_exits_two(tmp_path, capsys):
    bad = tmp_path / "comma.scn"
    bad.write_text("vertex a\nvertex b\nedge x,y a b 1 G\nedge r a b 1 R\n", encoding="utf-8")
    assert cli_main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'x,y'" in err and "transcripts cannot represent" in err
    assert "Traceback" not in err


def test_play_interactive(monkeypatch, capsys):
    feed = io.StringIO("e1,e2\nquit\n")
    monkeypatch.setattr("sys.stdin", feed)
    monkeypatch.setattr("builtins.input", lambda prompt="": feed.readline().strip())
    code = cli_main(["play", SCN])
    out = capsys.readouterr().out
    assert code == 0
    assert "fixer responds {e4} (cost 1)" in out
    assert "Buster quits" in out


def test_play_rejects_illegal_then_busts(monkeypatch, capsys):
    feed = io.StringIO("bogus\ne1,e2\ne3,e4\n")
    monkeypatch.setattr("builtins.input", lambda prompt="": feed.readline().strip())
    code = cli_main(["play", SCN])
    out = capsys.readouterr().out
    assert code == 0
    assert "illegal move" in out
    assert "Buster wins" in out


def test_play_illegal_move_prints_the_bust_rule(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("e9\n"))
    assert cli_main(["play", SCN]) == 0
    assert capsys.readouterr().out == (
        "playing paper_1_2; enter Buster moves as comma-separated edge ids, or 'quit'\n"
        "round 1: graph {e1,e2,e3} reserve {e4,e5}\n"
        "buster> illegal move: busted must be a nonempty subset of the current graph; try again\n"
        "round 1: graph {e1,e2,e3} reserve {e4,e5}\n"
        "buster> input closed; ending session\n"
    )


def test_play_eof_ends_session(monkeypatch, capsys):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    code = cli_main(["play", SCN])
    out = capsys.readouterr().out
    assert code == 0
    assert "input closed" in out


def test_play_session_quit_first_then_empty_graph(tmp_path, monkeypatch, capsys):
    loop = tmp_path / "loop.scn"
    loop.write_text("vertex a\nedge l a a 1 G\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\nl\nl\n"))
    assert cli_main(["play", str(loop)]) == 0
    assert capsys.readouterr().out == (
        "playing loop; enter Buster moves as comma-separated edge ids, or 'quit'\n"
        "round 1: graph {l} reserve {}\n"
        "buster> cannot quit before making a move; enter a move\n"
        "round 1: graph {l} reserve {}\n"
        "buster> fixer responds {} (cost 0)\n"
        "round 2: graph {} reserve {}\n"
        "graph has no edges left to bust; Fixer wins\n"
    )


def test_play_emptied_graph_line_keeps_the_unspent_reserve(tmp_path, monkeypatch, capsys):
    loops = tmp_path / "loops.scn"
    loops.write_text("vertex a\nedge l a a 1 G\nedge m a a 1 G\nedge r a a 0 R\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("l\nm\n"))
    assert cli_main(["play", str(loops)]) == 0
    assert capsys.readouterr().out == (
        "playing loops; enter Buster moves as comma-separated edge ids, or 'quit'\n"
        "round 1: graph {l,m} reserve {r}\n"
        "buster> fixer responds {} (cost 0)\n"
        "round 2: graph {m} reserve {r}\n"
        "buster> fixer responds {} (cost 0)\n"
        "round 3: graph {} reserve {r}\n"
        "graph has no edges left to bust; Fixer wins\n"
    )


def test_play_session_move_then_eof(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("e1,e2\n"))
    assert cli_main(["play", SCN]) == 0
    assert capsys.readouterr().out == (
        "playing paper_1_2; enter Buster moves as comma-separated edge ids, or 'quit'\n"
        "round 1: graph {e1,e2,e3} reserve {e4,e5}\n"
        "buster> fixer responds {e4} (cost 1)\n"
        "round 2: graph {e3,e4} reserve {e5}\n"
        "buster> input closed; ending session\n"
    )


def test_replay_rows_after_buster_win_is_a_mismatch(tmp_path, capsys):
    scenario = tmp_path / "pair.scn"
    scenario.write_text(
        "vertex a\nvertex b\nedge g1 a b 1 G\nedge g2 a b 1 G\nbuster g1,g2\n", encoding="utf-8"
    )
    transcript_path = tmp_path / "run.txt"
    assert cli_main(["simulate", str(scenario), "--out", str(transcript_path)]) == 0
    with transcript_path.open("a", encoding="utf-8") as handle:
        handle.write("2 | {} | {} | {g1} | {} | 3 | 0 | Buster\n")
        handle.write("3 | {} | {} | {g1} | {} | 4 | 0 | Buster\n")
    assert cli_main(["replay", str(scenario), str(transcript_path)]) == 1
    err = capsys.readouterr().err
    assert "REPLAY-MISMATCH" in err
    assert "Traceback" not in err


# The parser is built once per process and reused by every cli_main call.

_SUBCOMMANDS = ["simulate", "verify", "theorem-sweep", "msts", "replay", "play"]
_SMALL_SWEEP = ["theorem-sweep", "--max-vertices", "2", "--max-total-edges", "3"]


def test_flags_and_defaults_do_not_leak_between_calls(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    scenario = _scenario_path(tmp_path)
    verify = ["verify", scenario, "--busted", "e1,e2", "--candidate", "e4"]
    adjudicator = cli.adjudicator
    with mock.patch.object(adjudicator, "verify_optimal_report", wraps=adjudicator.verify_optimal_report) as report:
        assert cli_main([*verify, "--no-bridge-prune"]) == 0
        assert cli_main(verify) == 0
    assert [call.kwargs["bridge_only"] for call in report.call_args_list] == [False, True]
    with mock.patch.object(adjudicator, "generate_instances", wraps=adjudicator.generate_instances) as gen:
        assert cli_main([*_SMALL_SWEEP, "--weights", "0.5"]) == 0
        assert cli_main(_SMALL_SWEEP) == 0
    assert [call.kwargs["reserve_weights"] for call in gen.call_args_list] == [
        [Fraction(1, 2)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]
    capsys.readouterr()


def test_usage_error_then_valid_call(tmp_path, capsys):
    scenario = _scenario_path(tmp_path)
    assert cli_main(["verify", scenario, "--busted", "e1,e2", "--candidate", "e4", "--naive-cap", "x"]) == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert cli_main(["verify", scenario, "--busted", "e1,e2", "--candidate", "e4"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("OPTIMAL") and err == ""


@pytest.mark.parametrize("command", [[], *([name] for name in _SUBCOMMANDS)])
def test_help_matches_a_freshly_built_parser(command, capsys):
    assert cli_main([*command, "--help"]) == 0
    reused = capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        cli._build_parser.__wrapped__().parse_args([*command, "--help"])
    assert exited.value.code == 0
    assert reused == capsys.readouterr()
    assert reused.out.startswith("usage: busterfixer")


def test_python_dash_m_busterfixer_runs_the_cli():
    # the package's __main__ runs the same CLI, with nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "busterfixer", "theorem-sweep", "--max-vertices", "2", "--max-total-edges", "3"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "counterexamples: 0" in done.stdout.splitlines()


def test_ctrl_c_exits_130_without_traceback(monkeypatch, capsys):
    # the console script turns Ctrl-C into one line and exit 130; cli_main lets it through to in-process callers
    monkeypatch.setattr(cli, "cli_main", mock.Mock(side_effect=KeyboardInterrupt))
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 130
    assert capsys.readouterr() == ("", "interrupted\n")
