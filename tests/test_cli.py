import io
import re
from pathlib import Path

import pytest

from busterfixer import cli_main
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


def test_verify_bundled_scenario_by_name(capsys):
    # falls back to the packaged scenario when no such file exists
    code = cli_main(["verify", SCN, "--busted", "e1,e2", "--candidate", "e4"])
    assert code == 0
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


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-sweep", "--weights", "a"],
        ["theorem-sweep", "--weights", "-1"],
        ["theorem-sweep", "--weights", "1/2"],
        ["replay", SCN, "{latin1}"],
        ["replay", SCN, "{dir}"],
        ["simulate", "{dir}"],
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


def test_play_eof_ends_session(monkeypatch, capsys):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    code = cli_main(["play", SCN])
    out = capsys.readouterr().out
    assert code == 0
    assert "input closed" in out
