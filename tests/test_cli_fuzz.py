"""CLI fuzzing: no argv, file contents or stdin make the CLI raise or print a traceback.

``cli_main`` runs ``simulate``, ``verify``, ``msts`` and ``replay`` on argv
built from their options and on small scenario and transcript files, some
well formed and some mangled, and ``play`` on such scenarios with stdin
lines of edge ids, ``quit``, blanks and junk, ending in end of file. It
must return 0, 1 or 2 and its output must never hold a traceback.
``theorem-sweep`` runs with its size flags fixed first and drawn from at
most 2 vertices and 3 edges, since its legal arguments can otherwise run
for minutes. Scenarios stay within 6 edges and the naive oracle's cap
within 5, so every example runs in milliseconds.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from busterfixer import cli_main, render_transcript
from busterfixer.engine import greedy_fixer, play_series, scripted_buster
from busterfixer.scenario import load_bundled_scenario, render_scenario

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

_PAPER = load_bundled_scenario("paper_1_2.scn")
_PAPER_TEXT = render_scenario(_PAPER)
_PAPER_TRANSCRIPT = render_transcript(
    play_series(_PAPER.initial_position(), scripted_buster(_PAPER.script), greedy_fixer()),
    scenario=_PAPER.name,
    policy="buster=scripted fixer=greedy",
)

_IDS = st.sampled_from(["e1", "e2", "e3", "e4", "e5", "zz", "quit", "x,y", ""])
_NAMES = st.sampled_from(["a", "b", "c", "d", ""])
_WEIGHTS = st.sampled_from(["0", "1", "2", "0.5", "-1", "1e0", "1/2", "x"])
_JUNK = st.text(alphabet="ab e1,{}|#-.0/\t\xe9", max_size=12)

_SCENARIO_LINE = st.one_of(
    st.builds("vertex {}".format, _NAMES),
    st.builds(
        "edge {} {} {} {} {}".format, _IDS, _NAMES, _NAMES, _WEIGHTS, st.sampled_from(["G", "R", "Q"])
    ),
    st.builds("buster {}".format, st.lists(_IDS, max_size=3).map(",".join)),
    _JUNK,
)


@st.composite
def _mangled(draw, text: str) -> str:
    """``text`` with a few lines deleted, duplicated or replaced by junk."""
    lines = text.splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(_JUNK)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _scenarios():
    vertices = "vertex a\nvertex b\nvertex c\n"
    built = st.lists(_SCENARIO_LINE, max_size=6).map(lambda lines: vertices + "\n".join(lines) + "\n")
    return st.one_of(_mangled(_PAPER_TEXT), built)


_INTS = st.sampled_from(["-1", "0", "2", "5", "x"])
_ID_LIST = st.lists(_IDS, max_size=3).map(",".join)
# Legal-looking moves on the paper triangle: graph ids e1-e3, reserve ids e4-e5.
_BUST = st.one_of(st.sets(st.sampled_from(["e1", "e2", "e3"]), min_size=1).map(sorted).map(",".join), _ID_LIST)
_FIX = st.one_of(st.sets(st.sampled_from(["e4", "e5"])).map(sorted).map(",".join), _ID_LIST)
_OPTION = st.one_of(
    st.tuples(st.just("--seed"), _INTS),
    st.tuples(st.just("--busted"), _ID_LIST),
    st.tuples(st.just("--candidate"), _ID_LIST),
    st.tuples(st.just("--max-total-edges"), _INTS),
    st.tuples(st.just("--naive-cap"), _INTS),
    st.tuples(st.just("--out"), st.sampled_from(["{dir}/out.txt", "{dir}"])),
    st.tuples(st.sampled_from(["--no-bridge-prune", "--help", "-x", "e1", "{scenario}"])),
)
_PATHS = st.sampled_from(["{scenario}", "{transcript}", "{dir}/missing.scn", "{dir}", "paper_1_2.scn"])


@st.composite
def _argv(draw) -> list[str]:
    """Mostly well-formed calls, so the fuzzer gets past argparse and the file parsers."""
    command = draw(st.sampled_from(["simulate", "verify", "msts", "replay"]))
    argv = [command, draw(st.one_of(st.just("{scenario}"), st.just("paper_1_2.scn"), _PATHS))]
    if command == "replay":
        argv.append(draw(st.one_of(st.just("{transcript}"), _PATHS)))
    if command in ("verify", "msts"):
        argv += ["--busted", draw(_BUST)]
    if command == "verify":
        argv += ["--candidate", draw(_FIX)]
    for option in draw(st.lists(_OPTION, max_size=3)):
        argv.extend(option)
    return argv


@FUZZ
@given(argv=_argv(), scenario=_scenarios(), transcript=_mangled(_PAPER_TRANSCRIPT), raw=st.booleans())
def test_cli_never_raises_or_shows_a_traceback(argv, scenario, transcript, raw):
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp, "fuzz.scn")
        scenario_path.write_bytes(scenario.encode("latin-1" if raw else "utf-8", "replace"))
        transcript_path = Path(tmp, "fuzz.txt")
        transcript_path.write_text(transcript, encoding="utf-8")
        argv = [arg.format(dir=tmp, scenario=scenario_path, transcript=transcript_path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # nothing the CLI writes may land outside the temporary directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


# Scenarios worth playing, each with the edge ids its moves are drawn from:
# the paper triangle, a lone loop (Buster runs out of edges) and a pair of
# parallel edges whose only reserve edge is a loop (busting both wins).
_PLAYABLE = [
    (_PAPER_TEXT, ["e1", "e2", "e3", "e4", "e5"]),
    ("vertex a\nedge l a a 1 G\n", ["l"]),
    ("vertex a\nvertex b\nedge g1 a b 1 G\nedge g2 a b 1 G\nedge r1 a a 0.5 R\n", ["g1", "g2", "r1"]),
]


@st.composite
def _sessions(draw) -> tuple[str, list[str]]:
    """A scenario, mostly playable, and the stdin lines of one session."""
    text, ids = draw(st.sampled_from(_PLAYABLE))
    text = draw(st.one_of(st.just(text), st.just(text), st.just(text), _mangled(text), _scenarios()))
    move = st.sets(st.sampled_from(ids), min_size=1).map(sorted).map(",".join)
    line = st.one_of(move, move, move, st.just("quit"), st.just(""), _IDS, _JUNK)
    return text, draw(st.lists(line, max_size=8))


@FUZZ
@given(session=_sessions())
def test_play_never_raises_or_shows_a_traceback(session):
    scenario, lines = session
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp, "fuzz.scn")
        scenario_path.write_text(scenario, encoding="utf-8")
        stdin = io.StringIO("".join(f"{line}\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["play", str(scenario_path)])
    assert code in (0, 1, 2), (lines, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()


_SWEEP_EXTRA = st.one_of(
    st.tuples(
        st.just("--weights"),
        st.one_of(_JUNK, st.lists(st.sampled_from(["0", "1", "2", "0.5", "1.25"]), max_size=3).map(",".join)),
    ),
    st.tuples(st.sampled_from(["--compare-prune", "--no-bridge-prune", "--help"])),
    st.tuples(st.just("--naive-cap"), _INTS),
    st.tuples(st.just("--out"), st.just("{dir}/o.txt")),
)


@st.composite
def _sweep_argv(draw) -> list[str]:
    """The two size flags, kept tiny, then up to three extras that cannot override them."""
    argv = [
        "theorem-sweep",
        "--max-vertices",
        draw(st.sampled_from(["x", "-1", "0", "1", "2"])),
        "--max-total-edges",
        draw(st.sampled_from(["x", "-1", "0", "1", "2", "3"])),
    ]
    for extra in draw(st.lists(_SWEEP_EXTRA, max_size=3)):
        argv.extend(extra)
    return argv


@FUZZ
@given(argv=_sweep_argv())
def test_theorem_sweep_never_raises_or_shows_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
