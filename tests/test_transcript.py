import hashlib
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from busterfixer import (
    Edge,
    IllegalMoveError,
    Multigraph,
    Position,
    Series,
    Winner,
    ScenarioParseError,
    ScenarioValidationError,
    greedy_fixer,
    parse_transcript,
    play_series,
    random_buster,
    render_transcript,
    replay_transcript,
    scripted_buster,
    series_totals,
)
from busterfixer import engine
from busterfixer.graph import EdgeIndex

from conftest import random_instance, triangle_position
from series_tables import ALL_FAMILIES, ALL_SERIES, play_table_series

GOLDEN_DIR = Path(__file__).parent / "golden"


def family_text(rows) -> str:
    initial = triangle_position()
    chunks = []
    for name, first_fix, script, *_ in rows:
        series = play_table_series(initial, first_fix, script)
        chunks.append(
            render_transcript(
                series,
                scenario="paper_1_2",
                policy=f"series={name} buster=scripted fixer=greedy",
            )
        )
    return "\n".join(chunks)


def test_round_entry_row_contents(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    text = render_transcript(series)
    rows = [line for line in text.splitlines() if line and not line.startswith(("#", "j "))]
    cells = [c.strip() for c in rows[1].split("|")]
    assert cells == ["2", "{e3,e4}", "{e5}", "{e3}", "{e5}", "3", "3", "Fixer"]


def test_final_row_carries_outcome(triangle):
    series = play_table_series(
        triangle, {"e4", "e5"}, (frozenset({"e1", "e2"}), frozenset({"e3", "e4", "e5"}))
    )
    text = render_transcript(series)
    last = text.splitlines()[-1]
    cells = [c.strip() for c in last.split("|")]
    assert cells[5] == "5" and cells[6] == "3" and cells[7] == "Buster"


def test_zero_round_series_renders_headers_and_winner(edgeless):
    empty = Series(initial=edgeless, rounds=(), outcome=Winner.FIXER)
    text = render_transcript(empty, scenario="paper_1_2")
    lines = text.splitlines()
    assert lines[0] == "# scenario: paper_1_2"
    assert lines[-1] == "Winner: Fixer"


def test_zero_round_series_renders_exact_bytes(edgeless):
    empty = Series(initial=edgeless, rounds=(), outcome=Winner.FIXER)
    assert render_transcript(empty, scenario="z", policy="p") == (
        "# scenario: z\n# policy: p\nj | G_j | R_j | B_j | F_j | sum|B| | sum w(F) | Winner\nWinner: Fixer\n"
    )


def test_zero_round_series_renders_parses_and_replays(edgeless):
    empty = play_series(edgeless, scripted_buster([]), greedy_fixer())
    text = render_transcript(empty, scenario="z")
    replayed = replay_transcript(edgeless, parse_transcript(text))
    assert replayed == empty and render_transcript(replayed, scenario="z") == text


@pytest.mark.parametrize("label", [" sp", "sp ", "\t", "x\ny", "x\r\ny", "x\ry", "x\u2028y", "x\x1cy", "\n"])
@pytest.mark.parametrize("which", ["scenario", "policy"])
def test_render_refuses_a_label_parse_cannot_read_back(triangle, which, label):
    # parse strips a header line and splits lines as str.splitlines does, so such a label would come back changed
    series = play_series(triangle, random_buster(1), greedy_fixer())
    with pytest.raises(ScenarioValidationError, match="line break or surrounding whitespace"):
        render_transcript(series, **{which: label})


@pytest.mark.parametrize("label", ["", "sp", "x y", "caf\xe9 #1: {a} | b"])
def test_labels_read_back_byte_for_byte(triangle, label):
    series = play_series(triangle, random_buster(1), greedy_fixer())
    parsed = parse_transcript(render_transcript(series, scenario=label, policy=label))
    assert (parsed.scenario_name, parsed.policy) == (label, label)


def test_zero_round_buster_series_is_rejected(triangle):
    with pytest.raises(IllegalMoveError) as exc:
        render_transcript(Series(initial=triangle, rounds=(), outcome=Winner.BUSTER))
    assert type(exc.value) is IllegalMoveError
    assert str(exc.value) == "Buster win requires at least one round"


# sha256 of the 37 table series' transcripts, rendered with scenario=name
# and concatenated in table order; recorded before the engine moved to masks.
TABLE_TRANSCRIPTS_SHA256 = "43b8f5bf19f834ef2800ad68f994bee68d61c837f7e84837dd2dc3d6b2a8d243"


def test_table_transcripts_hash_pinned(triangle):
    digest = hashlib.sha256()
    for name, first_fix, script, *_ in ALL_SERIES:
        digest.update(render_transcript(play_table_series(triangle, first_fix, script), scenario=name).encode())
    assert digest.hexdigest() == TABLE_TRANSCRIPTS_SHA256


@pytest.mark.parametrize("family,rows", ALL_FAMILIES)
def test_golden_tables_byte_match(family, rows):
    expected = (GOLDEN_DIR / f"{family}.txt").read_text(encoding="utf-8")
    assert family_text(rows) == expected


def test_parse_render_inverse(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    text = render_transcript(series, scenario="paper_1_2", policy="buster=scripted fixer=greedy")
    parsed = parse_transcript(text)
    assert parsed.scenario_name == "paper_1_2"
    assert parsed.rows[-1].winner == "Fixer"
    assert [row.busted for row in parsed.rows] == [r.busted for r in series.rounds]
    assert [row.fixed for row in parsed.rows] == [r.fixed for r in series.rounds]


def test_replay_reproduces_identical_series(triangle):
    for name, first_fix, script, *_ in [row for _, rows in ALL_FAMILIES for row in rows]:
        series = play_table_series(triangle, first_fix, script)
        text = render_transcript(series, scenario="paper_1_2", policy=f"series={name}")
        replayed = replay_transcript(triangle, parse_transcript(text))
        assert replayed == series
        again = render_transcript(replayed, scenario="paper_1_2", policy=f"series={name}")
        assert again == text


def test_replay_detects_tampered_totals(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    text = render_transcript(series, scenario="paper_1_2")
    tampered = text.replace("| 3      | 3        | Fixer", "| 3      | 2        | Fixer")
    assert tampered != text
    with pytest.raises(ScenarioParseError):
        replay_transcript(triangle, parse_transcript(tampered))


def test_parse_transcript_requires_header(triangle):
    with pytest.raises(ScenarioParseError):
        parse_transcript("nothing here\n")
    # well-formed rows are not enough without the column header
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    lines = render_transcript(series, scenario="paper_1_2").splitlines(keepends=True)
    headerless = "".join(line for line in lines if not line.startswith("j "))
    assert len(headerless) < len("".join(lines))
    with pytest.raises(ScenarioParseError, match="transcript has no column header"):
        parse_transcript(headerless)


def test_parse_transcript_reads_a_zero_row_transcript_and_skips_comments():
    text = (
        "# scenario: z\n# policy: p\n# any other comment\n"
        "j | G_j | R_j | B_j | F_j | sum|B| | sum w(F) | Winner\nWinner: Fixer\n"
    )
    parsed = parse_transcript(text)
    assert (parsed.scenario_name, parsed.policy, parsed.rows) == ("z", "p", ())
    # the winner line is skipped: a zero-row transcript is always a Fixer win
    assert parse_transcript(text.replace("Winner: Fixer", "Winner: Buster")) == parsed


def _paper_1_2_lines(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    lines = render_transcript(series, scenario="paper_1_2", policy="p").splitlines()
    assert lines[2].startswith("j ") and len(lines) == 5  # two comments, the column header, two rows
    return lines


@pytest.mark.parametrize("winner", ["Winner: Buster", "Winner: nobody", "Winner: Fixer"])
def test_parse_transcript_rejects_a_winner_line_in_a_transcript_with_rows(triangle, winner):
    lines = _paper_1_2_lines(triangle)
    for at in (3, 4, 5):  # before the first row, between the rows, and after the last one
        text = "\n".join(lines[:at] + [winner] + lines[at:]) + "\n"
        with pytest.raises(ScenarioParseError, match=f"^line {at + 1}: Winner line in a transcript with rows$"):
            parse_transcript(text)


@pytest.mark.parametrize("comment", ["# scenario: other", "# policy: q"])
def test_parse_transcript_rejects_a_header_comment_after_the_column_header(triangle, comment):
    lines = _paper_1_2_lines(triangle)
    key = comment.split(":")[0]
    for at in (3, 5):  # right after the column header, and after the last row
        text = "\n".join(lines[:at] + [comment] + lines[at:]) + "\n"
        with pytest.raises(ScenarioParseError, match=f"^line {at + 1}: '{key}' line after the column header$"):
            parse_transcript(text)
    zero_rows = f"# scenario: z\n{lines[2]}\n{comment}\nWinner: Fixer\n"
    with pytest.raises(ScenarioParseError, match=f"^line 3: '{key}' line after the column header$"):
        parse_transcript(zero_rows)
    # any other comment may still stand anywhere
    text = "\n".join(lines) + "\n"
    assert parse_transcript(text + "# a note\n") == parse_transcript(text)


def test_parse_transcript_rejects_an_id_cell_without_braces(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    text = render_transcript(series, scenario="paper_1_2")
    assert text.count("{e1,e2}") == 1
    with pytest.raises(ScenarioParseError, match="expected an id set, got 'e1,e2'"):
        parse_transcript(text.replace("{e1,e2}", "e1,e2"))


def test_parse_transcript_rejects_costs_render_never_writes(triangle):
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    text = render_transcript(series, scenario="paper_1_2")
    row = "| 3      | 3        | Fixer"
    assert row in text
    for cost in ("1e0", "0.5", "3.0", "-3", "3/0", " 3/2x"):
        with pytest.raises(ScenarioParseError):
            parse_transcript(text.replace(row, f"| 3      | {cost} | Fixer"))


@pytest.mark.parametrize("column", [0, 5])
def test_parse_transcript_rejects_counts_render_never_writes(triangle, column):
    # j and sum|B| are written in ASCII digits; int() alone would read each of these as the true count
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    lines = render_transcript(series, scenario="paper_1_2").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("1 "))
    cells = lines[row].split("|")
    count = int(cells[column])
    for text in (f"+{count}", f"0_{count}", chr(ord("\u0660") + count)):
        assert int(text) == count
        cells[column] = f" {text} "
        with pytest.raises(ScenarioParseError, match=re.escape(f"expected a count like 3, got {text!r}")):
            parse_transcript("".join(lines[:row] + ["|".join(cells)] + lines[row + 1:]))


@pytest.mark.parametrize(
    "row,column,text,expected",
    [
        (1, 0, "01", "a count like 3"),
        (2, 5, "03", "a count like 3"),
        (1, 6, "1/1", "a cost like 3 or 7/2"),
        (2, 6, "6/2", "a cost like 3 or 7/2"),
        (1, 1, "{e3,e1,e2}", "an id set"),
        (1, 3, "{e1,,e2}", "an id set"),
        (1, 4, "{e4,e4}", "an id set"),
    ],
    ids=["zero-padded-j", "zero-padded-sum", "cost-over-one", "cost-not-lowest", "ids-unsorted", "ids-empty-part",
         "ids-repeated"],
)
def test_parse_transcript_refuses_cells_that_do_not_render_back(triangle, row, column, text, expected):
    # each cell reads as its row's true value, so replay alone would accept it; only render's own text parses
    series = play_table_series(triangle, {"e4"}, (frozenset({"e1", "e2"}), frozenset({"e3"})))
    lines = render_transcript(series, scenario="paper_1_2").splitlines(keepends=True)
    cells = lines[row + 1].split("|")
    assert cells[column].strip() != text
    cells[column] = f" {text} "
    lines[row + 1] = "|".join(cells)
    message = f"line {row + 2}: expected {expected}, got {text!r}"
    with pytest.raises(ScenarioParseError, match=f"^{re.escape(message)}$"):
        parse_transcript("".join(lines))


def test_every_rendered_transcript_parses(triangle):
    # fractional running costs render as n/d and must read back exactly
    halves = Position(
        graph=triangle.graph,
        reserve=Multigraph(3, tuple(Edge(e.id, e.u, e.v, e.weight / 2) for e in triangle.reserve)),
    )
    for initial in (triangle, halves):
        for _, rows in ALL_FAMILIES:
            for name, first_fix, script, *_ in rows:
                series = play_table_series(initial, first_fix, script)
                text = render_transcript(series, scenario="paper_1_2", policy=f"series={name}")
                parsed = parse_transcript(text)
                assert [row.cost_total for row in parsed.rows] == [
                    sum((initial.reserve.weight(r.fixed) for r in series.rounds[: j + 1]), Fraction(0))
                    for j in range(len(series.rounds))
                ]


def test_replay_rejects_rows_after_buster_win():
    # the series ends at round 1; the two appended rows have no replayed counterpart
    initial = Position(
        graph=Multigraph(2, (Edge("g1", 0, 1, Fraction(1)), Edge("g2", 0, 1, Fraction(1)))),
        reserve=Multigraph(2, ()),
    )
    series = play_series(initial, scripted_buster([{"g1", "g2"}]), greedy_fixer())
    text = render_transcript(series) + (
        "2 | {} | {} | {g1} | {} | 3 | 0 | Buster\n"
        "3 | {} | {} | {g1} | {} | 4 | 0 | Buster\n"
    )
    with pytest.raises(ScenarioParseError, match="3 rows, replay has 1"):
        replay_transcript(initial, parse_transcript(text))


def test_play_totals_render_replay_walks_each_series_three_times(triangle, monkeypatch):
    # one walk each for play, render and replay; totals are kept by the play and the replay
    walked = []
    walk_init = engine._Walk.__init__

    def counting_init(self, index):
        walked.append(index)
        walk_init(self, index)

    monkeypatch.setattr(engine._Walk, "__init__", counting_init)
    series = play_series(triangle, random_buster(1), greedy_fixer())
    totals = series_totals(series)
    text = render_transcript(series, scenario="paper_1_2")
    replayed = replay_transcript(triangle, parse_transcript(text))
    assert series_totals(replayed) == totals
    assert len(series.rounds) == 3 and walked == [engine._index_of(triangle)] * 3


def _chain(p: Position, seed: int) -> str:
    """play -> series_totals -> render -> parse -> replay of ``p``; returns the rendered text."""
    series = play_series(p, random_buster(seed), greedy_fixer())
    totals = series_totals(series)
    text = render_transcript(series, scenario="chain")
    replayed = replay_transcript(p, parse_transcript(text))
    assert series_totals(replayed) == totals and replayed == series
    return text


def _twin(p: Position) -> Position:
    """An equal but distinct ``Position``, so no walk of ``p`` shares its index."""
    return Position(graph=p.graph, reserve=p.reserve)


def test_play_totals_render_replay_builds_one_edge_index(triangle, monkeypatch):
    # the three walks of the chain share the position's index and its memos
    built = []
    index_init = EdgeIndex.__init__

    def counting_init(self, graph, reserve):
        built.append((graph, reserve))
        index_init(self, graph, reserve)

    monkeypatch.setattr(EdgeIndex, "__init__", counting_init)
    _chain(triangle, 1)
    assert built == [(triangle.graph, triangle.reserve)]


def test_interleaved_walks_of_two_positions_read_as_fresh_runs():
    # A, B, A at every step of the chain: each walk whose position left the
    # slot builds a new index, and every transcript equals a fresh run's
    rng = random.Random(7)
    a, b = random_instance(rng), random_instance(rng)
    played = [play_series(p, random_buster(3), greedy_fixer()) for p in (a, b, a)]
    assert all(s.rounds for s in played)
    texts = [render_transcript(s, scenario="chain") for s in played]
    replayed = [replay_transcript(p, parse_transcript(t)) for p, t in zip((a, b, a), texts)]
    assert replayed == played
    assert texts == [_chain(_twin(p), 3) for p in (a, b, a)]


def test_equal_positions_get_their_own_index(triangle):
    # the slot is keyed by identity, not ==
    twin = _twin(triangle)
    assert twin == triangle and twin is not triangle
    index = engine._index_of(triangle)
    assert engine._index_of(triangle) is index
    assert engine._index_of(twin) is not index
    assert engine._index_of(triangle) is not index
    assert _chain(triangle, 1) == _chain(twin, 1)


def test_two_threads_play_and_replay_as_one_thread_does():
    # two threads keep swapping the slot; each must still walk its own position's index
    rng = random.Random(9)
    positions = [random_instance(rng) for _ in range(2)]
    seeds = range(150)
    expected = [[_chain(_twin(p), seed) for seed in seeds] for p in positions]
    got: list = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(k):
        start.wait()
        got[k] = [_chain(positions[k], seed) for seed in seeds]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
