"""Series transcripts: fixed-width tables, parsing, and replay checks.

A transcript shows one series round by round with the schema

    j | G_j | R_j | B_j | F_j | sum|B| | sum w(F) | Winner

where G_j and R_j are the graph and reserve entering round j, the sum
columns are running totals, and each row's winner cell names who would
have won had the series ended there (so only a final Buster-win row says
"Buster"). Sets are rendered in id-sorted order and columns are padded to
the table's own widths, making the output byte-deterministic and suitable
for golden-file comparison. Header comment lines carry the scenario name
and the policy/seed identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from .engine import QUIT, Position, Series, Winner, _play, _replay
from .errors import ScenarioParseError
from .graph import EdgeIndex, format_weight

__all__ = ["parse_transcript", "render_transcript", "replay_transcript"]

_COLUMNS = ("j", "G_j", "R_j", "B_j", "F_j", "sum|B|", "sum w(F)", "Winner")

# The shape of the costs render_transcript writes, ``3`` or ``7/2``; lowest terms are checked by rendering back.
_COST_RE = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def _render_ids(ids: frozenset[str]) -> str:
    return "{" + ",".join(sorted(ids)) + "}"


def _parse_ids(text: str) -> frozenset[str]:
    ids = frozenset(part for part in text[1:-1].split(",") if part)
    if _render_ids(ids) != text:
        raise ValueError(f"expected an id set, got {text!r}")
    return ids


def _parse_count(text: str) -> int:
    if re.fullmatch("[0-9]+", text) is None or str(int(text)) != text:
        raise ValueError(f"expected a count like 3, got {text!r}")
    return int(text)


def _parse_cost(text: str) -> Fraction:
    m = _COST_RE.fullmatch(text)
    value = Fraction(int(m[1]), int(m[2] or 1)) if m else None
    if value is None or format_weight(value) != text:
        raise ValueError(f"expected a cost like 3 or 7/2, got {text!r}")
    return value


@dataclass(frozen=True)
class TranscriptRow:
    """One table row; the fields follow the ``_COLUMNS`` order, which replay's mismatch report relies on."""

    round_index: int
    graph_ids: frozenset[str]
    reserve_ids: frozenset[str]
    busted: frozenset[str]
    fixed: frozenset[str]
    busted_total: int
    cost_total: Fraction
    winner: str


@dataclass(frozen=True)
class ParsedTranscript:
    scenario_name: str
    policy: str
    rows: tuple[TranscriptRow, ...]


def transcript_rows(s: Series, index: EdgeIndex, masks: Sequence[tuple[int, int]]) -> list[TranscriptRow]:
    """The one row builder: ``s``'s rows from the (graph, reserve) masks a walk of ``s`` over ``index`` entered."""
    rows = []
    busted_total = cost_total = 0
    for j, ((graph, reserve), record) in enumerate(zip(masks, s.rounds), start=1):
        busted_total += len(record.busted)
        cost_total += index.weight_of(index.mask_of(record.fixed))
        winner = s.outcome.value if j == len(s.rounds) else Winner.FIXER.value
        ids = (index.ids_of(graph), index.ids_of(reserve), record.busted, record.fixed)
        rows.append(TranscriptRow(j, *ids, busted_total, Fraction(cost_total, index.scale), winner))
    return rows


def render_transcript(s: Series, *, scenario: str = "scenario", policy: str = "") -> str:
    """Render one series as a deterministic fixed-width text table.

    A zero-round series, a Fixer win on a graph with no edges, renders as
    the headers plus the line ``Winner: Fixer``. Raises
    ``IllegalMoveError`` when the series does not replay legally.
    """
    return _format_rows(transcript_rows(s, *_replay(s)), scenario, policy)


def _format_rows(rows: Sequence[TranscriptRow], scenario: str, policy: str) -> str:
    """The text :func:`render_transcript` writes for these rows; zero rows are a Fixer win."""
    lines = [f"# scenario: {scenario}"] + ([f"# policy: {policy}"] if policy else [])
    table = [_COLUMNS] + [
        (str(row.round_index), *map(_render_ids, (row.graph_ids, row.reserve_ids, row.busted, row.fixed)),
         str(row.busted_total), format_weight(row.cost_total), row.winner)
        for row in rows
    ]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(_COLUMNS))]
    lines += [" | ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip() for cells in table]
    if not rows:
        lines.append(f"Winner: {Winner.FIXER.value}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> ParsedTranscript:
    """Parse a rendered transcript back into structured rows.

    Each count (``3``), cost (``3`` or ``7/2``) and id set (``{e1,e2}``)
    cell must be exactly the text :func:`render_transcript` writes for its
    value; ``+1``, ``03``, ``1e0``, ``6/2``, ``{e2,e1}`` and the like raise
    ``ScenarioParseError`` with the line number.
    So do a ``# scenario:`` or ``# policy:`` line after the column header
    and a ``Winner:`` line in a transcript with rows, which render never writes.
    """
    scenario_name = ""
    policy = ""
    rows: list[TranscriptRow] = []
    saw_header = False
    winner_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(("# scenario:", "# policy:")) and saw_header:
            raise ScenarioParseError(f"{line.split(':', 1)[0]!r} line after the column header", number)
        if line.startswith("# scenario:"):
            scenario_name = line.split(":", 1)[1].strip()
            continue
        if line.startswith("# policy:"):
            policy = line.split(":", 1)[1].strip()
            continue
        if line.startswith("#"):
            continue
        if line.startswith("Winner:"):
            winner_line = winner_line or number
            continue
        if line.split("|")[0].strip() == "j":
            # the sum|B| column name contains pipes, so match by first cell only
            saw_header = True
            continue
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) != len(_COLUMNS):
            raise ScenarioParseError("malformed transcript row", number)
        try:
            row = TranscriptRow(
                round_index=_parse_count(cells[0]),
                graph_ids=_parse_ids(cells[1]),
                reserve_ids=_parse_ids(cells[2]),
                busted=_parse_ids(cells[3]),
                fixed=_parse_ids(cells[4]),
                busted_total=_parse_count(cells[5]),
                cost_total=_parse_cost(cells[6]),
                winner=cells[7],
            )
        except ValueError as exc:
            raise ScenarioParseError(str(exc), number) from exc
        rows.append(row)
    if not saw_header:
        raise ScenarioParseError("transcript has no column header")
    if rows and winner_line:
        # only a zero-row transcript has a Winner line; a row's own cell names its winner
        raise ScenarioParseError("Winner line in a transcript with rows", winner_line)
    return ParsedTranscript(scenario_name=scenario_name, policy=policy, rows=tuple(rows))


def replay_transcript(initial: Position, parsed: ParsedTranscript) -> Series:
    """Re-execute a transcript and re-assert every recorded column.

    The busted/fixed columns drive the engine's series loop, and every row
    built from that one walk must equal the parsed row, the final winner
    included; illegal moves raise as in ``play_series``. A different row
    count or any differing cell raises ``ScenarioParseError`` naming the
    first mismatching row. The returned series keeps its outcome triple.
    """
    script = parsed.rows
    series, index, masks = _play(
        initial,
        lambda walk, done: script[len(done)].busted if len(done) < len(script) else QUIT,
        lambda busted, done: script[len(done)].fixed,
    )
    rows = transcript_rows(series, index, masks)
    if len(rows) != len(parsed.rows):
        raise ScenarioParseError(f"transcript has {len(parsed.rows)} rows, replay has {len(rows)}")
    for built, row in zip(rows, parsed.rows):
        if built != row:
            mismatches = [
                column
                for column, field in zip(_COLUMNS, fields(TranscriptRow))
                if getattr(built, field.name) != getattr(row, field.name)
            ]
            raise ScenarioParseError(
                f"round {built.round_index}: transcript disagrees with replay on {', '.join(mismatches)}"
            )
    return series
