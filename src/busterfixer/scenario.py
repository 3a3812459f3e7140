"""Scenario files: the flat-text format instances are loaded from.

Line-based grammar, order-independent except that ``buster`` script lines
play in file order::

    # comment                      blank lines and comments are ignored
    vertex <name>
    edge <id> <u-name> <v-name> <weight> <G|R>
    buster <id>[,<id>...]
    buster quit

Weights are plain decimal strings (``2`` or ``0.25``), parsed to exact
rationals; scientific notation is rejected so the format stays trivially
portable. The G pool must form a connected graph. Edge ids may not contain
``,``, ``{``, ``}``, ``|`` or ``#`` (transcripts write id sets as ``{a,b}``
in ``|``-separated rows) nor be ``quit`` (``buster quit`` is the quit
directive), since such an id could not be read back.
Syntax problems raise ``ScenarioParseError`` with a line number; semantic
problems (duplicate or unrepresentable ids, unresolved names, negative
weights, a disconnected G pool) raise ``ScenarioValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .engine import QUIT, BusterAction, Position, _QuitToken
from .errors import ScenarioParseError, ScenarioValidationError
from .graph import (_ID_RE, _RESERVED_ID_CHARACTERS, Edge, Multigraph, format_decimal_weight, is_connected,
                    parse_decimal_weight)

__all__ = ["ScenarioFile", "load_bundled_scenario", "parse_scenario", "render_scenario"]


@dataclass(frozen=True, slots=True)
class EdgeDeclaration:
    id: str
    u_name: str
    v_name: str
    weight: Fraction
    pool: str  # "G" or "R"


@dataclass(frozen=True, slots=True)
class ScenarioFile:
    """A parsed scenario: named vertices, pooled edges, optional script."""

    name: str
    vertex_names: tuple[str, ...]
    edges: tuple[EdgeDeclaration, ...]
    script: tuple[BusterAction, ...]
    _position: Position | None = field(default=None, init=False, compare=False, repr=False)

    def initial_position(self) -> Position:
        """The starting position, with names resolved to dense indices.

        It is built once per scenario, into the ``_position`` slot
        (``parse_scenario`` builds it to check the G pool), and every call
        returns that same immutable object.
        """
        if self._position is None:
            index = {name: i for i, name in enumerate(self.vertex_names)}
            pools: dict[str, list[Edge]] = {"G": [], "R": []}
            for decl in self.edges:
                pools[decl.pool].append(Edge(decl.id, index[decl.u_name], index[decl.v_name], decl.weight))
            n = len(self.vertex_names)
            graph, reserve = Multigraph(n, tuple(pools["G"])), Multigraph(n, tuple(pools["R"]))
            object.__setattr__(self, "_position", Position(graph=graph, reserve=reserve))
        return self._position


def parse_scenario(text: bytes | str, name: str = "scenario") -> ScenarioFile:
    """Parse scenario text; the name is supplied by the caller (no directive)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"not valid UTF-8: {exc}") from exc

    vertices: list[str] = []
    declarations: list[EdgeDeclaration] = []
    script: list[BusterAction] = []

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "vertex":
            if len(fields) != 2:
                raise ScenarioParseError("expected: vertex <name>", number)
            if fields[1] in vertices:
                raise ScenarioValidationError(f"duplicate vertex name {fields[1]!r}")
            vertices.append(fields[1])
        elif keyword == "edge":
            if len(fields) != 6:
                raise ScenarioParseError("expected: edge <id> <u> <v> <weight> <G|R>", number)
            _, edge_id, u_name, v_name, weight_text, pool = fields
            if pool not in ("G", "R"):
                raise ScenarioParseError(f"pool must be G or R, got {pool!r}", number)
            try:
                weight = parse_decimal_weight(weight_text)
            except ValueError as exc:
                if "negative" in str(exc):
                    raise ScenarioValidationError(f"edge {edge_id}: {exc}") from exc
                raise ScenarioParseError(str(exc), number) from exc
            declarations.append(EdgeDeclaration(edge_id, u_name, v_name, weight, pool))
        elif keyword == "buster":
            if len(fields) != 2:
                raise ScenarioParseError("expected: buster <id>[,<id>...] or buster quit", number)
            if fields[1] == "quit":
                script.append(QUIT)
            else:
                ids = [part for part in fields[1].split(",") if part]
                if not ids:
                    raise ScenarioParseError("empty buster move", number)
                script.append(frozenset(ids))
        else:
            raise ScenarioParseError(f"unknown directive {keyword!r}", number)

    if not vertices:
        raise ScenarioValidationError("scenario declares no vertices")
    seen_ids: set[str] = set()
    names = set(vertices)
    for decl in declarations:
        if decl.id in seen_ids:
            raise ScenarioValidationError(f"duplicate edge id {decl.id!r}")
        if not _ID_RE.fullmatch(decl.id) or decl.id == "quit":
            raise ScenarioValidationError(
                f"edge id {decl.id!r} is quit or contains one of {_RESERVED_ID_CHARACTERS},"
                " which scripts and transcripts cannot represent"
            )
        seen_ids.add(decl.id)
        for endpoint in (decl.u_name, decl.v_name):
            if endpoint not in names:
                raise ScenarioValidationError(f"edge {decl.id}: unknown vertex {endpoint!r}")
    for action in script:
        if isinstance(action, _QuitToken):
            continue
        unknown = action - seen_ids
        if unknown:
            raise ScenarioValidationError(f"script references unknown edge ids {sorted(unknown)}")

    scenario = ScenarioFile(
        name=name,
        vertex_names=tuple(vertices),
        edges=tuple(declarations),
        script=tuple(script),
    )
    if not is_connected(scenario.initial_position().graph):
        raise ScenarioValidationError("G-pool edges do not form a connected graph")
    return scenario


def render_scenario(scenario: ScenarioFile) -> str:
    """Write a scenario back out; parse(render(parse(x))) == parse(x)."""
    lines = [f"# {scenario.name}"]
    for name in scenario.vertex_names:
        lines.append(f"vertex {name}")
    for d in scenario.edges:
        lines.append(f"edge {d.id} {d.u_name} {d.v_name} {format_decimal_weight(d.weight)} {d.pool}")
    for action in scenario.script:
        if isinstance(action, _QuitToken):
            lines.append("buster quit")
        else:
            lines.append("buster " + ",".join(sorted(action)))
    return "\n".join(lines) + "\n"


def load_bundled_scenario(filename: str) -> ScenarioFile:
    """Load one of the scenarios shipped inside the package."""
    data = resources.files("busterfixer").joinpath("scenarios", filename).read_bytes()
    stem = filename.rsplit(".", 1)[0]
    return parse_scenario(data, name=stem)
