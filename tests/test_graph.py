import pickle
import random
import re
from fractions import Fraction
from math import gcd
from types import MemberDescriptorType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from busterfixer import (
    CapExceededError,
    Caps,
    Edge,
    IllegalMoveError,
    Multigraph,
    component_count,
    components,
    contract,
    enumerate_buster_moves,
    format_weight,
    generate_instances,
    is_connected,
    parse_decimal_weight,
)
from busterfixer.graph import DEFAULT_CAPS, EdgeIndex, format_decimal_weight, relabelling_sums

from conftest import brute_force_form, random_multigraph, triangle_position
from test_properties import PROPERTY


def _graph(n, quads):
    return Multigraph(n, tuple(Edge(i, u, v, Fraction(w)) for i, u, v, w in quads))


TRIANGLE = _graph(3, [("e1", 0, 1, 1), ("e2", 1, 2, 1), ("e3", 2, 0, 1)])
PATH = _graph(3, [("e3", 2, 0, 1), ("e4", 0, 1, 1)])  # c-a, a-b


def test_parse_decimal_weight_exact():
    assert parse_decimal_weight("2") == 2
    assert parse_decimal_weight("0.25") == Fraction(1, 4)
    assert parse_decimal_weight("10.10") == Fraction(101, 10)
    assert parse_decimal_weight(" 3 ") == 3


@pytest.mark.parametrize("bad", ["1e3", "1E3", ".5", "1.", "+1", "", "nan", "1/2"])
def test_parse_decimal_weight_rejects_nondecimal(bad):
    with pytest.raises(ValueError):
        parse_decimal_weight(bad)


def test_parse_decimal_weight_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        parse_decimal_weight("-1")


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=30)


@PROPERTY
@given(_DIGITS, st.none() | _DIGITS)
def test_parse_decimal_weight_equals_fraction_of_the_text(whole, frac):
    text = whole if frac is None else f"{whole}.{frac}"
    assert parse_decimal_weight(text) == Fraction(text)


_POWER = st.integers(0, 30)


@PROPERTY
@given(st.integers(0, 10**12), _POWER, _POWER)
def test_format_decimal_weight_round_trips_every_decimal_fraction(n, a, b):
    x = Fraction(n, 2**a * 5**b)
    assert parse_decimal_weight(format_decimal_weight(x)) == x


@PROPERTY
@given(st.integers(0, 10**12), _POWER, _POWER, st.integers(3, 10**6).filter(lambda m: gcd(m, 10) == 1))
def test_format_decimal_weight_refuses_another_prime_factor(n, a, b, m):
    x = Fraction(n * m + 1, 2**a * 5**b * m)  # coprime to m, so m stays in the denominator
    with pytest.raises(ValueError, match="has no exact decimal representation"):
        format_decimal_weight(x)


def test_format_weight():
    assert format_weight(Fraction(3)) == "3"
    assert format_weight(Fraction(7, 2)) == "7/2"


def test_edge_validation():
    for weight, text in ((-1, "-1"), (Fraction(-1), "-1"), (Fraction(-1, 2), "-1/2")):
        with pytest.raises(ValueError, match=f"^edge x: negative weight {text}$"):
            Edge("x", 0, 1, weight)
    with pytest.raises(ValueError):
        Edge("x", -1, 0, Fraction(1))
    loop = Edge("l", 2, 2, Fraction(0))
    assert loop.is_loop


@pytest.mark.parametrize("weight", [0.1, 1.0, -1.0, "1", None])
def test_edge_takes_only_exact_weights(weight):
    # a float would be stored as its binary expansion: 0.1 is not 1/10
    with pytest.raises(TypeError, match="weight must be an int or a Fraction"):
        Edge("x", 0, 1, weight)
    assert Edge("x", 0, 1, 2).weight == Fraction(2)


@pytest.mark.parametrize(
    "args,message",
    [
        ((5, 0, 1, 1), r"^edge 5: id must be a str$"),
        ((None, 0, 1, 1), r"^edge None: id must be a str$"),
        (("a", 0.0, 1, 1), r"^edge a: vertex indices must be ints, got 0\.0 and 1$"),
        (("a", 0, "1", 1), r"^edge a: vertex indices must be ints, got 0 and '1'$"),
        (("a", Fraction(0), 1, 1), r"^edge a: vertex indices must be ints, got Fraction\(0, 1\) and 1$"),
    ],
    ids=["int-id", "no-id", "float-endpoint", "str-endpoint", "fraction-endpoint"],
)
def test_edge_refuses_a_non_str_id_and_non_int_endpoints_when_built(args, message):
    # each would otherwise pass construction and fail later: in union-find, or in a transcript's join
    with pytest.raises(TypeError, match=message):
        Edge(*args)


@pytest.mark.parametrize("edge_id", ["", " ", "a b", "a\tb", "x,y", "{x", "r}", "x|y", "x#y"])
def test_edge_refuses_an_id_transcripts_cannot_write_back(edge_id):
    # a transcript writes id sets as {a,b} cells in |-separated rows: the ids x,y and r}
    # would render as {x,y,z} | {r}}, which replays as other sets, and an empty id as {}
    with pytest.raises(ValueError, match=re.escape(f"edge id {edge_id!r} is empty or holds whitespace or one of ")):
        Edge(edge_id, 0, 1, 1)


def test_edge_checks_keep_their_order():
    # an id is checked first; a weight's checks come before the endpoints'
    with pytest.raises(TypeError, match="id must be a str"):
        Edge(5, -1, 0.0, 1.5)
    with pytest.raises(TypeError, match="weight must be an int or a Fraction"):
        Edge("a", 0.0, 1, 1.5)
    with pytest.raises(ValueError, match="^edge a: negative weight -1$"):
        Edge("a", 0.0, 1, -1)


@pytest.mark.parametrize("vertex_count", [2.5, 2.0, "2", None])
def test_multigraph_refuses_a_non_int_vertex_count(vertex_count):
    with pytest.raises(TypeError, match=f"^vertex_count must be an int, got {re.escape(repr(vertex_count))}$"):
        Multigraph(vertex_count, ())


def test_multigraph_validation():
    # each check names its own fault, and they run in this order: vertex count, duplicate ids, then range by id
    with pytest.raises(ValueError, match=r"^vertex_count must be positive$"):
        Multigraph(0, (Edge("a", 0, 1, 1), Edge("a", 0, 1, 1)))
    with pytest.raises(ValueError, match=r"^duplicate edge ids in multigraph$"):
        Multigraph(2, (Edge("a", 0, 5, 1), Edge("a", 0, 1, 1)))
    with pytest.raises(ValueError, match=r"^edge b references vertex outside 0\.\.1$"):
        Multigraph(2, (Edge("c", 0, 7, 1), Edge("b", 3, 0, 1)))
    with pytest.raises(ValueError, match=r"^edge a references vertex outside 0\.\.1$"):
        Multigraph(2, (Edge("a", 0, 2, Fraction(1)),))


def _assert_ids_built(g):
    # ids is a plain slot, read by a member descriptor that computes nothing, so the graph stored it when built
    slot = vars(Multigraph)["ids"]
    assert isinstance(slot, MemberDescriptorType) and not hasattr(g, "__dict__")
    assert slot.__get__(g) == frozenset(e.id for e in g.edges)
    assert g.ids is slot.__get__(g)


def test_multigraph_builds_its_id_set_once_whichever_way_it_is_built():
    _assert_ids_built(TRIANGLE)
    _assert_ids_built(Multigraph(1, ()))
    _assert_ids_built(TRIANGLE.without({"e2"}))
    _assert_ids_built(PATH.with_edges([Edge("e9", 1, 2, 3)]))
    _assert_ids_built(contract(PATH, [Edge("r1", 1, 2, 1), Edge("r0", 0, 0, 2)]))
    index = EdgeIndex(PATH, _graph(3, [("r1", 1, 2, 1), ("r0", 0, 0, 2)]))
    _assert_ids_built(index.multigraph(0b1011))
    copy = pickle.loads(pickle.dumps(TRIANGLE))
    assert copy == TRIANGLE
    _assert_ids_built(copy)


def test_multigraph_without_requires_membership():
    with pytest.raises(IllegalMoveError):
        TRIANGLE.without({"zzz"})


def test_components_triangle_single():
    assert component_count(TRIANGLE) == 1


def test_components_after_bust():
    # only c-a left: {a,c} together, {b} alone
    g = _graph(3, [("e3", 2, 0, 1)])
    assert components(g) == (0, 1, 0)
    assert component_count(g) == 2


def test_components_edgeless():
    g = Multigraph(3, ())
    assert components(g) == (0, 1, 2)


def test_components_labels_canonical_by_min_vertex():
    g = _graph(4, [("a", 2, 3, 1), ("b", 0, 1, 1)])
    # component of vertex 0 gets label 0 even though its edge sorts later
    assert components(g) == (0, 0, 1, 1)
    assert components(g) == components(_graph(4, [("b", 0, 1, 1), ("a", 2, 3, 1)]))


def test_is_connected_examples():
    assert is_connected(PATH)
    assert not is_connected(_graph(3, [("e5", 1, 2, 2)]))
    assert is_connected(Multigraph(1, ()))


def test_components_is_connected_agree():
    rng = random.Random(7)
    for _ in range(300):
        g = random_multigraph(rng)
        assert is_connected(g) == (component_count(g) == 1)


def test_contract_two_components():
    p = triangle_position()
    base = p.graph.without({"e1", "e2"})
    m = contract(base, p.reserve.edges)
    assert isinstance(m, Multigraph) and m.vertex_count == 2
    ends = {frozenset((e.u, e.v)) for e in m.edges}
    assert ends == {frozenset((0, 1))}  # both reserve edges join the two components
    assert [e.id for e in m.edges] == ["e4", "e5"]  # contracted edges keep their reserve ids


def test_contract_connected_base_all_loops():
    p = triangle_position()
    m = contract(p.graph, p.reserve.edges)
    assert isinstance(m, Multigraph) and m.vertex_count == 1
    assert all(e.is_loop for e in m.edges)


def test_contract_edgeless_base():
    base = Multigraph(3, ())
    m = contract(base, [Edge("r", 0, 1, Fraction(1))])
    assert isinstance(m, Multigraph) and m.vertex_count == 3
    assert not m.edges[0].is_loop


def test_contract_preserves_ids_weights_cardinality():
    rng = random.Random(23)
    for _ in range(200):
        base = random_multigraph(rng, max_vertices=5, max_edges=6)
        reserve = [
            Edge(f"r{i}", rng.randrange(base.vertex_count), rng.randrange(base.vertex_count), Fraction(rng.randrange(4)))
            for i in range(rng.randrange(5))
        ]
        rng.shuffle(reserve)
        m = contract(base, reserve)
        labels = components(base)
        assert isinstance(m, Multigraph) and m.vertex_count == max(labels) + 1
        assert [e.id for e in m.edges] == sorted(e.id for e in reserve)  # in id order, whatever the input order
        assert sorted((e.id, e.weight) for e in m.edges) == sorted((e.id, e.weight) for e in reserve)
        for e in m.edges:
            original = next(r for r in reserve if r.id == e.id)
            assert (e.u, e.v) == (labels[original.u], labels[original.v])
            assert e.is_loop == (labels[original.u] == labels[original.v])


def _pooled_triples(p):
    return [(0, e.u, e.v, e.weight) for e in p.graph] + [(1, e.u, e.v, e.weight) for e in p.reserve]


_WIDTH = DEFAULT_CAPS.max_total_edges.bit_length()  # the sweep's field width


def _sweep_key(n, triples, labels):
    """The sweep's class key of ``(pool, u, v, weight)`` triples: the vertex count and the least relabelling sum.

    As ``theorem_sweep`` labels them: every graph edge (pool 0) 0, whatever its weight, and each reserve
    weight by its exact ratio, first seen first in ``labels``, which keys to be compared must share.
    """
    edges = [(labels.setdefault(w.as_integer_ratio(), len(labels) + 1) if pool else 0, u, v) for pool, u, v, w in triples]
    return n, min(relabelling_sums(n, edges, _WIDTH))


def _oracle_key(n, triples):
    """``brute_force_form``'s key of the same triples, graph weights ignored as the sweep ignores them."""
    return n, brute_force_form(n, [(pool, u, v, w if pool else 0) for pool, u, v, w in triples])


def test_relabelling_sums_key_is_equal_across_relabellings():
    rng, labels = random.Random(41), {}
    for p in generate_instances(3, 4, (0, 1, 2)):
        n, triples = p.graph.vertex_count, _pooled_triples(p)
        key = _sweep_key(n, triples, labels)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [(pool, perm[u], perm[v], w) for pool, u, v, w in triples]
        rng.shuffle(moved)
        assert _sweep_key(n, moved, labels) == key


def test_relabelling_sums_key_separates_a_path_by_its_middle_vertex():
    # the reserve path 0-1-2 and the path 1-0-2 are relabellings; a heavier
    # leaf edge is not, nor a leaf edge moved into the graph; graph weights
    # are ignored as the sweep ignores them
    path, labels = [(1, 0, 1, Fraction(1)), (1, 1, 2, Fraction(2))], {}
    key = _sweep_key(3, path, labels)
    assert key == _sweep_key(3, [(1, 1, 0, Fraction(1)), (1, 0, 2, Fraction(2))], labels)
    assert key != _sweep_key(3, [(1, 0, 1, Fraction(2)), (1, 1, 2, Fraction(2))], labels)
    assert key != _sweep_key(3, [(1, 0, 1, Fraction(1)), (0, 1, 2, Fraction(2))], labels)
    graph_path = [(0, u, v, w) for _, u, v, w in path]
    assert _sweep_key(3, graph_path, labels) == _sweep_key(3, [(0, 0, 1, Fraction(2)), (0, 1, 2, Fraction(2))], labels)


def test_relabelling_sums_fix_a_multiset_exactly_under_its_automorphisms():
    # the sums equal to the identity's, the first, are those of the relabellings that fix the multiset
    looped_path = [(0, 0, 1), (0, 1, 2), (1, 0, 0)]  # a loop at one leaf: only the identity fixes it
    star = [(0, 0, 1), (0, 0, 2), (0, 0, 3)]  # the 3! relabellings of the leaves fix it
    for n, edges, fixing in ((3, looped_path, 1), (4, star, 6)):
        sums = relabelling_sums(n, edges, 2)
        assert sums.count(sums[0]) == fixing


def _partitions_agree(keys, oracle_keys):
    """Do two keyings of one list of items split it into the same classes?"""
    return len(set(keys)) == len(set(oracle_keys)) == len(set(zip(keys, oracle_keys)))


def test_relabelling_sums_key_partitions_instances_and_positions_as_brute_force():
    # the sweep's two keyings: each instance, and the position each Buster move leaves
    # (the busted graph and the whole reserve), graph edges weighed alike
    instances, positions = [], []
    for p in generate_instances(3, 4, (0, 1, 2)):
        n, reserve = p.graph.vertex_count, [(1, e.u, e.v, e.weight) for e in p.reserve]
        instances.append((n, [(0, e.u, e.v, 0) for e in p.graph] + reserve))
        for busted in enumerate_buster_moves(p):
            positions.append((n, [(0, e.u, e.v, 0) for e in p.graph.without(busted)] + reserve))
    for items, classes in ((instances, 471), (positions, 535)):
        labels = {}
        keys = [_sweep_key(n, triples, labels) for n, triples in items]
        assert _partitions_agree(keys, [_oracle_key(n, triples) for n, triples in items])
        assert len(set(keys)) == classes < len(items)


_TRIPLE = st.tuples(
    st.integers(0, 1), st.integers(0, 3), st.integers(0, 3), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
)


@PROPERTY
@given(
    n=st.integers(1, 4),
    triples=st.lists(_TRIPLE, max_size=7),
    perm=st.permutations(range(4)),
    edit=st.none() | st.tuples(st.integers(0, 6), _TRIPLE),
)
def test_relabelling_sums_key_matches_brute_force_on_drawn_relabellings(n, triples, perm, edit):
    # a relabelled copy, shuffled, sometimes with one edge replaced: the keys
    # are equal exactly when the brute-force keys are
    triples = [(pool, u % n, v % n, w) for pool, u, v, w in triples]
    ranks = [vertex for vertex in perm if vertex < n]  # a permutation of range(n)
    moved = [(pool, ranks[u], ranks[v], w) for pool, u, v, w in reversed(triples)]
    labels = {}
    assert _sweep_key(n, moved, labels) == _sweep_key(n, triples, labels)
    if edit is not None and triples:
        at, (pool, u, v, w) = edit
        moved[at % len(moved)] = (pool, u % n, v % n, w)
    same = _sweep_key(n, moved, labels) == _sweep_key(n, triples, labels)
    assert same == (_oracle_key(n, moved) == _oracle_key(n, triples))


@pytest.mark.parametrize("corpus, classes", [((3, 4), 471), ((3, 5), 2_523)])
def test_relabelling_sums_key_counts_the_corpus_classes(corpus, classes):
    instances, labels = list(generate_instances(*corpus, (0, 1, 2))), {}
    keys = {_sweep_key(p.graph.vertex_count, _pooled_triples(p), labels) for p in instances}
    assert len(keys) == classes < len(instances)


def test_relabelling_sums_raises_past_the_relabelling_cap():
    path = [(0, v, v + 1) for v in range(7)]
    with pytest.raises(CapExceededError, match=r"^8! relabellings exceeds cap 4096$"):
        relabelling_sums(8, path, 3)  # 8! = 40,320 relabellings, over the default 4,096
    with pytest.raises(CapExceededError):
        relabelling_sums(3, path[:2], 2, Caps(max_subsets=5))
    with pytest.raises(CapExceededError):
        relabelling_sums(8, [], 3)
    sums = relabelling_sums(3, path[:2], 2, Caps(max_subsets=6))
    # centre at 0: one count in each of the 2-bit fields of (label 0, 0, 1) and (label 0, 0, 2)
    assert len(sums) == 6 and min(sums) == 1 << 2 | 1 << 4
    assert relabelling_sums(3, [], 2, Caps(max_subsets=6)) == [0] * 6
