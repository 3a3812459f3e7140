import random
from fractions import Fraction
from itertools import permutations

import pytest

from busterfixer import Edge, Multigraph, Position


def triangle_position() -> Position:
    """Triangle a-b-c with reserve e4 (a-b, weight 1) and e5 (b-c, weight 2)."""
    graph = Multigraph(
        3,
        (
            Edge("e1", 0, 1, Fraction(1)),
            Edge("e2", 1, 2, Fraction(1)),
            Edge("e3", 2, 0, Fraction(1)),
        ),
    )
    reserve = Multigraph(3, (Edge("e4", 0, 1, Fraction(1)), Edge("e5", 1, 2, Fraction(2))))
    return Position(graph=graph, reserve=reserve)


@pytest.fixture
def triangle() -> Position:
    return triangle_position()


@pytest.fixture
def edgeless() -> Position:
    """One vertex and no edges: a connected start where Buster has no move, so its series has zero rounds."""
    return Position(graph=Multigraph(1, ()), reserve=Multigraph(1, ()))


def random_multigraph(rng: random.Random, max_vertices: int = 5, max_edges: int = 8) -> Multigraph:
    """Arbitrary multigraph (possibly disconnected, loops and parallels allowed)."""
    n = rng.randrange(1, max_vertices + 1)
    m = rng.randrange(0, max_edges + 1)
    edges = []
    for i in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        w = Fraction(rng.randrange(0, 5), rng.choice((1, 1, 2)))
        edges.append(Edge(f"x{i}", u, v, w))
    return Multigraph(n, tuple(edges))


def random_instance(rng: random.Random, max_vertices: int = 4, max_total_edges: int = 10) -> Position:
    """Random playable instance: connected graph plus a priced reserve pool."""
    n = rng.randrange(2, max_vertices + 1)
    graph_edges = []
    # random spanning tree first, then optional extras
    for v in range(1, n):
        u = rng.randrange(v)
        graph_edges.append(Edge(f"g{v - 1}", u, v, Fraction(1)))
    budget = max_total_edges - len(graph_edges)
    extras = rng.randrange(0, max(1, budget // 2 + 1))
    for i in range(extras):
        graph_edges.append(Edge(f"h{i}", rng.randrange(n), rng.randrange(n), Fraction(1)))
        budget -= 1
    reserve_edges = []
    for i in range(rng.randrange(0, budget + 1)):
        w = Fraction(rng.randrange(0, 9), rng.choice((1, 1, 2)))
        reserve_edges.append(Edge(f"r{i}", rng.randrange(n), rng.randrange(n), w))
    return Position(graph=Multigraph(n, tuple(graph_edges)), reserve=Multigraph(n, tuple(reserve_edges)))


def brute_force_form(vertex_count: int, triples) -> tuple:
    """The least sorted ``(pool, min endpoint, max endpoint, weight)`` tuple over every vertex relabelling.

    The oracle for the sweep's ``graph.relabelling_sums`` keys: two edge multisets are relabellings of each other
    exactly when their brute-force forms are equal.
    """
    best = None
    for perm in permutations(range(vertex_count)):
        form = sorted((pool, *sorted((perm[u], perm[v])), weight) for pool, u, v, weight in triples)
        if best is None or form < best:
            best = form
    return tuple(best)
