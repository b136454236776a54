from fractions import Fraction

import pytest

from tlsynth.debruijn import DualEdge, DualGraph
from tlsynth.exact import Cost
from tlsynth.problems import bundled_problem


@pytest.fixture(scope="session")
def migration_problem():
    return bundled_problem("file-migration")


def make_graph(problem, n_vertices, quads):
    """Synthetic dual graph from (src, dst, w, q) quadruples."""
    edges = []
    for src, dst, w, q in quads:
        w = w if isinstance(w, Cost) else Cost(Fraction(w))
        q = q if isinstance(q, Cost) else Cost(Fraction(q))
        edges.append(DualEdge(src, dst, x=0, b=0, w=w, q=q))
    return DualGraph(
        problem=problem, horizon=1, win_len=1, n_vertices=n_vertices, edges=tuple(edges)
    )


def out_edges(graph):
    """Edge ids by source vertex, in edge order."""
    out = [[] for _ in range(graph.n_vertices)]
    for k, e in enumerate(graph.edges):
        out[e.src].append(k)
    return out


def held(stack):
    """The arcs an `ArcStack` holds, (id, src, dst, w * unit, q), q None for +inf."""
    q, unit = stack.q, stack.unit
    return [(k, s, d, w * unit, q[t]) for k, s, d, w, t in stack.arcs if q[t] != -1]


def random_dual_graph(problem, rng, max_vertices=12):
    """Sparse random dual graph with mixed zero/positive adversary costs.

    Every vertex keeps out-degree >= 1, so a directed cycle always exists.
    """
    n = rng.randint(2, max_vertices)
    quads = []
    for v in range(n):
        for _ in range(rng.randint(1, 3)):
            dst = rng.randrange(n)
            if rng.random() < 0.3:
                w = Fraction(0)
            else:
                w = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            q = Fraction(rng.randint(0, 8), rng.randint(1, 3))
            quads.append((v, dst, w, q))
    return make_graph(problem, n, quads)
