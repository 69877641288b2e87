from collections import deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from camkit import build_tracks


def mp(i, j, pairs):
    return i, j, np.array(pairs)


def test_feature_matched_twice_in_one_pair_yields_no_track():
    # View-0 feature 1 matched to two view-1 features, and view-1 feature 1
    # matched to two view-0 features: each puts two features of one view in
    # one component. The one-to-one match (3, 3) still forms its track.
    for twice in ([(1, 1), (1, 2)], [(1, 1), (2, 1)]):
        tracks = build_tracks([mp(0, 1, twice + [(3, 3)]), mp(1, 2, [(1, 7)])])
        assert [t.observations for t in tracks] == [((0, 3), (1, 3))]


def test_transitive_chain_forms_one_track():
    tracks = build_tracks([mp(0, 1, [(1, 1)]), mp(1, 2, [(1, 1)])])
    assert len(tracks) == 1
    assert tracks[0].observations == ((0, 1), (1, 1), (2, 1))


def test_conflicting_component_is_dropped():
    # Two view-0 features claim the same view-1 feature (via separate match
    # lists), pulling them into one component: contradictory, so dropped.
    tracks = build_tracks([mp(0, 1, [(1, 1)]), mp(0, 1, [(2, 1)])])
    assert tracks == []


def test_empty_input():
    assert build_tracks([]) == []


def test_track_order_is_input_order_independent():
    rng = np.random.default_rng(0)
    pairs = [
        mp(0, 1, [(0, 0), (1, 1), (2, 2)]),
        mp(1, 2, [(0, 5), (1, 6)]),
        mp(0, 2, [(2, 9)]),
        mp(2, 3, [(5, 0), (9, 1)]),
    ]
    base = build_tracks(pairs)
    for _ in range(5):
        perm = [pairs[i] for i in rng.permutation(len(pairs))]
        other = build_tracks(perm)
        assert [t.observations for t in other] == [t.observations for t in base]


def test_min_track_length_two():
    # A pair list mentioning a feature only once still yields length >= 2
    # tracks only.
    tracks = build_tracks([mp(0, 1, [(3, 4)])])
    assert len(tracks) == 1
    assert len(tracks[0]) == 2


# Oracle: breadth-first search over the match graph, with the same rules.

def _oracle_tracks(match_pairs):
    adjacent = {}
    for view_i, view_j, pairs in match_pairs:
        for fi, fj in pairs.reshape(-1, 2).tolist():
            adjacent.setdefault((view_i, fi), set()).add((view_j, fj))
            adjacent.setdefault((view_j, fj), set()).add((view_i, fi))
    seen = set()
    tracks = []
    for start in sorted(adjacent):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [], deque([start])
        while queue:
            node = queue.popleft()
            component.append(node)
            for other in adjacent[node] - seen:
                seen.add(other)
                queue.append(other)
        views = [v for v, _ in component]
        if len(component) >= 2 and len(set(views)) == len(views):
            tracks.append(tuple(sorted(component)))
    return sorted(tracks)


@st.composite
def _match_graphs(draw):
    n_views = draw(st.integers(2, 5))
    n_features = draw(st.integers(1, 8))
    graph = []
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, n_views - 1))
        j = draw(st.integers(0, n_views - 1))
        # Each side may repeat a feature: a feature matched twice.
        m = draw(st.integers(0, n_features))
        side = st.lists(st.integers(0, n_features - 1), min_size=m, max_size=m)
        graph.append(mp(i, j, list(zip(draw(side), draw(side)))))
    return graph


@settings(max_examples=200, deadline=None)
@given(graph=_match_graphs())
def test_tracks_match_breadth_first_oracle(graph):
    tracks = build_tracks(graph)
    assert [t.observations for t in tracks] == _oracle_tracks(graph)
    for t in tracks:
        assert all(type(v) is int and type(f) is int for v, f in t.observations)


def test_long_chain_forms_one_track():
    # A chain through 8 views, each node matched to the next view's: the
    # least label moves along it a few nodes per round of propagation, so
    # the chain takes several rounds to settle, in either match direction.
    chain = tuple(enumerate([3, 0, 5, 1, 1, 4, 2, 0]))
    for links in (zip(chain, chain[1:]), zip(chain[1:], chain)):
        graph = [mp(vi, vj, [(fi, fj)]) for (vi, fi), (vj, fj) in links]
        assert [t.observations for t in build_tracks(graph)] == [chain]


# Oracle: scipy's connected components of the same graph, with the same rules.

def _csgraph_tracks(match_pairs):
    edges = [((view_i, fi), (view_j, fj)) for view_i, view_j, pairs in match_pairs
             for fi, fj in pairs.reshape(-1, 2).tolist()]
    nodes = sorted({node for edge in edges for node in edge})
    if not nodes:
        return []
    index = {node: k for k, node in enumerate(nodes)}
    rows, cols = np.array([[index[a], index[b]] for a, b in edges]).T
    graph = sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                             shape=(len(nodes), len(nodes)))
    _, labels = connected_components(graph, directed=False)
    components = {}
    for node, label in zip(nodes, labels.tolist()):
        components.setdefault(label, []).append(node)
    return sorted(tuple(c) for c in components.values()
                  if len(c) >= 2 and len({view for view, _ in c}) == len(c))


@st.composite
def _chained_match_graphs(draw):
    """Chains of 2 to 8 nodes, each node matched to the next: long chains
    across 5 or more views, which take several rounds of propagation (most
    when they run in node order), isolated pairs, chains that return to a
    view, and chains joined where they share a node."""
    graph = []
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(2, 8))
        views = draw(st.lists(st.integers(0, 7), min_size=length, max_size=length,
                              unique=draw(st.booleans())))
        nodes = list(zip(views, draw(st.lists(st.integers(0, 3), min_size=length,
                                              max_size=length))))
        if draw(st.booleans()):
            nodes.sort()
        graph += [mp(vi, vj, [(fi, fj)]) for (vi, fi), (vj, fj) in zip(nodes, nodes[1:])]
    return graph


@settings(max_examples=300, deadline=None)
@given(graph=_chained_match_graphs())
@example(graph=[])
@example(graph=[mp(0, 1, [(2, 3)]), mp(4, 5, [(0, 0)])])
@example(graph=[mp(v, v + 1, [(0, 0)]) for v in range(6)])
@example(graph=[mp(v, v + 1, [(0, 0)]) for v in range(6)] + [mp(6, 2, [(0, 1)])])
def test_tracks_match_connected_components_oracle(graph):
    tracks = build_tracks(graph)
    assert [t.observations for t in tracks] == _csgraph_tracks(graph)
