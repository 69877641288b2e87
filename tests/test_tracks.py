from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camkit import MatchPair, build_tracks


def mp(i, j, pairs):
    return MatchPair(view_i=i, view_j=j, pairs=np.array(pairs))


def test_match_pair_must_be_one_to_one():
    with pytest.raises(ValueError):
        mp(0, 1, [(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        mp(0, 1, [(1, 1), (2, 1)])


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
    for m in match_pairs:
        for fi, fj in m.pairs.tolist():
            adjacent.setdefault((m.view_i, fi), set()).add((m.view_j, fj))
            adjacent.setdefault((m.view_j, fj), set()).add((m.view_i, fi))
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
        side = st.permutations(range(n_features))
        m = draw(st.integers(0, n_features))
        graph.append(mp(i, j, list(zip(draw(side)[:m], draw(side)[:m]))))
    return graph


@settings(max_examples=200, deadline=None)
@given(graph=_match_graphs())
def test_tracks_match_breadth_first_oracle(graph):
    tracks = build_tracks(graph)
    assert [t.observations for t in tracks] == _oracle_tracks(graph)
    for t in tracks:
        assert all(type(v) is int and type(f) is int for v, f in t.observations)
