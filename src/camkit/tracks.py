"""Multi-view correspondence tracks: connected components of the match graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class MatchPair:
    """Index pairs matched between two views; one-to-one on both sides."""

    view_i: int
    view_j: int
    pairs: np.ndarray  # (m, 2) of (feature index in i, feature index in j)

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if (len(np.unique(p[:, 0])) != len(p)
                or len(np.unique(p[:, 1])) != len(p)):
            raise ValueError("match pairs must be one-to-one within the pair")
        p.setflags(write=False)
        object.__setattr__(self, "pairs", p)


@dataclass
class Track:
    """One physical point observed in several views.

    ``observations`` holds (view id, feature index) sorted by view id, at
    most one per view. ``point`` is filled in once triangulated, by a new
    Track: the pipeline replaces tracks and never changes one in place.
    """

    observations: tuple[tuple[int, int], ...]
    point: np.ndarray | None = None
    valid: bool = False

    def __len__(self) -> int:
        return len(self.observations)


def build_tracks(match_pairs: list[MatchPair]) -> list[Track]:
    """Connected components of the match graph, as consistent tracks.

    The graph's nodes are the distinct (view, feature index) pairs and each
    match is an edge. Components containing two features of the same view
    are contradictory and dropped entirely; only tracks of length >= 2 are
    returned. The result is independent of the order of ``match_pairs``.
    """
    edges = np.concatenate([np.empty((0, 4), dtype=np.int64)] + [
        np.column_stack([np.full(len(mp.pairs), mp.view_i), mp.pairs[:, 0],
                         np.full(len(mp.pairs), mp.view_j), mp.pairs[:, 1]])
        for mp in match_pairs])
    if not len(edges):
        return []
    nodes, index = np.unique(edges.reshape(-1, 2), axis=0, return_inverse=True)
    index = index.reshape(-1, 2)
    graph = sparse.coo_array((np.ones(len(index)), (index[:, 0], index[:, 1])),
                             shape=(len(nodes), len(nodes)))
    _, labels = connected_components(graph, directed=False)
    # A stable sort keeps each component's nodes in (view, feature) order.
    order = np.argsort(labels, kind="stable")
    tracks = []
    for group in np.split(nodes[order], np.flatnonzero(np.diff(labels[order])) + 1):
        if len(group) < 2 or np.any(group[1:, 0] == group[:-1, 0]):
            continue  # a lone node, or the same view twice: inconsistent
        tracks.append(Track(observations=tuple(map(tuple, group.tolist()))))
    tracks.sort(key=lambda t: t.observations)
    return tracks
