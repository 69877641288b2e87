"""Multi-view correspondence tracks: connected components of the match graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def build_tracks(match_pairs) -> list[Track]:
    """Connected components of the match graph, as consistent tracks.

    ``match_pairs`` holds ``(view_i, view_j, pairs)`` triples, ``pairs``
    the ``(m, 2)`` feature indices matched between the two views. The
    graph's nodes are the distinct (view, feature index) pairs and each
    match is an edge. Components containing two features of the same view
    (a feature matched to two others of one view, say) are contradictory and
    dropped entirely; only tracks of length >= 2 are returned. The result is
    independent of the order of ``match_pairs``.
    """
    edges = [np.empty((0, 4), dtype=np.int64)]
    for view_i, view_j, pairs in match_pairs:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        edges.append(np.column_stack([np.full(len(pairs), view_i), pairs[:, 0],
                                      np.full(len(pairs), view_j), pairs[:, 1]]))
    edges = np.concatenate(edges)
    if not len(edges):
        return []
    nodes, index = np.unique(edges.reshape(-1, 2), axis=0, return_inverse=True)
    index = index.reshape(-1, 2)
    # Min-label propagation with pointer jumping, until no label changes.
    labels, last = np.arange(len(nodes)), None
    while not np.array_equal(labels, last):
        last = labels.copy()
        np.minimum.at(labels, index, last[index[:, ::-1]])
        labels = labels[labels]
    # A stable sort keeps each component's nodes in (view, feature) order.
    order = np.argsort(labels, kind="stable")
    tracks = []
    for group in np.split(nodes[order], np.flatnonzero(np.diff(labels[order])) + 1):
        if len(group) < 2 or np.any(group[1:, 0] == group[:-1, 0]):
            continue  # a lone node, or the same view twice: inconsistent
        tracks.append(Track(observations=tuple(map(tuple, group.tolist()))))
    tracks.sort(key=lambda t: t.observations)
    return tracks
