"""Multi-view correspondence tracks via union-find over feature nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    most one per view. ``point`` is filled in once triangulated.
    """

    observations: tuple[tuple[int, int], ...]
    point: np.ndarray | None = None
    valid: bool = False

    def __len__(self) -> int:
        return len(self.observations)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, u):
        root = u
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[u] != root:  # path compression
            self.parent[u], u = root, self.parent[u]
        return root

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            # Deterministic: smaller node becomes the root.
            if rv < ru:
                ru, rv = rv, ru
            self.parent[rv] = ru


def build_tracks(match_pairs: list[MatchPair]) -> list[Track]:
    """Connected components of the match graph, as consistent tracks.

    Components containing two features of the same view are contradictory
    and dropped entirely; only tracks of length >= 2 are returned. The
    result is independent of the order of ``match_pairs``.
    """
    uf = _UnionFind()
    for mp in match_pairs:
        for fi, fj in mp.pairs:
            uf.union((mp.view_i, int(fi)), (mp.view_j, int(fj)))

    groups: dict = {}
    for node in sorted(uf.parent):
        groups.setdefault(uf.find(node), []).append(node)

    tracks = []
    for _, nodes in sorted(groups.items()):
        views = [v for v, _ in nodes]
        if len(set(views)) != len(views):
            continue  # same view twice: inconsistent component
        if len(nodes) < 2:
            continue
        tracks.append(Track(observations=tuple(sorted(nodes))))
    tracks.sort(key=lambda t: t.observations)
    return tracks
