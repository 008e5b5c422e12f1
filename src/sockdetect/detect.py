"""Turn verified candidate pairs into clusters and match reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .lsh import CandidatePair


class UnionFind:
    """Disjoint sets over arbitrary hashable items, union by size with
    path compression."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def items(self) -> Iterable[str]:
        return self._parent.keys()


@dataclass
class MatchCluster:
    """A connected component of candidate pairs (size >= 2)."""

    members: list[str]


@dataclass(frozen=True)
class MutualMatch:
    """Two users that are each other's nearest candidate."""

    a: str
    b: str
    distance: int
    exact: bool  # distance == 0


@dataclass
class MatchReport:
    clusters: list[MatchCluster] = field(default_factory=list)
    mutual: list[MutualMatch] = field(default_factory=list)
    one_to_many: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "clusters": [c.members for c in self.clusters],
            "mutual": [
                {"a": m.a, "b": m.b, "distance": m.distance, "exact": m.exact}
                for m in self.mutual
            ],
            "one_to_many": {
                uid: [{"id": other, "distance": dd} for other, dd in cands]
                for uid, cands in self.one_to_many.items()
            },
        }


def cluster(pairs: Iterable[CandidatePair]) -> list[MatchCluster]:
    """Connected components over the pair graph, sorted by
    (size descending, smallest member id).  Users in no pair are omitted."""
    uf = UnionFind()
    for p in pairs:
        uf.add(p.a)
        uf.add(p.b)
        uf.union(p.a, p.b)
    members_by_root: dict[str, set[str]] = {}
    for uid in uf.items():
        members_by_root.setdefault(uf.find(uid), set()).add(uid)
    clusters = [MatchCluster(members=sorted(members)) for members in members_by_root.values()]
    clusters.sort(key=lambda c: (-len(c.members), c.members[0]))
    return clusters


def _candidate_lists(pairs: Iterable[CandidatePair]) -> dict[str, list[tuple[int, str]]]:
    lists: dict[str, list[tuple[int, str]]] = {}
    for p in pairs:
        lists.setdefault(p.a, []).append((p.distance, p.b))
        lists.setdefault(p.b, []).append((p.distance, p.a))
    for cands in lists.values():
        cands.sort()
    return lists


def mutual_matches(pairs: Iterable[CandidatePair]) -> list[MutualMatch]:
    """Pairs of users that are each other's nearest candidate.

    Nearest means minimal (distance, candidate id); the id tie-break keeps
    reports deterministic.  A match is flagged exact at distance 0.
    """
    lists = _candidate_lists(pairs)
    nearest = {uid: cands[0] for uid, cands in lists.items()}
    matches: list[MutualMatch] = []
    for uid, (dd, other) in nearest.items():
        if uid < other and nearest[other] == (dd, uid):
            matches.append(MutualMatch(a=uid, b=other, distance=dd, exact=dd == 0))
    matches.sort(key=lambda m: (m.distance, m.a, m.b))
    return matches


def one_to_many(pairs: Iterable[CandidatePair]) -> dict[str, list[tuple[str, int]]]:
    """Users whose verified candidate list has two or more entries, with the
    full list sorted by (distance, id)."""
    lists = _candidate_lists(pairs)
    return {
        uid: [(other, dd) for dd, other in cands]
        for uid, cands in sorted(lists.items())
        if len(cands) >= 2
    }


def build_match_report(pairs: Iterable[CandidatePair]) -> MatchReport:
    pairs = list(pairs)
    return MatchReport(
        clusters=cluster(pairs),
        mutual=mutual_matches(pairs),
        one_to_many=one_to_many(pairs),
    )
