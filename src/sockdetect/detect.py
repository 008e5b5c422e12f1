"""Turn candidate pairs into clusters and match reports.

Everything runs on the pairs' row-index arrays (``CandidatePairs``): the
report of a duplicate class of k users is k² list entries, which stay
arrays until ``MatchReport.write_json`` streams them to disk.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .lsh import CandidatePairs, bound, pack_rows, sort_rows, unpack_rows

_SEP = ",\n      "  # between two entries of a one-to-many list in report.json


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


class OneToMany(Mapping[str, list[tuple[str, int]]]):
    """Users with two or more candidates, each mapped to its full candidate
    list sorted by (distance, id), built on lookup from arrays over
    ``users``.  ``key`` holds both directions of every pair as sorted
    ``pack_rows`` keys of (owner, distance, other) with ``bounds``; row i's
    entries are ``key[start[i]:start[i+1]]``, and ``owner`` lists the rows
    in the mapping."""

    def __init__(self, users: list[str], owner: np.ndarray, start: np.ndarray,
                 key: np.ndarray, bounds: list[int]):
        self.users, self.owner, self.start, self.key, self.bounds = users, owner, start, key, bounds
        self._ids = [users[i] for i in owner.tolist()]

    def entries(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s candidate rows and their distances, in list order."""
        _, distance, other = unpack_rows(self.key[self.start[row]:self.start[row + 1]], self.bounds)
        return other, distance

    def __getitem__(self, uid: str) -> list[tuple[str, int]]:
        k = bisect_left(self._ids, uid)
        if k == len(self._ids) or self._ids[k] != uid:
            raise KeyError(uid)
        other, distance = self.entries(int(self.owner[k]))
        return list(zip(map(self.users.__getitem__, other.tolist()), distance.tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class MatchReport:
    clusters: list[MatchCluster]
    mutual: list[MutualMatch]
    one_to_many: OneToMany

    def write_json(self, path: str | Path, config: dict) -> None:
        """Write ``{"clusters": [members, ...], "config": config, "mutual":
        [{"a", "b", "distance", "exact"}, ...], "one_to_many": {id: [{"distance",
        "id"}, ...]}}`` as ``json.dumps(..., indent=2, sort_keys=True)`` plus a
        newline would.  The one-to-many lists are streamed from their arrays:
        each id is escaped once, and each run of equal distance in a list is
        one join of its ids' entries."""
        before = {  # the keys that sort before "one_to_many"
            "clusters": [c.members for c in self.clusters],
            "config": config,
            "mutual": [{"a": m.a, "b": m.b, "distance": m.distance, "exact": m.exact}
                       for m in self.mutual],
        }
        fanout = self.one_to_many
        ids = [encode_basestring_ascii(uid) for uid in fanout.users]
        head = [f'{{\n        "distance": {d},\n        "id": ' for d in range(fanout.bounds[1])]
        tail = [uid + "\n      }" for uid in ids]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("{\n")
            for key, value in before.items():
                text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
                fh.write(f'  "{key}": {text},\n')
            fh.write('  "one_to_many": {')
            for k, owner in enumerate(fanout.owner.tolist()):
                other, distance = fanout.entries(owner)
                runs = [0, *(np.flatnonzero(np.diff(distance)) + 1).tolist(), len(distance)]
                other, distance = other.tolist(), distance.tolist()
                entries = (head[distance[s]] + (_SEP + head[distance[s]]).join(
                    map(tail.__getitem__, other[s:e])) for s, e in itertools.pairwise(runs))
                fh.write(f'{"," if k else ""}\n    {ids[owner]}: [\n      ')
                fh.write(_SEP.join(entries))
                fh.write("\n    ]")
            fh.write("\n  }\n}\n" if len(fanout) else "}\n}\n")


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's smallest connected row through the pairs (a, b): the larger
    label of each pair is hooked under the smaller, and pointer jumping
    shortcuts every label to its root, until each pair's labels agree."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[differ], np.minimum(la, lb)[differ])
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _clusters(pairs: CandidatePairs) -> list[MatchCluster]:
    n = len(pairs.users)
    label = _components(n, pairs.a, pairs.b)
    paired = np.zeros(n, dtype=bool)
    paired[pairs.a] = paired[pairs.b] = True
    rows = np.flatnonzero(paired)
    root, rows = sort_rows([label[rows], rows], [n, n])
    start = np.flatnonzero(np.diff(root, prepend=-1))
    size = np.diff(start, append=len(rows))
    members = [pairs.users[i] for i in rows.tolist()]
    # by size descending, then smallest member, which is the root
    order = np.lexsort((root[start], -size)).tolist()
    start, stop = start.tolist(), (start + size).tolist()
    return [MatchCluster(members[start[k]:stop[k]]) for k in order]


def build_match_report(pairs: CandidatePairs) -> MatchReport:
    """Clusters, mutual nearest matches and one-to-many lists of ``pairs``.

    Clusters are the connected components of the pair graph, by size
    descending and then smallest member.  Both directions of every pair are
    sorted once by (owner, distance, other id); each owner's first entry is
    its nearest candidate, and a pair whose users are each other's nearest
    is a mutual match, exact at distance 0.  Users with two or more
    candidates keep their whole list.
    """
    users, n, top = pairs.users, len(pairs.users), bound(pairs.distance)
    bounds = [n, top, n]
    key = np.concatenate([pack_rows([pairs.a, pairs.distance, pairs.b], bounds),
                          pack_rows([pairs.b, pairs.distance, pairs.a], bounds)])
    key.sort()
    start = np.searchsorted(key, np.arange(n + 1) * (top * n))
    count = np.diff(start)
    u = np.flatnonzero(count)
    _, dd, v = unpack_rows(key[start[u]], bounds)
    nearest = np.full(n, -1)
    nearest[u] = v
    mutual = (u < v) & (nearest[v] == u)
    dd, u, v = sort_rows([dd[mutual], u[mutual], v[mutual]], [top, n, n])
    return MatchReport(
        clusters=_clusters(pairs),
        mutual=[MutualMatch(users[x], users[y], d, d == 0)
                for x, y, d in zip(u.tolist(), v.tolist(), dd.tolist())],
        one_to_many=OneToMany(users, np.flatnonzero(count >= 2), start, key, bounds),
    )
