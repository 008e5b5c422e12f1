"""Independent reference implementations the production code is compared against.

``parse_messages`` is the per-line JSONL parser that the columnar parser in
``sockdetect.ingest`` replaced: one ``json.loads`` and one set of checks per
line, returning a list of records.  It must give the same records, or raise
the same error text, on every input.

``normalize_weights`` -> ``filter_edges`` -> ``extract_features`` (->
``binarize``) computes features one user at a time over the graph's
adjacency dicts; ``features.build_feature_maps`` must equal it entry for
entry.

``simhash`` fingerprints one feature map at a time, hashing each token by
FNV-1a over Python integers (``token_hash``); ``simhash.fingerprint_population``
must give the same bits, and ``simhash.hash_token`` the same token hashes.

``cluster``, ``mutual_matches`` and ``one_to_many`` build the match report
one ``CandidatePair`` at a time, over union-find and per-user candidate
lists; ``detect.build_match_report`` must give the same report.
``report_json`` and ``candidates_tsv`` are the bytes ``report.json`` and
``candidates.tsv`` hold for a set of pairs, written as
``json.dumps(..., indent=2, sort_keys=True)`` and one row per sorted pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from sockdetect.detect import MatchCluster, MutualMatch
from sockdetect.errors import InputError
from sockdetect.features import FeatureMap, FeatureToken, check_feature_params
from sockdetect.ingest import InteractionGraph, MessageRecord
from sockdetect.lsh import CandidatePair
from sockdetect.simhash import Fingerprint, HashConfig, encode_token

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class UnfingerprintableError(ValueError):
    """A user has no surviving features and cannot be fingerprinted."""

    def __init__(self, owner: str):
        super().__init__(f"user {owner!r} has an empty feature map")
        self.owner = owner


def _normalize_id(value: object, what: str, line: int | None = None) -> str:
    where = f" at line {line}" if line is not None else ""
    if isinstance(value, bool):
        raise InputError(f"{what} must be a string or integer{where}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value:
            raise InputError(f"{what} must be non-empty{where}")
        if "\t" in value or "\n" in value or "\r" in value:
            raise InputError(f"{what} must not contain a tab or line break{where}")
        if value != value.strip():
            raise InputError(f"{what} must not begin or end with whitespace{where}")
        return value
    raise InputError(f"{what} must be a string or integer{where}")


def _require_int(value: object, what: str, line: int | None = None) -> int:
    where = f" at line {line}" if line is not None else ""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer{where}")
    return value


def parse_messages(lines: Iterable[str]) -> list[MessageRecord]:
    records: list[MessageRecord] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON at line {lineno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"expected an object at line {lineno}")
        if "message_id" not in obj:
            raise InputError(f"missing message_id at line {lineno}")
        message_id = _require_int(obj["message_id"], "message_id", lineno)
        if "sender" not in obj:
            raise InputError(f"missing sender at line {lineno}")
        sender = _normalize_id(obj["sender"], "sender", lineno)
        reply_to = obj.get("reply_to")
        if reply_to is not None:
            reply_to = _require_int(reply_to, "reply_to", lineno)
        if message_id in seen:
            raise InputError(
                f"duplicate message_id {message_id} at line {lineno}"
                f" (first seen at line {seen[message_id]})"
            )
        seen[message_id] = lineno
        records.append(MessageRecord(message_id, sender, reply_to))
    return records


@dataclass
class DirectionalWeights:
    """Per-user normalized weights, one map per edge direction.

    ``out_weights[u][v]`` is the normalized weight of u's replies to v;
    ``in_weights[u][v]`` the normalized weight of v's replies to u.  Users
    with an empty slice are simply absent from that map.
    """

    out_weights: dict[str, dict[str, float]] = field(default_factory=dict)
    in_weights: dict[str, dict[str, float]] = field(default_factory=dict)


def out_adjacency(graph: InteractionGraph) -> dict[str, dict[str, int]]:
    """Per-source map of outgoing neighbors to reply counts."""
    adj: dict[str, dict[str, int]] = {}
    for (src, dst), w in graph.edges.items():
        adj.setdefault(src, {})[dst] = w
    return adj


def in_adjacency(graph: InteractionGraph) -> dict[str, dict[str, int]]:
    """Per-target map of incoming neighbors to reply counts."""
    adj: dict[str, dict[str, int]] = {}
    for (src, dst), w in graph.edges.items():
        adj.setdefault(dst, {})[src] = w
    return adj


def _normalize_slice(raw: dict[str, int], mode: str) -> dict[str, float]:
    if mode == "max":
        denom = max(raw.values())
    else:
        denom = sum(raw.values())
    return {v: w / denom for v, w in raw.items()}


def normalize_weights(graph: InteractionGraph, mode: str = "max") -> DirectionalWeights:
    """Normalize each user's out- and in-slices independently.

    mode="max" divides by the slice maximum (so each non-empty slice attains
    1.0); mode="sum" divides by the slice total (so each sums to 1.0).
    """
    check_feature_params(mode=mode)
    out = {
        u: _normalize_slice(slice_, mode)
        for u, slice_ in sorted(out_adjacency(graph).items())
    }
    in_ = {
        u: _normalize_slice(slice_, mode)
        for u, slice_ in sorted(in_adjacency(graph).items())
    }
    return DirectionalWeights(out_weights=out, in_weights=in_)


def filter_edges(weights: DirectionalWeights, theta: float) -> DirectionalWeights:
    """Keep only entries with normalized weight >= theta.

    Weights strictly below the threshold are dropped; users may end up with
    empty slices (they become unfingerprintable downstream).
    """
    check_feature_params(theta=theta)

    def _filter(side: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for u, slice_ in side.items():
            kept = {v: w for v, w in slice_.items() if w >= theta}
            if kept:
                out[u] = kept
        return out

    return DirectionalWeights(
        out_weights=_filter(weights.out_weights),
        in_weights=_filter(weights.in_weights),
    )


def extract_features(
    graph: InteractionGraph,
    weights: DirectionalWeights,
    direction: str = "out",
) -> dict[str, FeatureMap]:
    """Build a FeatureMap per graph node from filtered weights.

    direction="out" uses reply targets, "in" uses repliers, "both" the tagged
    union of the two (tokens carry the direction, so there is no collision).
    Every node appears in the result, possibly with an empty map.
    """
    check_feature_params(direction=direction)
    maps: dict[str, FeatureMap] = {}
    for user in sorted(graph.nodes):
        entries: dict[FeatureToken, float] = {}
        if direction in ("out", "both"):
            for v, w in weights.out_weights.get(user, {}).items():
                entries[FeatureToken("out", v)] = w
        if direction in ("in", "both"):
            for v, w in weights.in_weights.get(user, {}).items():
                entries[FeatureToken("in", v)] = w
        maps[user] = FeatureMap(owner=user, entries=entries)
    return maps


def binarize(fmap: FeatureMap) -> FeatureMap:
    """Replace every weight with 1.0 (presence-only features)."""
    return FeatureMap(owner=fmap.owner, entries={t: 1.0 for t in fmap.entries})


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 18)
def _token_hash(direction: str, neighbor: str, b: int, seed: int) -> int:
    encoded = encode_token(FeatureToken(direction, neighbor))
    suffix = encoded + seed.to_bytes(8, "big")
    value = 0
    for j in range((b + 63) // 64):
        value = (value << 64) | _fnv1a64(suffix + bytes([j]))
    return value & ((1 << b) - 1)


def token_hash(token: FeatureToken, cfg: HashConfig) -> int:
    """The b-bit token hash: word j = FNV-1a-64 over (encoding ++ seed ++ j),
    word 0 most significant, low b bits kept."""
    return _token_hash(token.direction, token.neighbor, cfg.b, cfg.seed)


@lru_cache(maxsize=1 << 18)
def _token_votes(direction: str, neighbor: str, b: int, seed: int) -> np.ndarray:
    """Per-bit vote row for one token: +1 where the hash bit is 1, else -1."""
    value = _token_hash(direction, neighbor, b, seed)
    raw = np.frombuffer(value.to_bytes(b // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    row = bits.astype(np.int8) * 2 - 1
    row.setflags(write=False)
    return row


def simhash(fmap: FeatureMap, cfg: HashConfig) -> Fingerprint:
    """Classic weighted SimHash: each token votes +/- its weight per bit.

    Raises UnfingerprintableError for an empty feature map; the caller
    decides whether to skip the user.
    """
    if fmap.is_empty():
        raise UnfingerprintableError(fmap.owner)
    tokens = sorted(fmap.entries)
    rows = np.stack(
        [_token_votes(t.direction, t.neighbor, cfg.b, cfg.seed) for t in tokens]
    )
    weights = np.array([fmap.entries[t] for t in tokens], dtype=np.float64)
    votes = np.add.reduce(rows * weights[:, None], axis=0)
    bits = np.packbits(votes > 0, bitorder="little").tobytes()
    return Fingerprint(
        owner=fmap.owner, bits=int.from_bytes(bits, "little"), width=cfg.b
    )


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


def iter_sorted_pairs(pairs: Iterable[CandidatePair]) -> Iterator[CandidatePair]:
    """Canonical report order: by (distance, a, b)."""
    return iter(sorted(pairs, key=lambda p: (p.distance, p.a, p.b)))


def cluster(pairs: Iterable[CandidatePair]) -> list[MatchCluster]:
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
    lists = _candidate_lists(pairs)
    nearest = {uid: cands[0] for uid, cands in lists.items()}
    matches: list[MutualMatch] = []
    for uid, (dd, other) in nearest.items():
        if uid < other and nearest[other] == (dd, uid):
            matches.append(MutualMatch(a=uid, b=other, distance=dd, exact=dd == 0))
    matches.sort(key=lambda m: (m.distance, m.a, m.b))
    return matches


def one_to_many(pairs: Iterable[CandidatePair]) -> dict[str, list[tuple[str, int]]]:
    lists = _candidate_lists(pairs)
    return {
        uid: [(other, dd) for dd, other in cands]
        for uid, cands in sorted(lists.items())
        if len(cands) >= 2
    }


def report_dict(pairs: Iterable[CandidatePair]) -> dict:
    """What ``MatchReport.to_dict`` gives for ``pairs``."""
    pairs = set(pairs)
    return {
        "clusters": [c.members for c in cluster(pairs)],
        "mutual": [
            {"a": m.a, "b": m.b, "distance": m.distance, "exact": m.exact}
            for m in mutual_matches(pairs)
        ],
        "one_to_many": {
            uid: [{"id": other, "distance": dd} for other, dd in cands]
            for uid, cands in one_to_many(pairs).items()
        },
    }


def report_json(pairs: Iterable[CandidatePair], config: dict) -> str:
    """The text of ``report.json`` for ``pairs`` under ``config``."""
    return json.dumps({"config": config, **report_dict(pairs)}, indent=2, sort_keys=True) + "\n"


def candidates_tsv(pairs: Iterable[CandidatePair], header: str) -> str:
    """The text of ``candidates.tsv`` for ``pairs`` under a header line."""
    rows = (f"{p.a}\t{p.b}\t{p.distance}\n" for p in iter_sorted_pairs(set(pairs)))
    return header + "\n" + "".join(rows)
