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
FNV-1a over Python integers (``token_hash``) of its byte encoding
(``encode_token``); ``simhash.fingerprint_population`` must give the same
bits.

``cluster``, ``mutual_matches`` and ``one_to_many`` build the match report
one ``CandidatePair`` at a time, over union-find and per-user candidate
lists; ``detect.build_match_report`` must give the same report.
``report_json`` and ``candidates_tsv`` are the bytes ``report.json`` and
``candidates.tsv`` hold for a set of pairs, written as
``json.dumps(..., indent=2, sort_keys=True)`` and one row per sorted pair.

``pair_counts`` scores pairs one ``CandidatePair`` at a time against a
ground truth; ``evaluate.pairwise_metrics`` must give the same counts.

``message_log``, ``feature_maps``, ``fingerprints`` and ``candidate_pairs``
build the array container a stage takes from records, dicts of maps or
fingerprints, and pairs, the forms the fixtures here are written in.
``copied_graph`` rebuilds a graph from copies of its arrays, so it shares
nothing a run keeps on the original.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from sockdetect.detect import MatchCluster, MutualMatch
from sockdetect.errors import InputError
from sockdetect.features import TOKEN_DIRECTIONS, FeatureMap, FeatureMaps, FeatureToken
from sockdetect.ingest import InteractionGraph, MessageLog, MessageRecord
from sockdetect.lsh import CandidatePair, CandidatePairs
from sockdetect.pipeline import RunConfig
from sockdetect.simhash import Fingerprint, Fingerprints

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
        if any(0xD800 <= ord(c) <= 0xDFFF for c in value):
            raise InputError(f"{what} must be valid Unicode text{where}")
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
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON at line {lineno}: {exc}") from exc
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


def message_log(records: Iterable[MessageRecord]) -> MessageLog:
    records = list(records)
    return MessageLog(
        [r.message_id for r in records], [r.sender for r in records], [r.reply_to for r in records]
    )


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
    RunConfig(mode=mode)  # rejects an unknown mode
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
    RunConfig(theta=theta)  # rejects a threshold outside [0, 1]

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
    RunConfig(direction=direction)  # rejects an unknown direction
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


def feature_maps(fmaps: Mapping[str, FeatureMap]) -> FeatureMaps:
    """The maps as the flat rows ``FeatureMaps`` holds, in canonical order."""
    owners = sorted(fmaps)
    names = sorted({t.neighbor for fmap in fmaps.values() for t in fmap.entries})
    index = {v: i for i, v in enumerate(names)}
    owner, token, weight = [], [], []
    for i, uid in enumerate(owners):
        entries = fmaps[uid].entries
        for t in sorted(entries):
            if t.direction not in TOKEN_DIRECTIONS:
                raise ValueError(f"unknown token direction {t.direction!r}")
            owner.append(i)
            token.append(TOKEN_DIRECTIONS.index(t.direction) * len(names) + index[t.neighbor])
            weight.append(entries[t])
    return FeatureMaps(
        owners, names, np.array(owner, dtype=np.int64), np.array(token, dtype=np.int64),
        np.array(weight, dtype=np.float64),
    )


def fingerprints(fps: Mapping[str, Fingerprint]) -> Fingerprints:
    """The fingerprints as one packed ``Fingerprints`` matrix over sorted owners."""
    owners = sorted(fps)
    widths = {fps[uid].width for uid in owners}
    if len(widths) > 1:
        raise ValueError(f"fingerprint width mismatch: {sorted(widths)}")
    width = widths.pop() if widths else 0
    nbytes = 8 * -(-width // 64)
    raw = b"".join(fps[uid].bits.to_bytes(nbytes, "little") for uid in owners)
    return Fingerprints(owners, np.frombuffer(raw, dtype="<u8").reshape(len(owners), nbytes // 8), width)


def candidate_pairs(pairs: Iterable[CandidatePair]) -> CandidatePairs:
    """The distinct pairs as a canonical ``CandidatePairs`` over their users."""
    pairs = set(pairs)
    users = sorted({uid for p in pairs for uid in (p.a, p.b)})
    row = {uid: i for i, uid in enumerate(users)}
    rows = np.array([(row[p.a], row[p.b], p.distance) for p in pairs], dtype=np.int64)
    return CandidatePairs.canonical(users, *rows.reshape(-1, 3).T)


def copied_graph(graph: InteractionGraph) -> InteractionGraph:
    """A new graph over copies of ``graph``'s arrays."""
    return InteractionGraph(arrays=(list(graph.ids), graph.src.copy(), graph.dst.copy(), graph.weight.copy()))


def read_edges(path) -> tuple[list[str], list[tuple[str, str, int]]]:
    """An edge-list TSV read one line at a time: the sorted ids and the
    sorted (source, target, weight) rows, or the InputError of the first
    bad line.  Lines are split as text files read them, CRLF and lone CR
    included, and blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    edges: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(f"edge line {lineno}: expected 3 tab-separated fields")
        src, dst, text = fields
        try:
            weight = int(text)
        except ValueError:
            raise InputError(f"edge line {lineno}: weight {text!r} is not an integer") from None
        if weight < 1:
            raise InputError(f"edge line {lineno}: weight must be >= 1")
        if weight >= 2**63:
            raise InputError(f"edge line {lineno}: weight {weight} does not fit in 64 bits")
        for uid in (src, dst):
            if not uid:
                raise InputError(f"edge line {lineno}: empty id")
            if uid != uid.strip():
                raise InputError(f"edge line {lineno}: id {uid!r} must not begin or end with whitespace")
        if src == dst:
            raise InputError(f"edge line {lineno}: self-loop edge on {src!r}")
        if (src, dst) in edges:
            raise InputError(f"duplicate edge ({src}, {dst})")
        edges[src, dst] = weight
    return sorted({uid for edge in edges for uid in edge}), sorted((s, t, w) for (s, t), w in edges.items())


def pair_counts(pairs: Iterable[CandidatePair], truth_clusters: Iterable[set[str]]) -> tuple[int, int, int]:
    """(tp, fp, fn) over unordered pairs whose users both carry a label; a
    pair listed at several distances counts once."""
    clusters = list(truth_clusters)
    label = {uid: k for k, members in enumerate(clusters) for uid in members}
    scored = {(p.a, p.b) for p in pairs if p.a in label and p.b in label}
    tp = sum(1 for a, b in scored if label[a] == label[b])
    positives = sum(len(m) * (len(m) - 1) // 2 for m in clusters)
    return tp, len(scored) - tp, positives - tp


def encode_token(token: FeatureToken) -> bytes:
    """One direction byte (0x00 out, 0x01 in), the 4-byte big-endian length
    of the neighbor's UTF-8 bytes, then those bytes."""
    payload = token.neighbor.encode("utf-8")
    return {"out": b"\x00", "in": b"\x01"}[token.direction] + len(payload).to_bytes(4, "big") + payload


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


def token_hash(token: FeatureToken, cfg: RunConfig) -> int:
    """The b-bit token hash: word j = FNV-1a-64 over (encoding ++ seed ++ j),
    word 0 most significant, low b bits kept."""
    return _token_hash(token.direction, token.neighbor, cfg.bits, cfg.seed)


@lru_cache(maxsize=1 << 18)
def _token_votes(direction: str, neighbor: str, b: int, seed: int) -> np.ndarray:
    """Per-bit vote row for one token: +1 where the hash bit is 1, else -1."""
    value = _token_hash(direction, neighbor, b, seed)
    raw = np.frombuffer(value.to_bytes(b // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    row = bits.astype(np.int8) * 2 - 1
    row.setflags(write=False)
    return row


def simhash(fmap: FeatureMap, cfg: RunConfig) -> Fingerprint:
    """Classic weighted SimHash: each token votes +/- its weight per bit.

    Raises UnfingerprintableError for an empty feature map; the caller
    decides whether to skip the user.
    """
    if fmap.is_empty():
        raise UnfingerprintableError(fmap.owner)
    tokens = sorted(fmap.entries)
    rows = np.stack(
        [_token_votes(t.direction, t.neighbor, cfg.bits, cfg.seed) for t in tokens]
    )
    weights = np.array([fmap.entries[t] for t in tokens], dtype=np.float64)
    votes = np.add.reduce(rows * weights[:, None], axis=0)
    bits = np.packbits(votes > 0, bitorder="little").tobytes()
    return Fingerprint(
        owner=fmap.owner, bits=int.from_bytes(bits, "little"), width=cfg.bits
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
    return _mutual(_candidate_lists(pairs))


def _mutual(lists: dict[str, list[tuple[int, str]]]) -> list[MutualMatch]:
    nearest = {uid: cands[0] for uid, cands in lists.items()}
    matches: list[MutualMatch] = []
    for uid, (dd, other) in nearest.items():
        if uid < other and nearest[other] == (dd, uid):
            matches.append(MutualMatch(a=uid, b=other, distance=dd, exact=dd == 0))
    matches.sort(key=lambda m: (m.distance, m.a, m.b))
    return matches


def one_to_many(pairs: Iterable[CandidatePair]) -> dict[str, list[tuple[str, int]]]:
    return _fanout(_candidate_lists(pairs))


def _fanout(lists: dict[str, list[tuple[int, str]]]) -> dict[str, list[tuple[str, int]]]:
    return {
        uid: [(other, dd) for dd, other in cands]
        for uid, cands in sorted(lists.items())
        if len(cands) >= 2
    }


def report_dict(pairs: Iterable[CandidatePair]) -> dict:
    """What ``MatchReport.to_dict`` gives for ``pairs``."""
    pairs = set(pairs)
    lists = _candidate_lists(pairs)  # built once for both the mutual and the fan-out parts
    return {
        "clusters": [c.members for c in cluster(pairs)],
        "mutual": [
            {"a": m.a, "b": m.b, "distance": m.distance, "exact": m.exact}
            for m in _mutual(lists)
        ],
        "one_to_many": {
            uid: [{"id": other, "distance": dd} for other, dd in cands]
            for uid, cands in _fanout(lists).items()
        },
    }


def report_json(pairs: Iterable[CandidatePair], config: dict) -> str:
    """The text of ``report.json`` for ``pairs`` under ``config``."""
    return json.dumps({"config": config, **report_dict(pairs)}, indent=2, sort_keys=True) + "\n"


def candidates_tsv(pairs: Iterable[CandidatePair], header: str) -> str:
    """The text of ``candidates.tsv`` for ``pairs`` under a header line."""
    rows = (f"{p.a}\t{p.b}\t{p.distance}\n" for p in iter_sorted_pairs(set(pairs)))
    return header + "\n" + "".join(rows)
