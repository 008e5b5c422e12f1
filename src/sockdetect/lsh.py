"""Lossless Hamming-radius retrieval via pigeonhole blocking.

A b-bit fingerprint is split into m = d+1 disjoint blocks.  Two fingerprints
within Hamming distance d differ in at most d positions, so they must agree
exactly on at least one block: grouping users by exact block bits therefore
co-buckets every true pair at least once.  Verification with exact Hamming
distance then removes every false bucket collision, so retrieval is lossless
and ``candidate_pairs`` equals the all-pairs scan by construction.

Within a bucket the same guarantee holds on the remaining bit positions,
so one recursive grouping over one row per distinct fingerprint does both:
its first call forms the d+1 top-level blocks, and a large bucket is split
the same way while its chunks are wide enough for a split to pay, else
verified pairwise in batched popcounts; ``query`` is an exact popcount scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError
from .simhash import Fingerprint

# Buckets up to this size are verified pairwise; larger ones are recursively
# re-partitioned.  Crossover between C(k,2) vectorized popcounts and the cost
# of another round of block keying sits around k ~ 100.
LEAF_SIZE = 96
_FLUSH_PAIRS = 1 << 22
_POW2 = (np.int64(1) << np.arange(63, dtype=np.int64))


@dataclass(frozen=True)
class BlockPlan:
    """m = d+1 contiguous disjoint bit ranges covering [0, b), widest first."""

    m: int
    ranges: list[tuple[int, int]]  # (start, width)


@dataclass(frozen=True, order=True)
class CandidatePair:
    """A verified near-pair; ``a < b`` in canonical id order."""

    a: str
    b: str
    distance: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"pair endpoints must be ordered, got {self.a!r}, {self.b!r}")

    @classmethod
    def ordered(cls, u: str, v: str, distance: int) -> "CandidatePair":
        return cls(u, v, distance) if u < v else cls(v, u, distance)


@dataclass
class LshIndex:
    """Fingerprints packed once: row i of ``bits`` holds ``users[i]``, bit j
    in column j, and ``words`` holds the same rows as ``uint64`` words."""

    plan: BlockPlan
    users: list[str]
    bits: np.ndarray  # uint8 [n, b]
    words: np.ndarray  # uint64 [n, ceil(b/64)]
    max_distance: int

    def largest_bucket(self, rows: np.ndarray | slice = slice(None)) -> int:
        """Most of ``rows`` (every user by default) sharing one key of one
        top-level block."""
        bits = self.bits[rows]
        sizes = [
            np.unique(_chunk_keys(bits, np.arange(start, start + width)),
                      return_counts=True)[1].max()
            for start, width in self.plan.ranges
        ]
        return int(max(sizes, default=0))

    def bucket_memberships(self) -> int:
        return len(self.users) * self.plan.m


def plan_blocks(b: int, d: int) -> BlockPlan:
    """Partition [0, b) into d+1 ranges whose sizes differ by at most one."""
    if d < 0:
        raise ConfigError(f"max distance must be >= 0, got {d}")
    if d >= b:
        raise ConfigError(
            f"max distance {d} >= width {b}: every pair would be a candidate,"
            " use the brute-force scan instead"
        )
    m = d + 1
    q, r = divmod(b, m)
    widths = [q + 1] * r + [q] * (m - r)
    starts = itertools.accumulate(widths[:-1], initial=0)
    return BlockPlan(m=m, ranges=list(zip(starts, widths)))


def _pack(fps: Mapping[str, Fingerprint]) -> tuple[list[str], np.ndarray]:
    """Sorted ids and their fingerprints as an ``[n, b]`` uint8 bit matrix."""
    users = sorted(fps)
    widths = {fps[uid].width for uid in users}
    if len(widths) > 1:
        raise ValueError(f"fingerprint width mismatch: {sorted(widths)}")
    nbytes = widths.pop() // 8 if widths else 0
    raw = b"".join(fps[uid].bits.to_bytes(nbytes, "little") for uid in users)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(users), nbytes)
    return users, np.unpackbits(packed, axis=1, bitorder="little")


def _words(bits: np.ndarray) -> np.ndarray:
    """Bit-matrix rows as ``uint64`` words, zero-padded (b=32 fills half a word)."""
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def build_index(fps: Mapping[str, Fingerprint], d: int) -> LshIndex:
    """Pack the fingerprints once; the block plan covers their width."""
    users, bits = _pack(fps)
    plan = plan_blocks(bits.shape[1], d) if users else BlockPlan(m=d + 1, ranges=[])
    return LshIndex(plan=plan, users=users, bits=bits, words=_words(bits), max_distance=d)


class _Refiner:
    """Recursive pigeonhole grouping over an index's bit matrix; the pairs
    it emits are buffered and verified in large batches of popcounts."""

    def __init__(self, index: LshIndex, leaf_size: int):
        self.bits = index.bits
        self.words = index.words
        self.d = index.max_distance
        self.leaf_size = leaf_size
        self.pairs_verified = 0
        self._buffer: list[tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # verified pairs as low*n + high, and their distances; deduplicated per
        # flush so repeated co-bucketing cannot grow them past the pair count
        self.keys = np.zeros(0, dtype=np.int64)
        self.dists = np.zeros(0, dtype=np.int64)

    def refine(self, members: np.ndarray, avail: np.ndarray) -> None:
        """Emit a superset of all within-distance pairs among ``members``.

        Invariant: members are distinct rows that agree on all bit positions
        outside ``avail``, so the d+1-way split of ``avail`` gives every true
        pair a chunk of exact agreement.  A split pays only when its narrowest
        chunk, q = len(avail) // (d+1) bits, takes more than d+1 keys: under
        uniform bits it re-verifies about (d+1)/2**q of the node's pairs.
        """
        k = len(members)
        if k <= self.leaf_size or 2 ** (len(avail) // (self.d + 1)) <= self.d + 1:
            self._clique(members)
            return
        sub = self.bits[members]
        ranges = plan_blocks(len(avail), self.d).ranges
        chunks = [avail[start : start + width] for start, width in ranges]
        keys = [_chunk_keys(sub, chunk) for chunk in chunks]
        live = [i for i, chunk_keys in enumerate(keys) if (chunk_keys != chunk_keys[0]).any()]
        if len(live) < len(chunks):
            # every pair agrees on the constant chunks, and distinct members
            # leave some chunk live: split the live ones afresh
            self.refine(members, np.concatenate([chunks[i] for i in live]))
            return
        for (start, width), chunk_keys in zip(ranges, keys):
            order = np.argsort(chunk_keys, kind="stable")
            sorted_keys = chunk_keys[order]
            starts = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[0] - 1))
            sizes = np.diff(np.append(starts, k))
            remaining = np.delete(avail, slice(start, start + width))
            for size in np.unique(sizes[sizes > 1]):
                seg_starts = starts[sizes == size]
                rows = members[order[seg_starts[:, None] + np.arange(size)[None, :]]]
                if size <= self.leaf_size:
                    self._cliques(rows)
                else:
                    for row in rows:
                        self.refine(row, remaining)

    def _clique(self, members: np.ndarray) -> None:
        if len(members) > 2048:
            # degenerate giant bucket: emit row by row to bound memory
            for i in range(len(members) - 1):
                tail = members[i + 1 :]
                self._push(np.full(len(tail), members[i]), tail)
        else:
            self._cliques(members[None, :])

    def _cliques(self, blocks: np.ndarray) -> None:
        """blocks: [g, s] matrix, each row an independent clique of size s."""
        s = blocks.shape[1]
        triu = self._triu.get(s)
        if triu is None:
            triu = np.triu_indices(s, 1)
            if s <= LEAF_SIZE:  # keep the cache small
                self._triu[s] = triu
        self._push(blocks[:, triu[0]].ravel(), blocks[:, triu[1]].ravel())

    def _push(self, I: np.ndarray, J: np.ndarray) -> None:
        self._buffer.append((I, J))
        self._buffered += len(I)
        if self._buffered >= _FLUSH_PAIRS:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        I, J = map(np.concatenate, zip(*self._buffer))
        self._buffer.clear()
        self._buffered = 0
        self.pairs_verified += len(I)
        dist = np.bitwise_count(self.words[I] ^ self.words[J]).sum(axis=1, dtype=np.int64)
        ok = dist <= self.d
        n = len(self.words)
        keys = np.minimum(I[ok], J[ok]) * n + np.maximum(I[ok], J[ok])
        self.keys, first = np.unique(np.append(self.keys, keys), return_index=True)
        self.dists = np.append(self.dists, dist[ok])[first]


def _chunk_keys(sub_bits: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    cols = sub_bits[:, chunk]
    if len(chunk) <= 63:
        return cols.astype(np.int64) @ _POW2[: len(chunk)]
    packed = np.packbits(cols, axis=1)
    _, inverse = np.unique(packed, axis=0, return_inverse=True)
    return inverse.ravel().astype(np.int64)


def candidate_pairs(
    index: LshIndex,
    stats: dict | None = None,
    leaf_size: int = LEAF_SIZE,
) -> set[CandidatePair]:
    """All pairs of indexed users within the index's Hamming radius.

    Only one row per distinct fingerprint is refined; a class of equal rows
    gives all its member pairs at distance 0, and a verified pair of distinct
    rows gives the product of their classes.  Equals ``brute_force_pairs``:
    the top-level blocks co-bucket every true pair at least once, refinement
    never separates two members that agree on a chunk, and every emitted
    pair is verified with the exact distance.
    """
    n, b = index.bits.shape
    _, reps, inverse = np.unique(index.words, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    refiner = _Refiner(index, leaf_size)
    refiner.refine(reps, np.arange(b))
    refiner.flush()
    if stats is not None:
        stats.update(pairs_verified=refiner.pairs_verified, largest_bucket=index.largest_bucket(),
                     largest_distinct_bucket=index.largest_bucket(reps),
                     distinct_fingerprints=len(reps))
    classes: list[list[str]] = [[] for _ in reps]
    for uid, c in zip(index.users, inverse.tolist()):
        classes[c].append(uid)  # users are sorted, so each class is too
    pairs = {CandidatePair(u, v, 0) for ids in classes for u, v in itertools.combinations(ids, 2)}
    low, high = np.divmod(refiner.keys, max(n, 1))
    for i, j, dd in zip(inverse[low].tolist(), inverse[high].tolist(), refiner.dists.tolist()):
        pairs.update(CandidatePair.ordered(u, v, dd) for u in classes[i] for v in classes[j])
    return pairs


def query(index: LshIndex, fp: Fingerprint) -> list[tuple[str, int]]:
    """All indexed users within the radius of ``fp``, sorted by (distance, id),
    by an exact popcount scan of every row; the owner of ``fp`` is excluded."""
    if not index.users:
        return []
    if fp.width != index.bits.shape[1]:
        raise ValueError(f"width mismatch: query {fp.width} vs index {index.bits.shape[1]}")
    probe = _words(_pack({fp.owner: fp})[1])
    dist = np.bitwise_count(index.words ^ probe).sum(axis=1, dtype=np.int64)
    hits = np.flatnonzero(dist <= index.max_distance).tolist()
    results = sorted((int(dist[i]), index.users[i]) for i in hits)
    return [(uid, dd) for dd, uid in results if uid != fp.owner]


def brute_force_pairs(fps: Mapping[str, Fingerprint], d: int) -> set[CandidatePair]:
    """All-pairs exact Hamming filter; the O(n^2) oracle the index replaces."""
    if len(fps) < 2:
        return set()
    users, bits = _pack(fps)
    words = _words(bits)
    n, nwords = words.shape
    pairs: set[CandidatePair] = set()
    rows_per_chunk = max(1, (1 << 22) // (n * nwords))
    for i0 in range(0, n, rows_per_chunk):
        i1 = min(i0 + rows_per_chunk, n)
        xor = words[i0:i1, None, :] ^ words[None, :, :]
        dist = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
        upper = np.arange(n)[None, :] > np.arange(i0, i1)[:, None]
        for r, c in zip(*np.nonzero((dist <= d) & upper)):
            pairs.add(CandidatePair(users[i0 + r], users[c], int(dist[r, c])))
    return pairs


def iter_sorted_pairs(pairs: set[CandidatePair]) -> Iterator[CandidatePair]:
    """Canonical report order: by (distance, a, b)."""
    return iter(sorted(pairs, key=lambda p: (p.distance, p.a, p.b)))
