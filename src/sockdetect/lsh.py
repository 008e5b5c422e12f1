"""Lossless Hamming-radius retrieval by multi-index hashing (Norouzi et al. 2012).

A b-bit fingerprint is split into m blocks, each searched at radius
r = ⌊d/m⌋.  Two fingerprints within distance d differ in at most d bits and
m·(r+1) > d, so some block holds at most r of them: probing every key
within radius r of each row's block key reaches every true pair.  A pair is
emitted only from the lowest block whose r-ball holds it and verified once
by exact popcount, so ``candidate_pairs`` equals the all-pairs scan.  It
runs on one row per distinct fingerprint, and one cost rule
(``BlockPlan.cost``: lookups, directory work and VERIFY_COST per pair that
uniform bits co-bucket) picks m or the all-pairs scan.  The pairs come
back as ``CandidatePairs``, row-index arrays in canonical order, with
each class of equal fingerprints expanded into its member pairs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .simhash import Fingerprints

# One verification costs about this many key lookups: fitted by timing every
# plan on ten (corpus, radius) cases, synth 2k, 5k, 20k and a hub-shaped chat
# at b=128, d = 6..20 (2-core x86 VM: 1.2e-8 s a lookup, 1.1e-7 s a pair).  The
# rule then picks the fastest plan in all ten (m=11 at 2k, 8 at 5k, 7 at 20k).
VERIFY_COST = 15
_KEY_BITS = 62  # widest block key, so every key is one int64
_DENSE_BITS = 22  # widest block given a dense count table, sorted keys above
_PROBE_CHUNK = 1 << 18  # probe keys looked up per step
_PAIR_CHUNK = 1 << 20  # row pairs expanded and verified per step


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., counts[0]-1, 0, 1, .., counts[1]-1, ...: each position within its run."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def bound(values: np.ndarray) -> int:
    """One more than the largest of non-negative ``values``; 1 if there are none."""
    return int(values.max()) + 1 if len(values) else 1


def pack_rows(columns: list[np.ndarray], bounds: list[int]) -> np.ndarray:
    """One int64 key per row of ``columns``, where column k holds integers in
    [0, bounds[k]): keys sort as the rows do lexicographically, first column
    first, and sorting them is many times faster than ``np.lexsort``."""
    if math.prod(bounds) > 2**63:
        raise ValueError(f"rows with bounds {bounds} do not fit one int64 key")
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column, radix in zip(columns, bounds):
        key *= radix
        key += column
    return key


def unpack_rows(key: np.ndarray, bounds: list[int]) -> list[np.ndarray]:
    """The columns ``pack_rows`` packed into ``key``."""
    columns = []
    for radix in reversed(bounds):
        key, column = np.divmod(key, radix)
        columns.append(column)
    return columns[::-1]


def sort_rows(columns: list[np.ndarray], bounds: list[int]) -> list[np.ndarray]:
    """``columns`` reordered so their rows sort lexicographically."""
    key = pack_rows(columns, bounds)
    key.sort()
    return unpack_rows(key, bounds)


def _ball(width: int, radius: int) -> int:
    """Keys within Hamming distance ``radius`` of one ``width``-bit key."""
    return sum(math.comb(width, k) for k in range(radius + 1))


def _dense(width: int, lookups: int, n: int) -> bool:
    """A dense count table, when 2^width entries cost less than log2 n per lookup."""
    return width <= _DENSE_BITS and 1 << width <= lookups * n.bit_length()


@dataclass(frozen=True)
class BlockPlan:
    """m contiguous disjoint bit ranges covering [0, b), widest first, each
    searched at Hamming radius ``radius``; m = 0 is the all-pairs scan."""

    m: int
    ranges: list[tuple[int, int]]  # (start, width)
    radius: int = 0

    def probes(self) -> int:
        """Keys looked up per row, over all blocks."""
        return sum(_ball(width, self.radius) for _, width in self.ranges)

    def expected_verifications(self, n: int) -> float:
        """Pairs verified among n rows of uniform random bits."""
        share = sum(_ball(w, self.radius) / 2**w for _, w in self.ranges) if self.m else 1.0
        return n * (n - 1) / 2 * share

    def cost(self, n: int) -> float:
        """Lookups, directory work, and VERIFY_COST per expected verification."""
        total = VERIFY_COST * self.expected_verifications(n)
        for _, width in self.ranges:
            lookups = n * _ball(width, self.radius)
            directory = 1 << width if _dense(width, lookups, n) else lookups * n.bit_length()
            total += lookups + directory
        return total


@dataclass(frozen=True, order=True)
class CandidatePair:
    """A verified near-pair; ``a < b`` in canonical id order."""

    a: str
    b: str
    distance: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"pair endpoints must be ordered, got {self.a!r}, {self.b!r}")


class CandidatePairs(Set):
    """Candidate pairs as row-index arrays over the sorted ``users``: pair k
    is ``CandidatePair(users[a[k]], users[b[k]], distance[k])``, with
    a[k] < b[k], and the pairs are in canonical (distance, a, b) order.

    A read-only set of CandidatePair: ``len`` is free, iteration builds each
    pair on demand in canonical order, and membership looks the pair's rows
    up, so it compares equal to the ``set`` of the same pairs.
    """

    def __init__(self, users: list[str], a: np.ndarray, b: np.ndarray, distance: np.ndarray):
        self.users, self.a, self.b, self.distance = users, a, b, distance

    @classmethod
    def canonical(cls, users: list[str], a: np.ndarray, b: np.ndarray,
                  distance: np.ndarray) -> CandidatePairs:
        """The pairs (a, b, distance), each a < b, put in canonical order."""
        n = len(users)
        distance, a, b = sort_rows([distance, a, b], [bound(distance), n, n])
        return cls(users, a, b, distance)

    def within(self, d: int) -> CandidatePairs:
        """The pairs at distance <= d: a prefix, since distance sorts first."""
        k = int(np.searchsorted(self.distance, d, side="right"))
        return CandidatePairs(self.users, self.a[:k], self.b[:k], self.distance[:k])

    @classmethod
    def _from_iterable(cls, pairs: Iterable[CandidatePair]) -> set[CandidatePair]:
        return set(pairs)  # what the operators Set provides (|, &, -, ^) return

    @cached_property
    def _top(self) -> int:
        return bound(self.distance)

    @cached_property
    def _keys(self) -> np.ndarray:
        """(a, b, distance) of every pair as one sorted key, for lookups."""
        n = len(self.users)
        return np.sort(pack_rows([self.a, self.b, self.distance], [n, n, self._top]))

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, CandidatePair) or not 0 <= pair.distance < self._top:
            return False
        users = self.users
        i, j = bisect_left(users, pair.a), bisect_left(users, pair.b)
        if j == len(users) or users[i] != pair.a or users[j] != pair.b:
            return False
        key = (i * len(users) + j) * self._top + pair.distance
        k = int(np.searchsorted(self._keys, key))
        return k < len(self._keys) and int(self._keys[k]) == key

    def __iter__(self) -> Iterator[CandidatePair]:
        name = self.users.__getitem__
        for s in range(0, len(self), _PAIR_CHUNK):
            rows = slice(s, s + _PAIR_CHUNK)
            yield from map(CandidatePair, map(name, self.a[rows].tolist()),
                           map(name, self.b[rows].tolist()), self.distance[rows].tolist())

    def __len__(self) -> int:
        return len(self.distance)

    def __repr__(self) -> str:
        return f"CandidatePairs({set(self)!r})"


@dataclass
class LshIndex:
    """The sorted ``users`` and their fingerprints, row i of ``words``
    holding ``users[i]`` as in ``Fingerprints``.  ``reps`` holds
    the first row of each distinct fingerprint, ``classes`` each row's
    position in ``reps``; ``plan`` is chosen for the ``reps``."""

    plan: BlockPlan
    users: list[str]
    words: np.ndarray  # uint64 [n, ceil(width/64)]
    reps: np.ndarray
    classes: np.ndarray
    max_distance: int

    def bucket_memberships(self) -> int:
        """Entries over all block tables: one per distinct row and block."""
        return len(self.reps) * self.plan.m


def _split(b: int, d: int, m: int) -> BlockPlan:
    """[0, b) as m ranges whose sizes differ by at most one, at radius ⌊d/m⌋."""
    q, r = divmod(b, m)
    widths = [q + 1] * r + [q] * (m - r)
    starts = itertools.accumulate(widths[:-1], initial=0)
    return BlockPlan(m=m, ranges=list(zip(starts, widths)), radius=d // m)


def plan_blocks(b: int, d: int) -> BlockPlan:
    """The exact-match pigeonhole plan: d+1 ranges, each searched at radius 0."""
    if d < 0:
        raise ConfigError(f"max distance must be >= 0, got {d}")
    if d >= b:
        raise ConfigError(
            f"max distance {d} >= width {b}: every pair would be a candidate,"
            " use the brute-force scan instead"
        )
    return _split(b, d, d + 1)


def _plans(b: int, d: int) -> list[BlockPlan]:
    """The plans the cost rule chooses from: the scan, and m blocks for every
    m whose keys fit in 62 bits, up to d+1 (beyond it r stays 0 and the
    blocks only narrow)."""
    plan_blocks(b, d)
    fewest = -(-b // _KEY_BITS)
    scan = BlockPlan(m=0, ranges=[], radius=d)
    return [scan, *(_split(b, d, m) for m in range(fewest, max(fewest, d + 1) + 1))]


def build_index(fps: Fingerprints, d: int) -> LshIndex:
    """Collapse equal fingerprints and plan for the distinct ones."""
    _, reps, classes = np.unique(fps.words, axis=0, return_index=True, return_inverse=True)
    n = len(reps)
    plan = min(_plans(fps.width, d), key=lambda p: p.cost(n)) if fps else BlockPlan(0, [], d)
    return LshIndex(plan=plan, users=fps.owners, words=fps.words, reps=reps,
                    classes=classes.ravel(), max_distance=d)


def _block_keys(words: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits [start, start + width) of each row as one int64 key, bit start lowest."""
    w, s = divmod(start, 64)
    key = words[:, w] >> np.uint64(s)
    if s + width > 64:
        key |= words[:, w + 1] << np.uint64(64 - s)
    return (key & np.uint64((1 << width) - 1)).astype(np.int64)


def _block_pairs(keys: list[np.ndarray], t: int, width: int, radius: int
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row pairs i < j within ``radius`` on block t and on no lower block."""
    key = keys[t]
    n = len(key)
    masks = np.array([sum(1 << i for i in c) for k in range(radius + 1)  # <= radius bits set
                      for c in itertools.combinations(range(width), k)], dtype=np.int64)
    order = np.argsort(key, kind="stable")
    dense = _dense(width, n * len(masks), n)
    if dense:  # bucket of key k: order[start[k] : start[k] + count[k]]
        count = np.bincount(key, minlength=1 << width)
        start = np.cumsum(count) - count
    else:
        sorted_keys = key[order]
    step = max(1, _PROBE_CHUNK // len(masks))
    for i0 in range(0, n, step):
        probe = (key[i0 : i0 + step, None] ^ masks).ravel()
        if dense:
            cnt = count[probe]
        else:
            lo = np.searchsorted(sorted_keys, probe)
            cnt = np.searchsorted(sorted_keys, probe, side="right") - lo
        hit = np.flatnonzero(cnt)
        lo, cnt = start[probe[hit]] if dense else lo[hit], cnt[hit]
        owner = hit // len(masks) + i0
        # cut the hits into runs of about _PAIR_CHUNK pairs
        cuts = np.arange(_PAIR_CHUNK, cnt.sum(), _PAIR_CHUNK)
        bounds = [0, *np.searchsorted(np.cumsum(cnt), cuts, side="right"), len(hit)]
        for a, z in itertools.pairwise(bounds):
            if a == z:
                continue
            c = cnt[a:z]
            I, J = np.repeat(owner[a:z], c), order[np.repeat(lo[a:z], c) + _ragged(c)]
            up = J > I
            I, J = I[up], J[up]
            for lower in keys[:t]:
                far = np.bitwise_count(lower[I] ^ lower[J]) > radius
                I, J = I[far], J[far]
            yield I, J


def _candidates(words: np.ndarray, plan: BlockPlan) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row pairs i < j, each at most once, covering every pair within the
    plan's reach: all of them for the scan."""
    n = len(words)
    if not plan.m:
        step = max(1, _PAIR_CHUNK // max(n, 1))
        for i0 in range(0, n, step):
            I, J = np.nonzero(np.arange(i0, min(i0 + step, n))[:, None] < np.arange(n))
            yield I + i0, J
        return
    keys = [_block_keys(words, s, w) for s, w in plan.ranges]
    for t, (_, width) in enumerate(plan.ranges):
        yield from _block_pairs(keys, t, width, plan.radius)


def _search(words: np.ndarray, plan: BlockPlan, d: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Rows i < j within distance d, as index arrays and their distances,
    and the number of pairs verified."""
    found, verified = [(np.zeros(0, dtype=np.int64),) * 3], 0
    for I, J in _candidates(words, plan):
        dist = np.bitwise_count(words[I] ^ words[J]).sum(axis=1, dtype=np.int64)
        ok = dist <= d
        verified += len(I)
        found.append((I[ok], J[ok], dist[ok]))
    I, J, dist = map(np.concatenate, zip(*found))
    return I, J, dist, verified


def _expand(classes: np.ndarray, I: np.ndarray, J: np.ndarray, dist: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User row pairs u < v and their distances: every pair inside a class
    at 0, and for each pair (I, J) of classes every pair of their members."""
    members = np.argsort(classes, kind="stable")  # each class's rows, ascending
    size = np.bincount(classes)
    start = np.cumsum(size) - size
    # the member at position p of its class pairs with positions p+1 .. size-1
    later = np.repeat(start + size, size) - np.arange(len(members)) - 1
    u0 = np.repeat(members, later)
    v0 = members[np.repeat(np.arange(len(members)) + 1, later) + _ragged(later)]
    # pair k of classes gives size[I[k]] * size[J[k]] member pairs
    width = size[J]
    count = size[I] * width
    k = np.repeat(np.arange(len(dist)), count)
    q, r = np.divmod(_ragged(count), width[k])
    u1, v1 = members[start[I][k] + q], members[start[J][k] + r]
    a = np.concatenate([u0, np.minimum(u1, v1)])
    b = np.concatenate([v0, np.maximum(u1, v1)])
    return a, b, np.concatenate([np.zeros(len(u0), dtype=np.int64), dist[k]])


def candidate_pairs(index: LshIndex, stats: dict | None = None) -> CandidatePairs:
    """All pairs of indexed users within the index's Hamming radius, as
    arrays over ``index.users``.

    Only one row per distinct fingerprint is searched; a class of equal rows
    gives all its member pairs at distance 0, and a verified pair of distinct
    rows gives the product of their classes.  Equals ``brute_force_pairs``:
    the plan's blocks reach every true pair, and every emitted pair is
    verified with the exact distance.  ``stats`` receives
    ``pairs_verified``, ``distinct_fingerprints`` and
    ``largest_duplicate_class``.
    """
    reps = index.reps
    I, J, dist, verified = _search(index.words[reps], index.plan, index.max_distance)
    if stats is not None:
        stats.update(pairs_verified=verified, distinct_fingerprints=len(reps),
                     largest_duplicate_class=int(np.bincount(index.classes).max(initial=0)))
    return CandidatePairs.canonical(index.users, *_expand(index.classes, I, J, dist))


def brute_force_pairs(fps: Fingerprints, d: int) -> CandidatePairs:
    """All-pairs exact Hamming filter; the O(n^2) oracle the index replaces."""
    words = fps.words
    n, nwords = words.shape
    found = [(np.zeros(0, dtype=np.int64),) * 3]
    rows_per_chunk = max(1, (1 << 22) // max(n * nwords, 1))
    for i0 in range(0, n, rows_per_chunk):
        dist = np.bitwise_count(words[i0 : i0 + rows_per_chunk, None, :] ^ words[None, :, :])
        dist = dist.sum(axis=2, dtype=np.int64)
        I, J = np.nonzero((dist <= d) & (np.arange(n) > np.arange(i0, i0 + len(dist))[:, None]))
        found.append((I + i0, J, dist[I, J]))
    a, b, distance = map(np.concatenate, zip(*found))
    return CandidatePairs.canonical(fps.owners, a, b, distance)
