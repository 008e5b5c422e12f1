"""Lossless Hamming-radius retrieval by multi-index hashing (Norouzi et al. 2012).

A b-bit fingerprint is split into m blocks, block t searched at its own
radius r_t, as GPH generalizes the pigeonhole split (Qin et al., "GPH:
Similarity Search in Hamming Space", ICDE 2018).  Two fingerprints within
distance d differ in at most d bits and Σ(r_t + 1) > d, so some block t
holds at most r_t of them: probing the keys within r_t of each row's block
key reaches every true pair.  Each unordered pair of keys is reached once:
rows with equal keys pair up inside their bucket, and keys that differ are
found only from the row whose key has a 0 at the highest differing bit,
which probes just the masks whose top bit is that one.  A pair is emitted
only from the lowest block that holds it within its radius and verified
once by exact popcount, so ``candidate_pairs`` equals the all-pairs scan.
It runs on one row per distinct fingerprint, and one cost rule
(``BlockPlan.cost``: lookups, a fixed cost per block, a dense count table
of 2^w entries per w-bit block at a positive radius and VERIFY_COST per
pair that uniform bits would verify) picks the plan -- m0
blocks at radius r beside m1 at r + 1 -- or the all-pairs scan, priced at
SCAN_COST per pair.  ``_search`` runs a plan's blocks, or for the scan plan
and the oracle ``brute_force_pairs`` chunks of rows by ``_scan_rows``, on
one thread per CPU the process may use once the plan's cost passes
PARALLEL_COST, through the thread map ``simhash._mapped`` that
fingerprinting uses too; the result does not depend on the thread count.
The pairs come back as ``CandidatePairs``, row-index arrays in canonical
order, with each class of equal fingerprints expanded into its member pairs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .errors import ConfigError
from .simhash import Fingerprints, _cpus, _mapped

# The cost rule counts key lookups.  One verification (expanding its run, the
# lower-block test and the popcount) costs about 25 of them, a block about
# 2,000 whatever its width, and a pair of the all-pairs scan about 5.  Fitted
# by timing, each repetition interleaved across plans, the plans the rule
# offers on 30 (corpus, radius) cases at b=128 (2-core x86 VM): synth 2k to
# 20k rows and subsets of 20 to 1,000 rows, random-5k and hub-90 at d = 6..20,
# and a chat of 250 one-reply users.  The rule's plan is then within 7% of
# the fastest on every case but two kinds: between 168 and about 300 rows at
# d=20 it takes blocks where the scan measured up to 2.4x faster (3 ms at
# most), and at 148 rows and d=10 it is 1.35x (0.4 ms) off.  The best fit,
# 25 / 5,000 / 3, scans up to about 330 rows; the smaller block cost keeps
# block plans from 168 rows, which the duplicate-class and excess-verification
# tests of 201 and 250 rows rely on.  The scan now runs the oracle's kernel,
# 3-4x faster than when fitted; SCAN_COST is kept so that no plan changes.
VERIFY_COST = 25
BLOCK_COST = 2_000
SCAN_COST = 5
_KEY_BITS = 62  # widest block key, so every key is one int64
_DENSE_BITS = 22  # widest block searched at a positive radius: its count table has 2^w entries
_PROBE_CHUNK = 1 << 18  # probe keys looked up per step
_PAIR_CHUNK = 1 << 20  # row pairs expanded and verified per step
# Two threads take turns at a plan's Python-level steps, so a small plan runs
# on the calling thread.  Fitted on first calls in fresh processes, one thread
# and two interleaved, 9 of each (2-core x86 VM, b=128): hub-90 at d=20
# (1.5 M units) took 29 ms on one thread and 28 ms on two, random-5k at d=10
# (0.57 M) 19 and 18 ms; random-5k's rows at d=20 gained from 2.05 M on
# (37 -> 31 ms), and all of them (5.4 M) went from 83 to 55 ms.
PARALLEL_COST = 2_000_000


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., counts[0]-1, 0, 1, .., counts[1]-1, ...: each position within its run."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _workers(cost: float, tasks: int) -> int:
    """Threads for ``tasks`` independent tasks of a plan of this cost: one
    below PARALLEL_COST, else one per CPU the process may use, at most one
    per task."""
    return 1 if cost < PARALLEL_COST else max(1, min(tasks, _cpus()))


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


@cache
def _block_tables(radii: int) -> tuple[np.ndarray, np.ndarray]:
    """For a w-bit block at radius r <= ``radii``, w up to 62 (and 63 for
    an empty slot): half[w, r], its lookups per row (half its ball, its own
    key left out); and miss[w, r], the log of the chance that two uniform
    keys lie farther apart than r on it."""
    w, k = np.arange(_KEY_BITS + 2)[:, None], np.arange(radii + 1)
    # C(w, k) = C(w, k-1) (w-k+1) / k, and 0 from k = w+1 on
    ball = np.cumprod(np.where(k, (w - k + 1) / np.maximum(k, 1), 1), axis=1).cumsum(axis=1)
    held = np.minimum(ball / np.exp2(w), 1 - 2**-53)  # finite when 1
    return (ball - 1) / 2, np.log1p(-held)


def _terms(widths: np.ndarray, radii: np.ndarray, counts: np.ndarray) -> tuple:
    """The parts of the cost rule that do not depend on n, for block plans
    given as [kind, plan] arrays: plan p has counts[k, p] blocks of
    widths[k, p] bits at radius radii[k, p].  Per plan they are the lookups
    per row, the share of uniform pairs that some block holds within its
    radius, and the fixed cost: BLOCK_COST per block, and 2^w for the dense
    count table of each w-bit block at a positive radius, infinite when w
    passes _DENSE_BITS."""
    half, miss = _block_tables(int(radii.max()))
    at = widths * half.shape[1] + radii
    share = -np.expm1((counts * miss.ravel()[at]).sum(axis=0))
    table = np.where((radii > 0) & (counts > 0), np.exp2(np.where(widths > _DENSE_BITS, np.inf, widths)), 0)
    return (counts * half.ravel()[at]).sum(axis=0), share, (counts * (BLOCK_COST + table)).sum(axis=0)


def _price(terms: tuple, n: int) -> np.ndarray:
    """The cost rule for n distinct rows, per plan: the rows' lookups, the
    blocks' fixed cost and VERIFY_COST per expected verification."""
    lookups, share, fixed = terms
    return n * lookups + fixed + VERIFY_COST * n * (n - 1) / 2 * share


@dataclass(frozen=True)
class BlockPlan:
    """Contiguous disjoint bit ranges covering [0, b), block t searched at
    Hamming radius ``radii[t]``; no ranges is the all-pairs scan."""

    ranges: list[tuple[int, int]] = field(default_factory=list)  # (start, width)
    radii: list[int] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.ranges)

    def _terms(self) -> tuple:
        widths = np.array([[width] for _, width in self.ranges])
        return _terms(widths, np.array(self.radii)[:, None], np.ones_like(widths))

    def expected_verifications(self, n: int) -> float:
        """Pairs verified among n rows of uniform random bits: each pair some
        block holds within its radius, once, from the lowest such block."""
        return n * (n - 1) / 2 * (float(self._terms()[1][0]) if self.m else 1.0)

    def cost(self, n: int) -> float:
        """The cost rule's units for n distinct rows; SCAN_COST per pair for
        the scan, which has no runs to expand and no lower blocks to test;
        infinite for a block wider than _DENSE_BITS at a positive radius,
        which cannot be searched."""
        return float(_price(self._terms(), n)[0]) if self.m else SCAN_COST * n * (n - 1) / 2


def _even(bits: int, m: int) -> list[int]:
    """``bits`` split into m widths that differ by at most one, widest first."""
    q, r = divmod(bits, m) if m else (0, 0)
    return [q + 1] * r + [q] * (m - r)


def _grouped(b: int, r: int, m0: int, m1: int, bits0: int) -> BlockPlan:
    """m0 blocks over bits [0, bits0) at radius r, then m1 blocks over the
    rest at radius r + 1."""
    widths = _even(bits0, m0) + _even(b - bits0, m1)
    starts = itertools.accumulate(widths[:-1], initial=0)
    return BlockPlan(ranges=list(zip(starts, widths)), radii=[r] * m0 + [r + 1] * m1)


def check_radius(b: int, d: int) -> None:
    """Raise ConfigError for a radius below 0, or one no pair of b-bit fingerprints exceeds."""
    if d < 0:
        raise ConfigError(f"max distance must be >= 0, got {d}")
    if d >= b:
        raise ConfigError(
            f"max distance {d} >= width {b}: every pair would be a candidate,"
            " use the brute-force scan instead"
        )


@cache
def _groupings(b: int, d: int) -> tuple[np.ndarray, tuple]:
    """The block plans the cost rule weighs besides the scan, as columns
    (r, m0, m1, bits0) of ``_grouped``, and their ``_terms``.  They are m
    blocks at radius ⌊d/m⌋, for every m from the fewest whose keys fit in
    62 bits up to d+1 (beyond it r stays 0 and the blocks only narrow); and
    m0 blocks at r beside m1 >= 1 at r + 1, m0 the fewest that keep
    Σ(r_t + 1) > d, over every split of the bits.  Every block is wider
    than its radius and at most 62 bits wide, or _DENSE_BITS when searched
    at a positive radius, so that its count table fits."""
    check_radius(b, d)
    fewest = -(-b // _KEY_BITS)
    m = np.arange(fewest, max(fewest, d + 1) + 1)
    m = m[(b // m > d // m) & (-(-b // m) <= np.where(d // m, _DENSE_BITS, _KEY_BITS))]
    r, m1 = (a.ravel() for a in np.meshgrid(np.arange(d + 1), np.arange(1, d + 1), indexing="ij"))
    m0 = (d + 1 - m1 * (r + 2) + r) // (r + 1)
    r, m0, m1 = r[m0 >= 1], m0[m0 >= 1], m1[m0 >= 1]
    lo = np.maximum(m0 * (r + 1), b - _DENSE_BITS * m1)
    span = np.maximum(np.minimum(b - m1 * (r + 2), np.where(r, _DENSE_BITS, _KEY_BITS) * m0) - lo + 1, 0)
    row = np.repeat(np.arange(len(r)), span)
    groupings = np.stack([np.concatenate([d // m, r[row]]), np.concatenate([m, m0[row]]),
                          np.concatenate([0 * m, m1[row]]), np.concatenate([0 * m + b, lo[row] + _ragged(span)])])
    r, m0, m1, bits0 = groupings
    q0, r0 = np.divmod(bits0, m0)
    q1, r1 = np.divmod(b - bits0, np.maximum(m1, 1))
    widths, radii = np.stack([q0 + 1, q0, q1 + 1, q1]), np.stack([r, r, r + 1, r + 1])
    return groupings, _terms(widths, radii, np.stack([r0, m0 - r0, r1, m1 - r1]))


def choose_plan(b: int, d: int, n: int) -> BlockPlan:
    """The plan of least cost for n distinct rows of b bits at radius d; the
    scan wins ties."""
    groupings, terms = _groupings(b, d)
    costs = _price(terms, n)
    k = int(np.argmin(costs))
    return _grouped(b, *map(int, groupings[:, k])) if costs[k] < BlockPlan().cost(n) else BlockPlan()


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


def build_index(fps: Fingerprints, d: int) -> LshIndex:
    """Collapse equal fingerprints and plan for the distinct ones: the
    ``reps`` and ``classes`` of ``np.unique(words, axis=0)``, from a stable
    sort of the rows, word 0 first, and a comparison of neighbours."""
    words = fps.words
    # np.lexsort takes its primary key last, and refuses an empty key list
    order = np.lexsort(words.T[::-1]) if words.size else np.arange(len(words))
    rows, new = words[order], np.ones(len(words), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    classes = np.empty(len(words), dtype=np.intp)
    classes[order] = np.cumsum(new) - 1
    plan = choose_plan(fps.width, d, int(new.sum())) if fps else BlockPlan()
    return LshIndex(plan=plan, users=fps.owners, words=words, reps=order[new],
                    classes=classes, max_distance=d)


def _block_keys(words: np.ndarray, start: int, width: int) -> np.ndarray:
    """Bits [start, start + width) of each row as one int64 key, bit start lowest."""
    w, s = divmod(start, 64)
    key = words[:, w] >> np.uint64(s)
    if s + width > 64:
        key |= words[:, w + 1] << np.uint64(64 - s)
    return (key & np.uint64((1 << width) - 1)).astype(np.int64)


def _masks_by_top_bit(width: int, radius: int) -> list[np.ndarray]:
    """For each bit h below ``width``, the masks of at most ``radius`` set
    bits whose highest set bit is h; none at radius 0."""
    below = [np.zeros(1, dtype=np.int64)] * radius  # k: masks of at most k bits below h
    groups = []
    for h in range(width if radius else 0):
        groups.append(below[-1] | 1 << h)
        below = [below[0], *(np.concatenate([below[k], below[k - 1] | 1 << h]) for k in range(1, radius))]
    return groups


def _runs(key: np.ndarray, order: np.ndarray, width: int, radius: int, work: dict
          ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Runs (owner, lo, cnt), each row ``owner`` paired with the rows
    order[lo : lo + cnt], where ``order`` sorts ``key``.  Every unordered
    pair of rows within ``radius`` on this key is in exactly one run: rows
    with equal keys from the earlier one's place in the bucket, and keys
    that differ from the row whose key has a 0 at the highest differing bit
    h, which alone probes the masks whose top bit is h.  Adds the lookups
    made to ``work["probes"]``.  A block wider than _DENSE_BITS is searched
    only at radius 0."""
    if radius and width > _DENSE_BITS:
        raise ValueError(f"a {width}-bit block at radius {radius} is wider than {_DENSE_BITS} bits")
    n = len(key)
    sorted_keys = key[order]
    later = np.searchsorted(sorted_keys, sorted_keys, side="right") - np.arange(n) - 1
    run = np.flatnonzero(later)
    yield order[run], run + 1, later[run]
    groups = _masks_by_top_bit(width, radius)
    if not groups:
        return
    zeros = [np.flatnonzero(key >> h & 1 == 0) for h in range(len(groups))]
    work["probes"] += sum(len(rows) * len(masks) for rows, masks in zip(zeros, groups))
    # a present key k's bucket begins at start[k] in sorted order and holds later[start[k]] + 1
    # rows; the tables are written only at the keys present
    held = np.zeros(1 << width, dtype=bool)  # one byte a key: the probes' lookups stay in cache
    # int32 while positions fit: a 22-bit block of 100 rows took 4.3 ms with an int64 table and
    # 0.5 ms with this one, which the allocator reuses instead of mapping it afresh (2-core x86 VM)
    start = np.empty(1 << width, dtype=np.int32 if n < 2**31 else np.int64)
    first = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    held[sorted_keys[first]], start[sorted_keys[first]] = True, first
    for rows, masks in zip(zeros, groups):
        step = max(1, _PROBE_CHUNK // len(masks))
        for i0 in range(0, len(rows), step):
            owner = rows[i0 : i0 + step]
            probe = (key[owner, None] ^ masks).ravel()
            hit = np.flatnonzero(held[probe])
            lo = start[probe[hit]]
            yield owner[hit // len(masks)], lo, later[lo] + 1


def _pieces(runs: Iterable[tuple[np.ndarray, ...]], budget: int, size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The runs (owner, lo, cnt) in order, joined until they hold ``budget``
    pairs or end, and cut into pieces that each take the next runs while
    they hold at most ``size`` pairs, or one run that alone holds more."""
    batch, pairs = [], 0
    for run in itertools.chain(runs, [None]):  # None: the end
        if run is not None:
            batch.append(run)
            pairs += int(run[2].sum())
        if batch and (run is None or pairs >= budget):
            owner, lo, cnt = map(np.concatenate, zip(*batch))
            ends, a = np.cumsum(cnt), 0
            while a < len(cnt):
                z = max(a + 1, int(np.searchsorted(ends, ends[a] - cnt[a] + size, side="right")))
                yield owner[a:z], lo[a:z], cnt[a:z]
                a = z
            batch, pairs = [], 0


def _block_pairs(by_row: np.ndarray, plan: BlockPlan, t: int, budget: int, work: dict
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row pairs within the plan's radius on block t and beyond it on every
    lower block, each once, ``budget`` pairs joined at a time, adding the
    lookups to ``work["probes"]``; row i of ``by_row`` holds row i's keys."""
    key, radii = np.ascontiguousarray(by_row[:, t]), np.array(plan.radii)  # a copy sorts and probes faster
    order = np.argsort(key, kind="stable")
    runs = _runs(key, order, plan.ranges[t][1], plan.radii[t], work)
    # each pair is tested on t lower blocks at once, so a piece holds budget / (t + 1) pairs; joined
    # to the budget, most blocks probe all before they verify (7% faster at 20k rows, 2-core x86 VM)
    for owner, lo, cnt in _pieces(runs, budget, budget // (t + 1)):
        I, J = np.repeat(owner, cnt), order[np.repeat(lo, cnt) + _ragged(cnt)]
        near = (np.bitwise_count(by_row[I, :t] ^ by_row[J, :t]) <= radii[:t]).any(axis=1)
        yield I[~near], J[~near]


def _scan_rows(words: np.ndarray, d: int, rows: tuple[int, int]) -> tuple[list, dict]:
    """Rows i in [i0, i1) paired with every row j > i, word by word: those
    within distance d, and the work, every one of those pairs verified."""
    (i0, i1), (n, nwords) = rows, words.shape
    dist = np.zeros((i1 - i0, n - i0), dtype=np.uint16)  # b <= 256 overflows uint8
    for w in range(nwords):
        dist += np.bitwise_count(words[i0:i1, w, None] ^ words[i0:, w])
    I, J = np.nonzero(dist <= d)
    I, J = I[J > I], J[J > I]  # each pair once, and no row with itself
    pairs = (i1 - i0) * (2 * n - i0 - i1 - 1) // 2
    return [(I + i0, J + i0, dist[I, J].astype(np.int64))], {"probes": 0, "pairs_verified": pairs}


def _search(words: np.ndarray, plan: BlockPlan, d: int, workers: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Rows i < j within distance d, as index arrays and their distances,
    and the work done: ``probes``, the key lookups, and ``pairs_verified``.
    Chunks of the scan's rows, or the plan's blocks, go to ``workers`` threads
    (as ``_workers`` decides by default) sharing _PAIR_CHUNK, pairs in task order."""
    n, nwords = words.shape
    workers = _workers(plan.cost(n), plan.m or n) if workers is None else workers
    budget = _PAIR_CHUNK // workers
    if plan.m:
        by_row = np.stack([_block_keys(words, s, w) for s, w in plan.ranges], axis=1)

        def task(t: int) -> tuple[list, dict]:
            found, work = [], {"probes": 0, "pairs_verified": 0}
            for I, J in _block_pairs(by_row, plan, t, budget, work):
                dist = np.bitwise_count(words[I] ^ words[J]).sum(axis=1, dtype=np.int64)
                ok = dist <= d
                work["pairs_verified"] += len(I)
                I, J = I[ok], J[ok]
                found.append((np.minimum(I, J), np.maximum(I, J), dist[ok]))
            return found, work

        # the highest block first: the higher blocks search the larger radius
        # and test more lower blocks, so the last to finish is a cheap one
        tasks = range(plan.m - 1, -1, -1)
    else:  # a chunk of rows meets only the rows from its own first on, its XORs about budget words
        starts = [0]
        while starts[-1] < n:
            starts.append(min(n, starts[-1] + max(1, budget // (nwords * (n - starts[-1])))))
        task, tasks = partial(_scan_rows, words, d), list(itertools.pairwise(starts))
    done = _mapped(task, tasks, workers)
    found = [(np.zeros(0, dtype=np.int64),) * 3, *(f for pairs, _ in done for f in pairs)]
    work = {key: sum(w[key] for _, w in done) for key in ("probes", "pairs_verified")}
    return (*map(np.concatenate, zip(*found)), work)


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
    verified with the exact distance.  ``stats`` receives ``probes``,
    ``pairs_verified``, ``distinct_fingerprints`` and
    ``largest_duplicate_class``.
    """
    reps = index.reps
    I, J, dist, work = _search(index.words[reps], index.plan, index.max_distance)
    if stats is not None:
        stats.update(work, distinct_fingerprints=len(reps),
                     largest_duplicate_class=int(np.bincount(index.classes).max(initial=0)))
    return CandidatePairs.canonical(index.users, *_expand(index.classes, I, J, dist))


def brute_force_pairs(fps: Fingerprints, d: int) -> CandidatePairs:
    """All-pairs exact Hamming filter, the scan plan's kernel; the O(n^2) oracle the index replaces."""
    return CandidatePairs.canonical(fps.owners, *_search(fps.words, BlockPlan(), d)[:3])
