import dataclasses
import itertools
import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference
from sockdetect import lsh
from sockdetect.detect import build_match_report
from sockdetect.errors import ConfigError
from sockdetect.lsh import (
    BlockPlan,
    CandidatePair,
    CandidatePairs,
    _block_keys,
    _block_pairs,
    _groupings,
    _grouped,
    _pieces,
    _search,
    brute_force_pairs,
    build_index,
    candidate_pairs,
    check_radius,
    choose_plan,
    stable_order,
)
from sockdetect.pipeline import read_candidates_tsv
from sockdetect.simhash import Fingerprint, Fingerprints, _longest_first


def _population(
    seed: int,
    n: int,
    b: int = 128,
    planted: int = 0,
    max_flips: int = 30,
) -> dict[str, Fingerprint]:
    """Random fingerprints plus near-copies with a controlled flip budget.

    Uniform random populations almost never contain pairs within radius 20
    at b=128, so losslessness checks need planted neighborhoods straddling
    the radius from both sides.
    """
    rng = random.Random(seed)
    fps: dict[str, Fingerprint] = {}
    for i in range(n):
        fps[f"u{i:04d}"] = Fingerprint(f"u{i:04d}", rng.getrandbits(b), b)
    base_ids = sorted(fps)
    for j in range(planted):
        source = fps[rng.choice(base_ids)]
        bits = source.bits
        for pos in rng.sample(range(b), rng.randint(0, max_flips)):
            bits ^= 1 << pos
        uid = f"v{j:04d}"
        fps[uid] = Fingerprint(uid, bits, b)
    return fps


def _index(fps: dict[str, Fingerprint], d: int):
    return build_index(reference.fingerprints(fps), d)


def _brute(fps: dict[str, Fingerprint], d: int) -> CandidatePairs:
    return brute_force_pairs(reference.fingerprints(fps), d)


def _rows(pairs: CandidatePairs) -> tuple:
    """The users and, pair by pair in order, both rows and the distance:
    equal for two results only if they hold the same pairs in the same
    order, each once."""
    return pairs.users, pairs.a.tolist(), pairs.b.tolist(), pairs.distance.tolist()


def _searched_on_one_and_two_threads(words: np.ndarray, plan: BlockPlan, d: int) -> tuple:
    """``_search`` on one worker, checked to give the same arrays in the
    same order, and the same work, as on two."""
    one, two = _search(words, plan, d, 1), _search(words, plan, d, 2)
    assert all(np.array_equal(x, y) for x, y in zip(one[:3], two[:3])) and one[3] == two[3], plan
    return one


def _plans(b: int, d: int) -> list[BlockPlan]:
    """The plans the cost rule chooses from: the scan, then every grouping."""
    return [BlockPlan(), *(_grouped(b, *map(int, row)) for row in _groupings(b, d)[0].T)]


def _lookups(plan: BlockPlan) -> float:
    """Keys a row looks up on average: half of each block's radius ball,
    its own key left out."""
    return sum(
        sum(math.comb(width, k) for k in range(1, radius + 1))
        for (_, width), radius in zip(plan.ranges, plan.radii)
    ) / 2


def _forced_plans(b: int, d: int) -> list[BlockPlan]:
    """The scan, every uniform plan the cost rule weighs, and uneven radii:
    for r = 0 and r = 1 the first and the last split of the bits with m0
    blocks at r beside m1 at r + 1.  The first split gives the r + 1 blocks
    the most bits, so at b >= 64 they are 22 bits wide, the widest a block
    at a positive radius may be.  Plans looking up more than 2048 keys a
    row are left out: they cost more than the scan below about 800
    distinct rows, so the rule cannot pick them at these test sizes."""
    rows = _groupings(b, d)[0].T
    mixed = rows[rows[:, 2] > 0]
    picks = [*rows[rows[:, 2] == 0]]
    for r in (0, 1):
        at_r = mixed[mixed[:, 0] == r]
        picks += [at_r[0], at_r[-1]] if len(at_r) else []
    plans = [BlockPlan(), *(_grouped(b, *map(int, row)) for row in picks)]
    return [plan for plan in plans if _lookups(plan) <= 2048]


def _exact(b: int, d: int) -> BlockPlan:
    """The exact-match pigeonhole plan: d+1 ranges, each searched at radius 0."""
    return _grouped(b, 0, d + 1, 0, b)


def _forced(index, plan: BlockPlan, stats: dict | None = None):
    return candidate_pairs(dataclasses.replace(index, plan=plan), stats=stats)


class TestPlanBlocks:
    def test_128_20_gives_two_sevens_and_nineteen_sixes(self):
        plan = _exact(128, 20)
        widths = [w for _, w in plan.ranges]
        assert plan.m == 21
        assert widths == [7, 7] + [6] * 19
        assert sum(widths) == 128

    def test_128_15_gives_sixteen_eights(self):
        plan = _exact(128, 15)
        assert [w for _, w in plan.ranges] == [8] * 16

    def test_8_1_gives_two_fours(self):
        plan = _exact(8, 1)
        assert plan.ranges == [(0, 4), (4, 4)]

    @pytest.mark.parametrize("b,d", [(128, 5), (128, 20), (64, 10), (256, 33), (32, 31)])
    def test_ranges_partition_widest_first(self, b, d):
        plan = _exact(b, d)
        assert plan.m == d + 1
        position = 0
        widths = []
        for start, width in plan.ranges:
            assert start == position
            assert width >= 1
            position += width
            widths.append(width)
        assert position == b
        assert widths == sorted(widths, reverse=True)
        assert max(widths) - min(widths) <= 1

    def test_distance_not_below_width_rejected(self):
        with pytest.raises(ConfigError, match="brute-force"):
            check_radius(128, 128)
        with pytest.raises(ConfigError, match=">= 0"):
            check_radius(128, -1)
        assert check_radius(128, 127) is None and check_radius(128, 0) is None


class TestBuildIndex:
    def test_empty_population(self):
        index = _index({}, 20)
        assert len(candidate_pairs(index)) == 0
        assert index.bucket_memberships() == 0

    def test_identical_fingerprints_cobucket_everywhere(self):
        fps = {
            "a": Fingerprint("a", 0xDEADBEEF, 128),
            "b": Fingerprint("b", 0xDEADBEEF, 128),
        }
        index = _index(fps, 20)
        assert len(index.reps) == 1
        assert index.classes.tolist() == [0, 0]

    def test_membership_count_is_n_times_m(self):
        fps = _population(seed=1, n=500)
        index = _index(fps, 20)
        assert index.plan.m > 0
        assert index.bucket_memberships() == 500 * index.plan.m

    def test_width_mismatch_rejected(self):
        fps = {"a": Fingerprint("a", 1, 128), "b": Fingerprint("b", 1, 64)}
        with pytest.raises(ValueError, match="width mismatch"):
            _index(fps, 10)

    @pytest.mark.parametrize("b", [32, 64, 128, 256])
    def test_block_keys_are_the_bit_ranges(self, b):
        fps = _population(seed=b, n=50, b=b)
        words = reference.fingerprints(fps).words
        # every 7th start, so many ranges straddle a word boundary
        for start, width in [(s, w) for s in range(0, b, 7) for w in (1, 13, 62) if s + w <= b]:
            keys = _block_keys(words, start, width).tolist()
            want = [(fps[uid].bits >> start) & ((1 << width) - 1) for uid in sorted(fps)]
            assert keys == want, (start, width)

    def test_radius_must_be_below_width(self):
        fps = {"a": Fingerprint("a", 1, 64)}
        with pytest.raises(ConfigError):
            _index(fps, 64)

    @pytest.mark.parametrize("b", [32, 64, 128, 256])
    @pytest.mark.parametrize("shape", ["empty", "one row", "all equal", "duplicates", "random"])
    def test_classes_equal_np_unique(self, b, shape):
        rng = random.Random(b)
        base = rng.getrandbits(b)
        # rows that agree on every word but the first, or the last, so each word decides somewhere
        pool = [0, (1 << b) - 1, base, base ^ 1, base ^ 1 << (b - 1), base ^ 1 << 63, rng.getrandbits(b)]
        values = {
            "empty": [],
            "one row": [base],
            "all equal": [base] * 50,
            "duplicates": [rng.choice(pool) for _ in range(300)],
            "random": [rng.getrandbits(b) for _ in range(300)],
        }[shape]
        fps = reference.fingerprints({f"u{i:03d}": Fingerprint(f"u{i:03d}", v, b) for i, v in enumerate(values)})
        if not values:  # as the fingerprint stage and the reader give it
            fps = Fingerprints([], np.zeros((0, -(-b // 64)), dtype=np.uint64), b)
        index = build_index(fps, 1)
        _, reps, classes = np.unique(fps.words, axis=0, return_index=True, return_inverse=True)
        assert index.reps.tolist() == reps.tolist()
        assert index.classes.tolist() == classes.ravel().tolist()
        assert index.plan == (choose_plan(b, 1, len(reps)) if values else BlockPlan())


class TestCandidatePairs:
    def test_exact_duplicates_found_at_distance_zero(self):
        fps = {
            "a": Fingerprint("a", 0x1234, 128),
            "b": Fingerprint("b", 0x1234, 128),
        }
        assert list(candidate_pairs(_index(fps, 20))) == [CandidatePair("a", "b", 0)]

    def test_one_flip_per_block_is_excluded(self):
        # flipping one bit inside each of the 21 blocks leaves no block in
        # agreement and puts the pair at distance 21 > 20
        rng = random.Random(3)
        base = rng.getrandbits(128)
        plan = _exact(128, 20)
        flipped = base
        for start, width in plan.ranges:
            flipped ^= 1 << (start + rng.randrange(width))
        assert (base ^ flipped).bit_count() == 21
        fps = {
            "a": Fingerprint("a", base, 128),
            "b": Fingerprint("b", flipped, 128),
        }
        index = _index(fps, 20)
        assert len(candidate_pairs(index)) == 0
        # no block agrees, so the exact-match plan verifies nothing
        stats: dict = {}
        assert len(_forced(index, plan, stats)) == 0
        assert stats["pairs_verified"] == 0

    def test_matches_brute_force_on_random_population(self):
        fps = _population(seed=5, n=500, planted=60)
        index = _index(fps, 20)
        assert _rows(candidate_pairs(index)) == _rows(_brute(fps, 20))

    @pytest.mark.parametrize("seed", range(8))
    def test_lossless_on_planted_populations(self, seed):
        fps = _population(seed=seed, n=120, planted=40, max_flips=28)
        got = candidate_pairs(_index(fps, 20))
        want = _brute(fps, 20)
        assert _rows(got) == _rows(want)
        assert (want.distance > 0).any() or seed > 2  # fixture sanity

    @pytest.mark.parametrize("b,d", [(32, 3), (64, 10), (128, 20), (256, 40)])
    def test_lossless_across_widths(self, b, d):
        fps = _population(seed=b + d, n=150, b=b, planted=50, max_flips=d + 8)
        assert _rows(candidate_pairs(_index(fps, d))) == _rows(_brute(fps, d))

    def test_lossless_under_every_forced_plan(self):
        fps = _population(seed=77, n=150, planted=50, max_flips=25)
        want = _brute(fps, 20)
        index = _index(fps, 20)
        for plan in _forced_plans(128, 20):
            assert _rows(_forced(index, plan)) == _rows(want), plan.m

    def test_a_radius_0_block_too_wide_to_pack_keeps_the_stable_argsort(self):
        # the 62-bit radius-0 block's keys and 9-bit positions need 71 bits,
        # so it takes the stable argsort while the 22-bit blocks pack
        fps = _population(seed=19, n=300, planted=150, max_flips=8)
        index = _index(fps, 6)
        plan = BlockPlan(ranges=[(0, 62), (62, 22), (84, 22), (106, 22)], radii=[0, 1, 1, 1])
        s = (len(index.reps) - 1).bit_length()
        assert (1 << 62) << s > 2**63 >= (1 << 22) << s
        want = _brute(fps, 6)
        assert _rows(_forced(index, plan)) == _rows(want)
        assert (want.distance > 0).any() and (want.distance == 0).any()

    def test_duplicate_heavy_population(self):
        # an 80-member class of identical fingerprints is searched as one row
        rng = random.Random(11)
        shared = rng.getrandbits(128)
        fps = {f"d{i:03d}": Fingerprint(f"d{i:03d}", shared, 128) for i in range(80)}
        for i in range(100):
            fps[f"r{i:03d}"] = Fingerprint(f"r{i:03d}", rng.getrandbits(128), 128)
        near = shared ^ (1 << 40) ^ (1 << 90)
        fps["near"] = Fingerprint("near", near, 128)
        got = candidate_pairs(_index(fps, 20))
        want = _brute(fps, 20)
        assert _rows(got) == _rows(want)
        assert len(want) == 80 * 79 // 2 + 80  # clique plus the near twin

    def test_pairs_as_a_set(self):
        # the array pairs behave as the set of their CandidatePairs:
        # canonical iteration, lookups, the set operators and radius prefixes
        fps = _population(seed=5, n=150, planted=60, max_flips=24)
        fps.update({f"w{i}": Fingerprint(f"w{i}", fps["u0000"].bits, 128) for i in range(4)})
        got = candidate_pairs(_index(fps, 20))
        want = set(_brute(fps, 20))
        assert list(got) == sorted(want, key=lambda p: (p.distance, p.a, p.b))
        assert len(got) == len(want) and all(p in got for p in want)
        p = next(iter(want))
        for absent in (CandidatePair(p.a, p.b, p.distance + 1), CandidatePair(p.a, "zz", p.distance),
                       CandidatePair("a", p.b, p.distance), (p.a, p.b, p.distance)):
            assert absent not in got
        extra = {CandidatePair("a", "b", 3)}
        assert extra | got == got | extra == want | extra
        assert got - want == set() and got & want == want
        for d in (0, 5, 12, 20):
            assert got.within(d) == {q for q in want if q.distance <= d}

    def test_star_shape_duplicate_class(self):
        # a reply-only fan class: 1000 identical fingerprints overfill one
        # bucket of every block, next to 200 unrelated users
        rng = random.Random(17)
        shared = rng.getrandbits(128)
        fps = {f"f{i:04d}": Fingerprint(f"f{i:04d}", shared, 128) for i in range(1000)}
        for i in range(200):
            fps[f"r{i:03d}"] = Fingerprint(f"r{i:03d}", rng.getrandbits(128), 128)
        index = _index(fps, 20)
        stats: dict = {}
        assert _rows(candidate_pairs(index, stats=stats)) == _rows(_brute(fps, 20))
        assert index.plan.m > 0
        assert index.bucket_memberships() == 201 * index.plan.m
        # the class is searched as one row, so at most the 201 distinct rows'
        # pairs are verified, never the class's 499,500
        assert stats["pairs_verified"] < 201 * 200 // 2
        assert stats["distinct_fingerprints"] == 201
        assert _searched_on_one_and_two_threads(index.words[index.reps], index.plan, 20)[3] == {
            key: stats[key] for key in ("probes", "pairs_verified")}

    def test_class_within_a_leaf_is_not_verified(self):
        fps = {f"f{i:02d}": Fingerprint(f"f{i:02d}", 0xC0FFEE, 128) for i in range(90)}
        stats: dict = {}
        got = candidate_pairs(_index(fps, 20), stats=stats)
        assert len(got) == 90 * 89 // 2
        assert {p.distance for p in got} == {0}
        assert stats["pairs_verified"] == 0

    @pytest.mark.parametrize("class_size", [96, 8, 2])
    def test_narrow_chunks_stop_splitting(self, class_size):
        # at b=32, d=12 every block plan has blocks of a few bits that
        # co-bucket most pairs, so the rule keeps the scan and does not split;
        # a forced plan still verifies each pair once, from the lowest block
        # whose ball holds it, and the duplicate class is one row at any size
        fps = _population(seed=23, n=180, b=32, planted=50, max_flips=16)
        shared = random.Random(29).getrandbits(32)
        fps.update(
            {f"w{i:03d}": Fingerprint(f"w{i:03d}", shared, 32) for i in range(class_size)}
        )
        index = _index(fps, 12)
        assert index.plan.m == 0  # probing cannot beat the scan at this size
        want = _brute(fps, 12)
        for plan in _forced_plans(32, 12):
            stats: dict = {}
            assert _rows(_forced(index, plan, stats)) == _rows(want), plan.m
            distinct = stats["distinct_fingerprints"]
            assert distinct == len({fp.bits for fp in fps.values()})
            assert stats["pairs_verified"] <= distinct * (distinct - 1) // 2

    def test_distance_zero_radius(self):
        fps = _population(seed=13, n=200, planted=50, max_flips=4)
        assert _rows(candidate_pairs(_index(fps, 0))) == _rows(_brute(fps, 0))

    def test_monotonic_in_radius(self):
        fps = _population(seed=21, n=250, planted=80, max_flips=26)
        previous: set[CandidatePair] = set()
        for d in (5, 10, 15, 20):
            current = candidate_pairs(_index(fps, d))
            assert previous <= current
            previous = current

    def test_stats_reported(self):
        fps = _population(seed=2, n=300, planted=20)
        stats: dict = {}
        candidate_pairs(_index(fps, 20), stats=stats)
        assert stats["pairs_verified"] > 0
        assert stats["distinct_fingerprints"] == len({fp.bits for fp in fps.values()})


SWEEP = [(b, d) for b in (32, 64, 128, 256) for d in (0, 1, 3, 7, 12, 20, 31, 40) if d < b]


def _sweep_population(b: int, d: int, duplicates: bool) -> dict[str, Fingerprint]:
    """Random rows with planted neighbors, plus optionally a 120-member and a
    5-member class of equal rows, with a twin of the large class exactly at
    the radius and one just beyond it."""
    fps = _population(seed=b * 100 + d, n=100, b=b, planted=40, max_flips=min(d + 6, b))
    if duplicates:
        rng = random.Random(b + d)
        for tag, size in (("w", 120), ("x", 5)):
            shared = rng.getrandbits(b)
            fps.update({f"{tag}{i:03d}": Fingerprint(f"{tag}{i:03d}", shared, b) for i in range(size)})
        flips = rng.sample(range(b), min(d + 1, b))
        for name, count in (("at", d), ("beyond", d + 1)):
            bits = fps["w000"].bits
            for pos in flips[:count]:
                bits ^= 1 << pos
            fps[name] = Fingerprint(name, bits, b)
    return fps


class TestOracleSweep:
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("b,d", SWEEP)
    def test_every_plan_matches_brute_force(self, b, d, duplicates):
        fps = _sweep_population(b, d, duplicates)
        want = _brute(fps, d)
        index = _index(fps, d)
        assert _rows(candidate_pairs(index)) == _rows(want)
        # every forced plan must find the same pairs of distinct rows, each once
        row = dict(zip(index.users, index.classes.tolist()))
        want_rows = sorted(
            {(*sorted((row[p.a], row[p.b])), p.distance) for p in want if row[p.a] != row[p.b]}
        )
        k = len(index.reps)
        words = index.words[index.reps]
        for plan in _forced_plans(b, d):
            I, J, dist, work = _searched_on_one_and_two_threads(words, plan, d)
            assert sorted(zip(I.tolist(), J.tolist(), dist.tolist())) == want_rows, plan
            if not plan.m:  # the scan verifies every pair; a repeat would lengthen the rows above
                assert work["pairs_verified"] == k * (k - 1) // 2
                continue
            # the pairs verified are exactly the pairs of rows some block holds within its radius:
            # each once, and no row with itself
            I, J = np.triu_indices(k, 1)
            held = np.zeros(len(I), dtype=bool)
            for (s, w), r in zip(plan.ranges, plan.radii):
                key = _block_keys(words, s, w)
                held |= np.bitwise_count(key[I] ^ key[J]) <= r
            assert work["pairs_verified"] == held.sum() <= k * (k - 1) // 2, plan
            # at d = b every pair verified is returned, so the blocks show which they were
            reached = [pair for t in range(plan.m) for pair in _block_pairs(words, plan, b, lsh._PAIR_CHUNK, t)[0]]
            assert sorted(zip(*(np.concatenate(x).tolist() for x in zip(*reached)))) == sorted(
                zip(I[held].tolist(), J[held].tolist(),
                    np.bitwise_count(words[I[held]] ^ words[J[held]]).sum(axis=1).tolist())), plan


class TestStableOrder:
    """``stable_order`` is the stable argsort, packed or not."""

    @staticmethod
    def _check(key: np.ndarray, bound: int) -> None:
        want = np.argsort(key, kind="stable")
        got = stable_order(key, bound)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,bound", [(2, 2), (1000, 3), (5072, 1 << 17), (3000, 40_000)])
    def test_seeded_keys_with_ties(self, seed, n, bound):
        key = np.random.default_rng(seed).integers(0, bound, n)
        self._check(key, bound)
        self._check(np.sort(key), bound)  # already in order
        self._check(np.sort(key)[::-1].copy(), bound)

    @pytest.mark.parametrize("n", [1, 2, 3, 500, 1024, 1025])
    def test_all_keys_equal(self, n):
        self._check(np.full(n, 6), 7)
        self._check(np.zeros(n, dtype=np.int64), 1)

    @pytest.mark.parametrize("bound", [1, 2, 1 << 62, 2**63])
    def test_empty_and_one_key(self, bound):
        self._check(np.zeros(0, dtype=np.int64), bound)
        self._check(np.array([bound - 1]), bound)

    def test_keys_at_the_bound_that_just_packs(self, monkeypatch):
        # 1024 positions take 10 bits, so keys below 2^53 fill the int64 exactly
        key = np.random.default_rng(5).integers(0, 4, 1024) + (2**53 - 4)
        key[::7] = 2**53 - 1
        want = np.argsort(key, kind="stable")
        monkeypatch.setattr(np, "argsort", None)  # the packed sort calls no argsort
        assert np.array_equal(stable_order(key, 2**53), want)

    @pytest.mark.parametrize("n,bound", [(1024, 2**53 + 1), (3, 1 << 62), (100, 2**63)])
    def test_a_bound_that_does_not_pack_takes_the_argsort(self, monkeypatch, n, bound):
        key = np.random.default_rng(6).integers(bound - 5, bound, n)
        key[:: n // 3] = 0
        want = np.argsort(key, kind="stable")
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(kw) or argsort(*args, **kw))
        assert np.array_equal(stable_order(key, bound), want)
        assert calls == [{"kind": "stable"}]

    @pytest.mark.parametrize("seed", range(3))
    def test_longest_first(self, seed):
        lengths = np.random.default_rng(seed).integers(0, 9, 700)
        assert np.array_equal(_longest_first(lengths), np.argsort(-lengths, kind="stable"))
        assert len(_longest_first(lengths[:0])) == 0

    @pytest.mark.parametrize("top", [255, 256, 3000])
    def test_longest_first_past_one_byte(self, top):
        # up to 255 the order comes from a radix sort of 8-bit keys, past it
        # from the packed sort
        lengths = np.random.default_rng(top).integers(0, 4, 700)
        lengths[::50] = top
        assert np.array_equal(_longest_first(lengths), np.argsort(-lengths, kind="stable"))


def _groups(counts: list[list[int]]) -> list[tuple[np.ndarray, ...]]:
    """Runs (owner, lo, cnt) in groups as ``_runs`` yields them, with the
    given counts; owner and lo number the runs, so any reordering shows."""
    ends = itertools.accumulate(map(len, counts), initial=0)
    return [(np.arange(a, a + len(cnt)), 10 * np.arange(a, a + len(cnt)), np.array(cnt, dtype=np.int64))
            for a, cnt in zip(ends, counts)]


class TestPieces:
    @pytest.mark.parametrize("budget", [1, 12, 1 << 20])
    @pytest.mark.parametrize("size", [1, 2, 5, 16, 1000])
    @pytest.mark.parametrize("counts", [
        [[3, 0, 1, 7], [], [0, 0], [2, 2, 2, 40, 1], [1] * 9, [0]],
        [[0, 0, 0], [0]],
        [[25], [1, 30, 1]],
    ])
    def test_pieces_are_the_runs_cut_in_order(self, counts, size, budget):
        runs = _groups(counts)
        pieces = list(_pieces(iter(runs), budget, size))
        for got, want in zip(map(np.concatenate, zip(*pieces)), map(np.concatenate, zip(*runs))):
            assert got.tolist() == want.tolist()
        for _, _, cnt in pieces:
            assert 0 < len(cnt) and (cnt.sum() <= size or len(cnt) == 1)
        # a run larger than size comes out alone
        assert sum(len(cnt) == 1 and cnt[0] > size for _, _, cnt in pieces) == sum(
            c > size for cnt in counts for c in cnt)

    def test_small_groups_join_into_pieces_of_the_size(self):
        pieces = list(_pieces(iter(_groups([[1]] * 23)), 10, 5))
        assert [cnt.sum() for _, _, cnt in pieces] == [5, 5, 5, 5, 3]

    def test_no_runs_no_pieces(self):
        assert list(_pieces(iter([]), 1, 1)) == []
        assert list(_pieces(iter(_groups([[], []])), 1, 1)) == []


class TestThreads:
    @pytest.mark.parametrize("b", [32, 128, 256])
    def test_scan_chunks_on_two_threads(self, b, monkeypatch):
        fps = reference.fingerprints(_population(seed=b, n=150, b=b, planted=60, max_flips=b // 4))
        d, n = b // 8, len(fps)
        whole = _search(fps.words, BlockPlan(), d)
        mapped = lsh._mapped
        chunks = []

        def counted(fn, items, workers):
            chunks.append(len(items))
            return mapped(fn, items, workers)

        monkeypatch.setattr(lsh, "_PAIR_CHUNK", 1 << 10)
        monkeypatch.setattr(lsh, "_mapped", counted)
        for workers in (1, 2):
            *arrays, work = _search(fps.words, BlockPlan(), d, workers)
            assert all(np.array_equal(x, y) for x, y in zip(arrays, whole[:3])), workers
            # each chunk counts its own pairs, and together they are every pair once
            assert work == {"probes": 0, "pairs_verified": n * (n - 1) // 2}, workers
        assert chunks[0] >= 5 and len(whole[0]) > 0
        assert _rows(brute_force_pairs(fps, d)) == _rows(CandidatePairs.canonical(fps.owners, *whole[:3]))

    def test_a_plan_below_the_parallel_cost_starts_no_thread(self, monkeypatch):
        index = _index(_population(seed=6, n=1000, planted=100), 20)
        words, plan = index.words[index.reps], index.plan
        assert plan.m and plan.cost(len(words)) < lsh.PARALLEL_COST
        threads = []
        block_pairs = lsh._block_pairs

        def counted(*args):
            threads.append(threading.active_count())
            return block_pairs(*args)

        monkeypatch.setattr(lsh, "_block_pairs", counted)
        before = threading.active_count()
        _search(words, plan, 20)
        assert threads == [before] * plan.m
        # the same search forced onto two workers runs beside a second thread
        threads.clear()
        _search(words, plan, 20, 2)
        assert len(threads) == plan.m and max(threads) > before

    def test_an_error_on_any_thread_is_raised_once_all_have_stopped(self):
        def fn(k):
            if k == 5:
                raise ValueError(k)
            return k

        before = threading.active_count()
        for workers in (1, 2, 3):
            assert lsh._mapped(fn, range(5), workers) == [0, 1, 2, 3, 4]
            with pytest.raises(ValueError):
                lsh._mapped(fn, range(9), workers)
            assert threading.active_count() == before

    def test_each_item_once_under_frequent_switches(self):
        # more threads than cores, switching every microsecond: the shared
        # iterator must hand each item to exactly one of them
        calls = []

        def fn(k):
            calls.append(k)
            return k * k

        done = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: done.append(lsh._mapped(fn, range(5000), 8)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive()
        assert done == [[k * k for k in range(5000)]] and sorted(calls) == list(range(5000))

    def test_one_worker_per_cpu_and_task_above_the_cost(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert lsh._workers(lsh.PARALLEL_COST - 1, 8) == 1
        assert lsh._workers(lsh.PARALLEL_COST, 8) == 3
        assert lsh._workers(lsh.PARALLEL_COST, 2) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert lsh._workers(lsh.PARALLEL_COST, 8) == 1
        # without sched_getaffinity (macOS, Windows) the CPU count serves, or one if unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert lsh._workers(lsh.PARALLEL_COST, 8) == 4
        assert lsh._workers(lsh.PARALLEL_COST - 1, 8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lsh._workers(lsh.PARALLEL_COST, 8) == 1


class TestCostRule:
    @pytest.mark.parametrize("b,d", SWEEP)
    def test_every_plan_covers_the_radius(self, b, d):
        for plan in _plans(b, d)[1:]:
            widths = [w for _, w in plan.ranges]
            assert [s for s, _ in plan.ranges] == list(itertools.accumulate(widths[:-1], initial=0))
            assert sum(widths) == b and max(widths) <= 62
            assert all(width > radius for width, radius in zip(widths, plan.radii))
            assert all(width <= lsh._DENSE_BITS for width, radius in zip(widths, plan.radii) if radius)
            assert max(plan.radii) - min(plan.radii) <= 1
            assert sum(radius + 1 for radius in plan.radii) > d  # the pigeonhole condition

    def test_scan_for_a_handful_of_rows(self):
        fps = _population(seed=3, n=4)
        index = _index(fps, 20)
        assert (index.plan.m, index.bucket_memberships()) == (0, 0)
        assert _rows(candidate_pairs(index)) == _rows(_brute(fps, 20))

    def test_scan_up_to_148_rows(self):
        # below about 150 distinct rows the fixed cost of each block outweighs
        # the verifications the blocks save: the scan was measured faster
        for n in (2, 20, 50, 100, 148):
            assert choose_plan(128, 20, n) == BlockPlan(), n
        assert _index(_population(seed=4, n=148), 20).plan == BlockPlan()

    @pytest.mark.parametrize("n,widths,radii", [
        # six 13-14-bit blocks at radius 1 beside three 16-bit blocks at 2
        (2_000, [14, 14, 13, 13, 13, 13, 16, 16, 16], [1] * 6 + [2] * 3),
        (5_000, [15, 14, 14, 17, 17, 17, 17, 17], [1] * 3 + [2] * 5),
        (20_000, [19, 19, 18, 18, 18, 18, 18], [2] * 7),
    ], ids=["2000", "5000", "20000"])
    def test_default_operating_point(self, n, widths, radii):
        plan = choose_plan(128, 20, n)
        assert ([w for _, w in plan.ranges], plan.radii) == (widths, radii)

    @pytest.mark.parametrize("b", [32, 64, 128, 256])
    def test_chosen_plan_costs_no_more_than_any_uniform_plan(self, b):
        fewest = -(-b // 62)
        for d in (0, 1, 3, 7, 12, 20, 31, 40):
            if d >= b:
                continue
            # m blocks of nearly equal width at radius ⌊d/m⌋, and the scan
            uniform = [BlockPlan(), *(_grouped(b, d // m, m, 0, b) for m in range(fewest, max(fewest, d + 1) + 1))]
            for n in (2, 20, 150, 250, 2_000, 20_000, 10**6):
                cost = choose_plan(b, d, n).cost(n)
                assert cost <= min(plan.cost(n) for plan in uniform) * (1 + 1e-12), (b, d, n)

    @pytest.mark.parametrize("n", [200, 5_000, 50_000])
    def test_chosen_plan_is_the_cheapest_weighed(self, n):
        cheapest = min(plan.cost(n) for plan in _plans(128, 20))
        assert choose_plan(128, 20, n).cost(n) == pytest.approx(cheapest, rel=1e-12)

    def test_no_wide_block_at_a_positive_radius(self):
        # one 32-bit block at radius 1 would need a 2^32-entry count table;
        # two 16-bit blocks searched exactly find the same pairs
        plan = choose_plan(32, 1, 10**6)
        assert (plan.ranges, plan.radii) == ([(0, 16), (16, 16)], [0, 0])

    @pytest.mark.parametrize("width", [23, 62])
    def test_a_block_too_wide_for_its_table_is_refused(self, width):
        # refused before any table is allocated: 2^62 entries could not be
        plan = BlockPlan(ranges=[(0, width), (width, 64 - width)], radii=[1, 0])
        assert plan.cost(100) == math.inf
        words = np.arange(100, dtype=np.uint64)[:, None]
        with pytest.raises(ValueError, match=f"{width}-bit block at radius 1"):
            _search(words, plan, 1)
        # at radius 0 the block needs no table, and the plan finds the scan's pairs
        exact = dataclasses.replace(plan, radii=[0, 0])
        assert exact.cost(100) < math.inf
        pairs = [sorted(zip(*(x.tolist() for x in _search(words, p, 1)[:3]))) for p in (exact, BlockPlan())]
        assert pairs[0] == pairs[1] and pairs[0]

    def test_wide_fingerprints_split_to_fit_keys(self):
        # at b=256, d=0 the pigeonhole split is one 256-bit block; five
        # blocks of at most 52 bits searched exactly are the fewest that fit
        plan = choose_plan(256, 0, 10**6)
        assert (plan.m, set(plan.radii)) == (5, {0})

    def test_expected_verifications(self):
        assert BlockPlan().expected_verifications(100) == 100 * 99 / 2
        exact = _exact(128, 20)
        share = 1 - (1 - 2**-7) ** 2 * (1 - 2**-6) ** 19
        assert exact.expected_verifications(1000) == pytest.approx(1000 * 999 / 2 * share)
        # a pair two blocks hold is verified once, from the lower block, so
        # the share is below the sum of the blocks' shares
        assert share < 2 * 2**-7 + 19 * 2**-6

    @pytest.mark.parametrize("ranges,radii", [
        ([(0, 4), (4, 3), (7, 3)], [1, 0, 1]),
        ([(0, 6), (6, 4)], [2, 1]),
        ([(0, 2), (2, 2), (4, 2), (6, 2), (8, 2)], [0] * 5),
    ])
    def test_expected_verifications_count_an_exhaustive_population(self, ranges, radii):
        # every 10-bit key once: the n^2 ordered pairs of keys are the rule's
        # uniform pairs, so a share of them lies within some block's radius;
        # the n pairs (x, x) are among them, and each other pair counts twice
        plan = BlockPlan(ranges=ranges, radii=radii)
        n = 1 << 10
        _, _, _, work = _search(np.arange(n, dtype=np.uint64)[:, None], plan, 10)
        share = plan.expected_verifications(n) / (n * (n - 1) / 2)
        assert 2 * work["pairs_verified"] + n == pytest.approx(n * n * share, rel=1e-12)


class TestQuery:
    """One user's candidates as the report lists them, by (distance, id)."""

    def test_duplicate_heads_the_result(self):
        fps = _population(seed=31, n=100)
        fps["twin"] = Fingerprint("twin", fps["u0000"].bits, 128)
        fps["near"] = Fingerprint("near", fps["u0000"].bits ^ 0b111, 128)
        report = build_match_report(candidate_pairs(_index(fps, 20)))
        results = report.one_to_many["u0000"]
        assert results and results[0] == ("twin", 0)
        assert all(uid != "u0000" for uid, _ in results)

    def test_empty_index(self):
        assert len(build_match_report(candidate_pairs(_index({}, 20))).one_to_many) == 0

    def test_equals_brute_force_scan(self):
        fps = _population(seed=37, n=200, planted=60, max_flips=24)
        report = build_match_report(candidate_pairs(_index(fps, 20)))
        for uid, fp in fps.items():
            expected = sorted(
                (
                    ((fp.bits ^ other.bits).bit_count(), other_uid)
                    for other_uid, other in fps.items()
                    if other_uid != uid
                    and (fp.bits ^ other.bits).bit_count() <= 20
                )
            )
            # only users with two or more candidates have a list
            want = [(u, d) for d, u in expected] if len(expected) >= 2 else None
            assert report.one_to_many.get(uid) == want

    def test_sorted_by_distance_then_id(self):
        base = random.Random(41).getrandbits(128)
        fps = {
            "b": Fingerprint("b", base ^ 0b11, 128),
            "a": Fingerprint("a", base ^ 0b101, 128),
            "c": Fingerprint("c", base ^ 0b1, 128),
            "d": Fingerprint("d", base ^ 0b110, 128),
            "probe": Fingerprint("probe", base, 128),
        }
        report = build_match_report(candidate_pairs(_index(fps, 20)))
        assert report.one_to_many["probe"] == [("c", 1), ("a", 2), ("b", 2), ("d", 2)]


class TestBruteForce:
    def test_pair_of_duplicates(self):
        fps = {"x1": Fingerprint("x1", 99, 128), "x2": Fingerprint("x2", 99, 128)}
        assert list(_brute(fps, 20)) == [CandidatePair("x1", "x2", 0)]

    def test_mutually_distant_fingerprints(self):
        rng = random.Random(43)
        fps = {f"u{i}": Fingerprint(f"u{i}", rng.getrandbits(128), 128) for i in range(3)}
        assert len(_brute(fps, 20)) == 0

    # besides 85 rows at b=128, 40 rows of one word at b=32 (half of it
    # used) and of four at b=256; a chunk of c words takes
    # max(1, c // (words * rows left)) rows, so c = 1, 64 and 256 give 40,
    # 19 and 5 chunks at b=32 and 40, 35 and 19 at b=256; the default chunk
    # and 1 << 20 take every row in one
    @pytest.mark.parametrize("chunk", [1, 64, 256, lsh._PAIR_CHUNK, 1 << 20])
    @pytest.mark.parametrize("b,d,n,planted", [(128, 20, 60, 25), (32, 12, 25, 15), (256, 20, 25, 15)])
    def test_matches_pairwise_int_hamming(self, monkeypatch, b, d, n, planted, chunk):
        fps = _population(seed=47, n=n, b=b, planted=planted, max_flips=24)
        ids = sorted(fps)
        expected = set()
        for i, x in enumerate(ids):
            for y in ids[i + 1 :]:
                dist = (fps[x].bits ^ fps[y].bits).bit_count()
                if dist <= d:
                    expected.add(CandidatePair(x, y, dist))
        monkeypatch.setattr(lsh, "_PAIR_CHUNK", chunk)
        got = list(_brute(fps, d))
        assert 0 < len(got) < len(ids) * (len(ids) - 1) // 2
        assert got == sorted(expected, key=lambda p: (p.distance, p.a, p.b))

    def test_oracle_memory_stays_small(self):
        # the benchmark harness runs the oracle in its own process, so the
        # oracle's peak is the harness's; 5,000 rows need about 6 MB
        rng = np.random.default_rng(5)
        fps = Fingerprints([f"u{i:04d}" for i in range(5000)], rng.integers(0, 2**64, (5000, 2), dtype=np.uint64), 128)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            brute_force_pairs(fps, 20)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_complements_at_every_width(self):
        # 256 differing bits overflow an 8-bit count
        for b in (32, 64, 128, 256):
            fps = {"x": Fingerprint("x", 0, b), "y": Fingerprint("y", (1 << b) - 1, b)}
            assert len(_brute(fps, b - 1)) == 0
            assert list(_brute(fps, b)) == [CandidatePair("x", "y", b)]

    def test_single_or_empty(self):
        assert len(_brute({}, 5)) == 0
        assert len(_brute({"a": Fingerprint("a", 7, 64)}, 5)) == 0


class TestCandidatePairType:
    def test_requires_canonical_order(self):
        with pytest.raises(ValueError, match="ordered"):
            CandidatePair("b", "a", 1)
        with pytest.raises(ValueError, match="ordered"):
            CandidatePair("a", "a", 0)

    def test_ordered_constructor_swaps(self, tmp_path):
        # a candidates row names its ends in either order
        path = tmp_path / "candidates.tsv"
        path.write_text("b\ta\t3\n")
        assert list(read_candidates_tsv(path)) == [CandidatePair("a", "b", 3)]
