import json
import random
from typing import Iterable

import pytest

import reference
from sockdetect.detect import MatchReport, build_match_report
from sockdetect.lsh import CandidatePair, brute_force_pairs, build_index, candidate_pairs
from sockdetect.simhash import Fingerprint


def _pair(u: str, v: str, d: int) -> CandidatePair:
    return CandidatePair(min(u, v), max(u, v), d)


def _pairs(*triples: tuple[str, str, int]) -> list[CandidatePair]:
    return [_pair(a, b, d) for a, b, d in triples]


def _report(pairs: Iterable[CandidatePair]) -> MatchReport:
    return build_match_report(reference.candidate_pairs(pairs))


class TestCluster:
    def test_transitive_union(self):
        clusters = _report(_pairs(("a", "b", 1), ("b", "c", 2))).clusters
        assert len(clusters) == 1
        assert clusters[0].members == ["a", "b", "c"]

    def test_disjoint_components(self):
        clusters = _report(_pairs(("a", "b", 1), ("c", "d", 2))).clusters
        assert [c.members for c in clusters] == [["a", "b"], ["c", "d"]]

    def test_empty(self):
        assert _report([]).clusters == []

    def test_sorted_by_size_then_smallest_member(self):
        clusters = _report(_pairs(("x", "y", 1), ("p", "q", 1), ("q", "r", 1))).clusters
        assert [c.members for c in clusters] == [["p", "q", "r"], ["x", "y"]]

    def test_partition_invariants(self):
        rng = random.Random(23)
        users = [f"u{i}" for i in range(40)]
        pairs = {
            _pair(*rng.sample(users, 2), rng.randint(0, 20))
            for _ in range(60)
        }
        clusters = _report(pairs).clusters
        seen: set[str] = set()
        paired_users = {u for p in pairs for u in (p.a, p.b)}
        for c in clusters:
            members = set(c.members)
            assert len(members) >= 2
            assert not members & seen  # pairwise disjoint
            seen |= members
        assert seen == paired_users

    def test_order_of_input_pairs_irrelevant(self):
        pairs = _pairs(("a", "b", 1), ("c", "d", 3), ("b", "e", 2), ("f", "g", 0))
        expected = [c.members for c in _report(pairs).clusters]
        for seed in range(5):
            shuffled = pairs[:]
            random.Random(seed).shuffle(shuffled)
            got = [c.members for c in _report(shuffled).clusters]
            assert got == expected


class TestMutualMatches:
    def test_lone_pair_is_mutual_not_exact(self):
        matches = _report(_pairs(("a", "b", 5))).mutual
        assert len(matches) == 1
        match = matches[0]
        assert (match.a, match.b, match.distance, match.exact) == ("a", "b", 5, False)

    def test_star_tie_break_by_smallest_id(self):
        # a's nearest is b (id tie-break), so (a, b) is mutual and c only
        # shows up in a's one-to-many list
        pairs = _pairs(("a", "b", 5), ("a", "c", 5))
        report = _report(pairs)
        assert [(m.a, m.b) for m in report.mutual] == [("a", "b")]
        fanout = dict(report.one_to_many)
        assert fanout == {"a": [("b", 5), ("c", 5)]}

    def test_distance_zero_flagged_exact(self):
        matches = _report(_pairs(("a", "b", 0))).mutual
        assert matches[0].exact is True

    def test_closer_partner_wins(self):
        matches = _report(_pairs(("a", "b", 5), ("a", "c", 2), ("b", "c", 9))).mutual
        assert [(m.a, m.b, m.distance) for m in matches] == [("a", "c", 2)]

    def test_symmetric_and_duplicate_free(self):
        rng = random.Random(29)
        users = [f"u{i}" for i in range(30)]
        pairs = {
            _pair(*rng.sample(users, 2), rng.randint(0, 20))
            for _ in range(80)
        }
        matches = _report(pairs).mutual
        seen = set()
        for m in matches:
            assert m.a < m.b
            assert (m.a, m.b) not in seen
            seen.add((m.a, m.b))
            assert m.exact == (m.distance == 0)


class TestOneToMany:
    def test_single_candidate_users_excluded(self):
        assert dict(_report(_pairs(("a", "b", 3))).one_to_many) == {}

    def test_lists_sorted_by_distance_then_id(self):
        pairs = _pairs(("m", "z", 4), ("a", "m", 4), ("m", "q", 1))
        assert _report(pairs).one_to_many["m"] == [("q", 1), ("a", 4), ("z", 4)]


class TestMatchReport:
    def test_report_round_trip_dict(self, tmp_path):
        report = _report(_pairs(("a", "b", 0), ("a", "c", 7)))
        report.write_json(tmp_path / "report.json", config={})
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert payload["clusters"] == [["a", "b", "c"]]
        assert payload["mutual"] == [
            {"a": "a", "b": "b", "distance": 0, "exact": True}
        ]
        assert payload["one_to_many"] == {
            "a": [{"id": "b", "distance": 0}, {"id": "c", "distance": 7}]
        }

    def test_every_reported_pair_is_a_candidate(self):
        rng = random.Random(31)
        users = [f"u{i}" for i in range(25)]
        pairs = {
            _pair(*rng.sample(users, 2), rng.randint(0, 9))
            for _ in range(50)
        }
        keys = {(p.a, p.b) for p in pairs}
        report = _report(pairs)
        for m in report.mutual:
            assert (m.a, m.b) in keys
        for uid, cands in report.one_to_many.items():
            for other, dd in cands:
                assert (min(uid, other), max(uid, other)) in keys


ODD_IDS = ["é", '"q', "back\\slash", " sp", "☃", "tab\tin", "line\nbreak", "Z", "a"]


def _random_pair_set(rng: random.Random) -> set[CandidatePair]:
    """Random pairs over a few distances, so ties are broken by id, plus a
    chain and a duplicate class: k users pairwise at 0 that share every
    other candidate at one distance each."""
    users = [f"u{i:02d}" for i in range(rng.randint(2, 30))] + rng.sample(ODD_IDS, 3)
    by_ends: dict[tuple[str, str], int] = {}

    def add(u: str, v: str, d: int) -> None:
        by_ends[min(u, v), max(u, v)] = d

    for _ in range(rng.randint(0, 40)):
        add(*rng.sample(users, 2), rng.randint(0, 3))
    chain = rng.sample(users, rng.randint(2, min(8, len(users))))
    for u, v in zip(chain, chain[1:]):
        add(u, v, rng.randint(0, 20))
    dup = rng.sample(users, rng.randint(2, min(6, len(users) - 1)))
    for i, u in enumerate(dup):
        for v in dup[i + 1 :]:
            add(u, v, 0)
    rest = [u for u in users if u not in dup]
    for other in rng.sample(rest, rng.randint(0, min(3, len(rest)))):
        d = rng.randint(1, 5)
        for u in dup:
            add(u, other, d)
    return {CandidatePair(a, b, d) for (a, b), d in by_ends.items()}


def _assert_report_matches_reference(pairs: set[CandidatePair], tmp_path) -> None:
    report = _report(pairs)
    assert report.clusters == reference.cluster(pairs)
    assert report.mutual == reference.mutual_matches(pairs)
    assert dict(report.one_to_many) == reference.one_to_many(pairs)
    config = {"b": 128, "d": 20, "theta": 0.5, "seed": 0}
    report.write_json(tmp_path / "report.json", config)
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == reference.report_json(pairs, config)


class TestAgainstReference:
    """The array report equals the per-pair reference, text included."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_pair_sets(self, seed, tmp_path):
        _assert_report_matches_reference(_random_pair_set(random.Random(seed)), tmp_path)

    @pytest.mark.parametrize("pairs", [
        set(),
        {CandidatePair("a", "b", 7)},
        {CandidatePair("a", "b", 3), CandidatePair("a", "c", 3), CandidatePair("b", "c", 3)},
        set(_pairs(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1))),
    ], ids=["empty", "single", "tied-triangle", "chain"])
    def test_edge_shapes(self, pairs, tmp_path):
        _assert_report_matches_reference(pairs, tmp_path)

    @pytest.mark.parametrize("seed", range(5))
    def test_retrieved_duplicate_classes(self, seed, tmp_path):
        # retrieval expands classes of equal fingerprints itself; the report
        # over its pairs equals the reference over the same pairs as a set
        rng = random.Random(seed)
        fps = {}
        for c in range(8):
            bits = rng.getrandbits(64)
            for i in range(rng.randint(1, 6)):
                uid = f"c{c}m{i}"
                fps[uid] = Fingerprint(uid, bits ^ (rng.getrandbits(64) if c == 7 else 0), 64)
            near = bits ^ (1 << rng.randrange(64))
            fps[f"c{c}near"] = Fingerprint(f"c{c}near", near, 64)
        packed = reference.fingerprints(fps)
        candidates = candidate_pairs(build_index(packed, 6))
        want = brute_force_pairs(packed, 6)
        assert candidates.users == want.users
        for got, expected in zip((candidates.a, candidates.b, candidates.distance), (want.a, want.b, want.distance)):
            assert got.tolist() == expected.tolist()
        _assert_report_matches_reference(set(candidates), tmp_path)
        assert build_match_report(candidates) == _report(set(candidates))
