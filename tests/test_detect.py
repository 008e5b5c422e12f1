import random

from sockdetect.detect import (
    build_match_report,
    cluster,
    mutual_matches,
    one_to_many,
)
from sockdetect.lsh import CandidatePair


def _pairs(*triples: tuple[str, str, int]) -> list[CandidatePair]:
    return [CandidatePair.ordered(a, b, d) for a, b, d in triples]


class TestCluster:
    def test_transitive_union(self):
        clusters = cluster(_pairs(("a", "b", 1), ("b", "c", 2)))
        assert len(clusters) == 1
        assert clusters[0].members == ["a", "b", "c"]

    def test_disjoint_components(self):
        clusters = cluster(_pairs(("a", "b", 1), ("c", "d", 2)))
        assert [c.members for c in clusters] == [["a", "b"], ["c", "d"]]

    def test_empty(self):
        assert cluster([]) == []

    def test_sorted_by_size_then_smallest_member(self):
        clusters = cluster(_pairs(("x", "y", 1), ("p", "q", 1), ("q", "r", 1)))
        assert [c.members for c in clusters] == [["p", "q", "r"], ["x", "y"]]

    def test_partition_invariants(self):
        rng = random.Random(23)
        users = [f"u{i}" for i in range(40)]
        pairs = {
            CandidatePair.ordered(*rng.sample(users, 2), rng.randint(0, 20))
            for _ in range(60)
        }
        clusters = cluster(pairs)
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
        expected = [c.members for c in cluster(pairs)]
        for seed in range(5):
            shuffled = pairs[:]
            random.Random(seed).shuffle(shuffled)
            got = [c.members for c in cluster(shuffled)]
            assert got == expected


class TestMutualMatches:
    def test_lone_pair_is_mutual_not_exact(self):
        matches = mutual_matches(_pairs(("a", "b", 5)))
        assert len(matches) == 1
        match = matches[0]
        assert (match.a, match.b, match.distance, match.exact) == ("a", "b", 5, False)

    def test_star_tie_break_by_smallest_id(self):
        # a's nearest is b (id tie-break), so (a, b) is mutual and c only
        # shows up in a's one-to-many list
        pairs = _pairs(("a", "b", 5), ("a", "c", 5))
        matches = mutual_matches(pairs)
        assert [(m.a, m.b) for m in matches] == [("a", "b")]
        fanout = one_to_many(pairs)
        assert fanout == {"a": [("b", 5), ("c", 5)]}

    def test_distance_zero_flagged_exact(self):
        matches = mutual_matches(_pairs(("a", "b", 0)))
        assert matches[0].exact is True

    def test_closer_partner_wins(self):
        matches = mutual_matches(_pairs(("a", "b", 5), ("a", "c", 2), ("b", "c", 9)))
        assert [(m.a, m.b, m.distance) for m in matches] == [("a", "c", 2)]

    def test_symmetric_and_duplicate_free(self):
        rng = random.Random(29)
        users = [f"u{i}" for i in range(30)]
        pairs = {
            CandidatePair.ordered(*rng.sample(users, 2), rng.randint(0, 20))
            for _ in range(80)
        }
        matches = mutual_matches(pairs)
        seen = set()
        for m in matches:
            assert m.a < m.b
            assert (m.a, m.b) not in seen
            seen.add((m.a, m.b))
            assert m.exact == (m.distance == 0)


class TestOneToMany:
    def test_single_candidate_users_excluded(self):
        assert one_to_many(_pairs(("a", "b", 3))) == {}

    def test_lists_sorted_by_distance_then_id(self):
        pairs = _pairs(("m", "z", 4), ("a", "m", 4), ("m", "q", 1))
        assert one_to_many(pairs)["m"] == [("q", 1), ("a", 4), ("z", 4)]


class TestMatchReport:
    def test_report_round_trip_dict(self):
        report = build_match_report(_pairs(("a", "b", 0), ("a", "c", 7)))
        payload = report.to_dict()
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
            CandidatePair.ordered(*rng.sample(users, 2), rng.randint(0, 9))
            for _ in range(50)
        }
        keys = {(p.a, p.b) for p in pairs}
        report = build_match_report(pairs)
        for m in report.mutual:
            assert (m.a, m.b) in keys
        for uid, cands in report.one_to_many.items():
            for other, dd in cands:
                assert (min(uid, other), max(uid, other)) in keys
