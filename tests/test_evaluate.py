import random
import re

import numpy as np
import pytest

import reference
from sockdetect.errors import InputError
from sockdetect.evaluate import (
    EvalReport,
    GroundTruth,
    SweepGrid,
    pairwise_metrics,
    read_truth,
    sweep,
    write_truth,
)
from sockdetect import pipeline
from sockdetect.ingest import InteractionGraph
from sockdetect.lsh import CandidatePair, CandidatePairs
from sockdetect.pipeline import RunConfig, run_detection
from sockdetect.synth import SynthConfig, generate


def _pairs(*pairs: tuple[str, str]) -> CandidatePairs:
    return reference.candidate_pairs(CandidatePair(min(a, b), max(a, b), 1) for a, b in pairs)


class TestPairwiseMetrics:
    def test_worked_example(self):
        truth = GroundTruth([{"a", "b"}, {"c"}])
        report = pairwise_metrics(_pairs(("a", "b"), ("a", "c")), truth)
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)
        assert abs(report.precision - 0.5) < 1e-12
        assert abs(report.recall - 1.0) < 1e-12
        assert abs(report.f1 - 2 / 3) < 1e-12

    def test_empty_prediction_is_vacuously_precise(self):
        report = pairwise_metrics(_pairs(), GroundTruth([{"a", "b"}]))
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_perfect_prediction(self):
        truth = GroundTruth([{"a", "b", "c"}])
        predicted = _pairs(("a", "b"), ("a", "c"), ("b", "c"))
        report = pairwise_metrics(predicted, truth)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_unlabeled_endpoints_discarded(self):
        truth = GroundTruth([{"a", "b"}])
        predicted = _pairs(("a", "b"), ("a", "mystery"), ("ghost", "mystery"))
        report = pairwise_metrics(predicted, truth)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)

    def test_a_pair_listed_at_two_distances_counts_once(self):
        # a hand-edited candidates.tsv can list one pair twice
        truth = GroundTruth([{"a", "b"}, {"c", "d"}])
        predicted = reference.candidate_pairs([
            CandidatePair("a", "b", 1), CandidatePair("a", "b", 4),
            CandidatePair("a", "c", 2), CandidatePair("a", "c", 3),
        ])
        report = pairwise_metrics(predicted, truth)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)

    def test_no_truth_at_all(self):
        report = pairwise_metrics(_pairs(("a", "b")), GroundTruth([]))
        assert report.precision == 1.0 and report.recall == 1.0

    def test_tp_plus_fn_is_truth_pair_count(self):
        rng = random.Random(3)
        users = [f"u{i}" for i in range(30)]
        clusters, pool = [], users[:]
        while len(pool) > 4:
            size = rng.randint(1, 4)
            clusters.append({pool.pop() for _ in range(size)})
        truth = GroundTruth(clusters)
        n_positive = sum(len(m) * (len(m) - 1) // 2 for m in truth.clusters)
        for trial in range(10):
            predicted = _pairs(*(rng.sample(users, 2) for _ in range(15)))
            report = pairwise_metrics(predicted, truth)
            assert report.tp + report.fn == n_positive

    @staticmethod
    def _checked(pairs: CandidatePairs, truth: GroundTruth) -> EvalReport:
        """``pairwise_metrics``, checked against the plain per-pair count."""
        report = pairwise_metrics(pairs, truth)
        assert (report.tp, report.fp, report.fn) == reference.pair_counts(pairs, truth.clusters)
        assert report == EvalReport.from_counts(report.tp, report.fp, report.fn)
        return report

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_pairs_match_plain_count(self, seed):
        # 60 users, a third unlabeled; some pairs repeat at another distance
        rng = random.Random(seed)
        users = [f"u{i:02d}" for i in range(60)]
        pool = rng.sample(users, 40)
        clusters = []
        while pool:
            size = rng.randint(1, 5)
            clusters.append(set(pool[:size]))
            pool = pool[size:]
        truth = GroundTruth(clusters)
        ends = [sorted(rng.sample(range(60), 2)) for _ in range(rng.randint(1, 120))]
        ends += rng.sample(ends, len(ends) // 4)
        a, b = np.array(ends, dtype=np.int64).reshape(-1, 2).T
        distance = np.array([rng.randint(0, 12) for _ in ends], dtype=np.int64)
        pairs = CandidatePairs.canonical(users, a, b, distance)
        labeled = set().union(*clusters)
        assert any(p.a not in labeled or p.b not in labeled for p in pairs)
        for d in (0, 6, 12):
            self._checked(pairs.within(d), truth)

    @pytest.mark.parametrize("users", [[], ["a", "b", "x"]])
    def test_no_pairs_at_all(self, users):
        none = np.zeros(0, dtype=np.int64)
        report = self._checked(CandidatePairs(users, none, none, none), GroundTruth([{"a", "b"}, {"c", "d", "e"}]))
        assert (report.tp, report.fp, report.fn) == (0, 0, 4)

    def test_pairs_on_the_first_and_last_rows(self):
        users = [f"u{i}" for i in range(10)]
        truth = GroundTruth([{"u0", "u9"}, {"u1", "u8"}])
        pairs = CandidatePairs.canonical(
            users, np.array([0, 0, 8]), np.array([9, 1, 9]), np.array([3, 1, 2]))
        report = self._checked(pairs, truth)
        assert (report.tp, report.fp, report.fn) == (1, 2, 1)

    def test_repeated_rows_at_different_distances_match_plain_count(self):
        users = ["a", "b", "c", "d", "e"]
        truth = GroundTruth([{"a", "b"}, {"c", "d"}])
        pairs = CandidatePairs.canonical(
            users, np.array([0, 0, 0, 0, 2, 3, 3]), np.array([1, 1, 2, 2, 3, 4, 4]),
            np.array([4, 1, 2, 7, 0, 5, 6]))
        report = self._checked(pairs, truth)
        assert (report.tp, report.fp, report.fn) == (2, 1, 0)

    def test_a_90_member_duplicate_class(self):
        # as in the hub-90 benchmark: 90 lurkers reply only to one admin, so
        # they share one fingerprint, and the truth holds them as one class
        background, planted = generate(SynthConfig(n=400, clones=6, perturbation=0.1, seed=4))
        edges = dict(background.edges)
        leaves = [f"lurker{i:04d}" for i in range(90)]
        edges.update({(leaf, "admin"): 1 + i % 3 for i, leaf in enumerate(leaves)})
        graph = InteractionGraph(nodes=background.nodes | {"admin", *leaves}, edges=edges)
        truth = GroundTruth([*planted.clusters, set(leaves)])
        result = run_detection(graph, RunConfig(max_distance=10))
        assert result.stats["largest_duplicate_class"] == 90
        for d in (0, 4, 10):
            report = self._checked(result.candidates.within(d), truth)
            assert report.tp >= 90 * 89 // 2

    def test_overlapping_truth_rejected(self):
        with pytest.raises(InputError, match="overlapping"):
            GroundTruth([{"a", "b"}, {"b", "c"}])

    def test_empty_cluster_rejected(self):
        with pytest.raises(InputError, match="empty truth cluster"):
            GroundTruth([set()])


class TestEvalReport:
    def test_f1_zero_when_both_zero(self):
        report = EvalReport.from_counts(0, 5, 5)
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        truth = GroundTruth([{"a", "b"}, {"x", "y", "z"}])
        path = tmp_path / "truth.txt"
        write_truth(truth, path)
        loaded = read_truth(path)
        assert sorted(map(sorted, loaded.clusters)) == [["a", "b"], ["x", "y", "z"]]

    def test_odd_ids_round_trip(self, tmp_path):
        truth = GroundTruth([{"#a", "in ner"}, {"\u00fc", "b"}])
        path = tmp_path / "truth.txt"
        write_truth(truth, path)
        assert sorted(map(sorted, read_truth(path).clusters)) == [["#a", "in ner"], ["b", "\u00fc"]]

    @pytest.mark.parametrize("uid", ["", "a,b", " d", "d ", "a\nb", "a\rb"])
    def test_write_rejects_ids_read_back_differently(self, tmp_path, uid):
        # read_truth splits on commas and line breaks and strips each id
        path = tmp_path / "truth.txt"
        message = (f"truth id {uid!r} must be non-empty, hold no comma or line break,"
                   " and not begin or end with whitespace")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            write_truth(GroundTruth([{uid, "c"}, {"e", "f"}]), path)
        assert not path.exists()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("a,b\n\nc,d\n")
        assert len(read_truth(path).clusters) == 2

    def test_overlap_detected_on_read(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("a,b\nb,c\n")
        with pytest.raises(InputError, match="overlapping"):
            read_truth(path)


@pytest.fixture(scope="module")
def corpus():
    return generate(SynthConfig(n=150, mean_out_degree=6, clones=8, seed=13))


class TestSweep:
    def test_single_point_grid(self, corpus):
        graph, truth = corpus
        rows = sweep(graph, truth, SweepGrid())
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].report is not None

    def test_candidates_monotone_in_distance(self, corpus):
        graph, truth = corpus
        rows = sweep(graph, truth, SweepGrid(max_distance=[10, 20]))
        assert len(rows) == 2
        assert rows[0].candidates <= rows[1].candidates

    def test_grid_order_and_reproducibility(self, corpus):
        graph, truth = corpus
        grid = SweepGrid(max_distance=[10, 20], theta=[0.3, 0.5])
        rows1 = sweep(graph, truth, grid)
        rows2 = sweep(graph, truth, grid)
        assert [(r.point["max_distance"], r.point["theta"]) for r in rows1] == [
            (10, 0.3),
            (10, 0.5),
            (20, 0.3),
            (20, 0.5),
        ]
        for r1, r2 in zip(rows1, rows2):
            assert (r1.candidates, r1.report) == (r2.candidates, r2.report)

    def test_invalid_grid_point_marked_failed(self, corpus):
        graph, truth = corpus
        rows = sweep(graph, truth, SweepGrid(max_distance=[128, 20]))
        assert rows[0].status == "failed"
        assert "max distance" in rows[0].error
        assert rows[0].report is None
        assert rows[1].status == "ok"

    def test_recall_non_decreasing_in_distance(self, corpus):
        graph, truth = corpus
        rows = sweep(graph, truth, SweepGrid(max_distance=[5, 10, 15, 20]))
        recalls = [r.report.recall for r in rows]
        assert recalls == sorted(recalls)

    @staticmethod
    def _count_calls(monkeypatch, name: str) -> list:
        calls = []
        wrapped = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls.append(args[1])
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
        return calls

    def test_fingerprints_computed_once_per_key(self, corpus, monkeypatch):
        graph, truth = corpus
        fingerprint_calls = self._count_calls(monkeypatch, "fingerprint_population")
        run_calls = self._count_calls(monkeypatch, "run_detection")
        grid = SweepGrid(max_distance=[6, 8, 10], theta=[0.3, 0.5])
        rows = sweep(graph, truth, grid)
        assert len(fingerprint_calls) == 2
        assert [cfg.max_distance for cfg in run_calls] == [10, 10]
        assert [(r.point["max_distance"], r.point["theta"]) for r in rows] == [
            (d, theta) for d in (6, 8, 10) for theta in (0.3, 0.5)
        ]
        for row in rows:
            result = run_detection(graph, RunConfig(**row.point))
            assert row.status == "ok"
            assert row.candidates == len(result.candidates)
            assert row.report == pairwise_metrics(result.candidates, truth)
            # the same graph object serves the sweep and the run above, so
            # both read its feature cache; a rebuilt graph has none yet
            fresh = run_detection(reference.copied_graph(graph), RunConfig(**row.point))
            assert row.candidates == len(fresh.candidates)
            assert row.report == pairwise_metrics(fresh.candidates, truth)

    def test_invalid_radius_fails_in_place_within_a_key(self, corpus, monkeypatch):
        graph, truth = corpus
        fingerprint_calls = self._count_calls(monkeypatch, "fingerprint_population")
        run_calls = self._count_calls(monkeypatch, "run_detection")
        rows = sweep(graph, truth, SweepGrid(bits=[32], max_distance=[6, 32, 8]))
        assert [r.status for r in rows] == ["ok", "failed", "ok"]
        assert "max distance 32 >= width 32" in rows[1].error
        assert rows[1].report is None
        assert len(fingerprint_calls) == 1
        assert [cfg.max_distance for cfg in run_calls] == [8]
        for row in (rows[0], rows[2]):
            result = run_detection(graph, RunConfig(**row.point))
            assert row.candidates == len(result.candidates)

    def test_failed_run_fails_every_row_of_its_key(self):
        # edge weights summing past 2**53 make the feature pass raise
        graph = InteractionGraph(nodes={"a", "b"}, edges={("a", "b"): 2**53})
        truth = GroundTruth([{"a", "b"}])
        rows = sweep(graph, truth, SweepGrid(bits=[32], max_distance=[6, 32, 8]))
        assert [r.status for r in rows] == ["failed"] * 3
        assert "max distance 32" in rows[1].error
        assert rows[0].error == rows[2].error == (
            f"edge weights sum to {2**53}, beyond exact float64 range"
        )
        assert all(r.report is None for r in rows)
