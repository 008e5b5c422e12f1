import random

import pytest

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
from sockdetect.lsh import CandidatePair
from sockdetect.pipeline import RunConfig, run_detection
from sockdetect.synth import SynthConfig, generate


def _pairs(*pairs: tuple[str, str]) -> set[CandidatePair]:
    return {CandidatePair.ordered(a, b, 1) for a, b in pairs}


class TestPairwiseMetrics:
    def test_worked_example(self):
        truth = GroundTruth([{"a", "b"}, {"c"}])
        report = pairwise_metrics(_pairs(("a", "b"), ("a", "c")), truth)
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)
        assert abs(report.precision - 0.5) < 1e-12
        assert abs(report.recall - 1.0) < 1e-12
        assert abs(report.f1 - 2 / 3) < 1e-12

    def test_empty_prediction_is_vacuously_precise(self):
        report = pairwise_metrics(set(), GroundTruth([{"a", "b"}]))
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
        predicted = {CandidatePair("a", "b", 1), CandidatePair("a", "b", 4),
                     CandidatePair("a", "c", 2), CandidatePair("a", "c", 3)}
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
        n_positive = len(truth.positive_pairs())
        for trial in range(10):
            predicted = {
                CandidatePair.ordered(*rng.sample(users, 2), 0) for _ in range(15)
            }
            report = pairwise_metrics(predicted, truth)
            assert report.tp + report.fn == n_positive

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
        assert [(r.max_distance, r.theta) for r in rows1] == [
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
        assert [(r.max_distance, r.theta) for r in rows] == [
            (d, theta) for d in (6, 8, 10) for theta in (0.3, 0.5)
        ]
        for row in rows:
            cfg = RunConfig(max_distance=row.max_distance, theta=row.theta)
            result = run_detection(graph, cfg)
            assert row.status == "ok"
            assert row.candidates == len(result.candidates)
            assert row.report == pairwise_metrics(result.candidates, truth)

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
            result = run_detection(graph, RunConfig(bits=32, max_distance=row.max_distance))
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
