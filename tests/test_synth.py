import math

import pytest

from sockdetect.errors import ConfigError
from sockdetect.features import build_feature_maps
from sockdetect.ingest import write_edges_tsv
from sockdetect.simhash import HashConfig, fingerprint_population, hamming
from sockdetect.synth import SynthConfig, generate


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 10, "mean_out_degree": 0.0},
            {"n": 10, "clones": 11},
            {"n": 10, "clones": -1},
            {"n": 10, "perturbation": 1.5},
            {"n": 10, "weight_max": 0},
            {"n": 10, "seed": -1},
            {"n": 10, "seed": 2**64},
        ],
    )
    def test_invalid(self, kwargs):
        # checked when built, before generate sees it
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)


class TestGenerate:
    def test_deterministic_from_seed(self, tmp_path):
        cfg = SynthConfig(n=200, mean_out_degree=6, clones=10, perturbation=0.3, seed=99)
        graph1, truth1 = generate(cfg)
        graph2, truth2 = generate(cfg)
        assert graph1.edges == graph2.edges
        assert graph1.nodes == graph2.nodes
        assert truth1.clusters == truth2.clusters
        f1, f2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_edges_tsv(graph1, f1)
        write_edges_tsv(graph2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_different_seeds_differ(self):
        graph1, _ = generate(SynthConfig(n=100, seed=1))
        graph2, _ = generate(SynthConfig(n=100, seed=2))
        assert graph1.edges != graph2.edges

    def test_out_degree_concentrates_around_lambda_n(self):
        # sum of n Poisson(8) draws is Poisson(8n): check a 5-sigma band
        graph, _ = generate(SynthConfig(n=1000, mean_out_degree=8.0, seed=5))
        total = graph.edge_count
        assert abs(total - 8000) <= 5 * math.sqrt(8000)

    def test_graph_invariants(self):
        graph, truth = generate(
            SynthConfig(n=300, mean_out_degree=5, clones=20, perturbation=0.4, seed=7)
        )
        graph.validate()
        assert len(truth.clusters) == 20
        assert all(len(c) == 2 for c in truth.clusters)

    def test_truth_clusters_disjoint_originals(self):
        _, truth = generate(SynthConfig(n=50, clones=25, seed=3))
        members = [u for c in truth.clusters for u in c]
        assert len(members) == len(set(members))

    def test_clone_ids_continue_numbering(self):
        graph, truth = generate(SynthConfig(n=30, clones=3, seed=1))
        assert graph.node_count == 33
        clones = {max(c, key=int) for c in truth.clusters}
        assert clones == {"31", "32", "33"}

    def test_no_original_clone_edge_even_with_perturbation(self):
        graph, truth = generate(
            SynthConfig(n=120, mean_out_degree=7, clones=40, perturbation=0.6, seed=11)
        )
        for members in truth.clusters:
            original, clone = sorted(members, key=int)
            assert (original, clone) not in graph.edges
            assert (clone, original) not in graph.edges


class TestPlantedTwins:
    @pytest.mark.parametrize("mode", ["max", "sum"])
    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    def test_unperturbed_clones_are_feature_twins(self, mode, direction):
        graph, truth = generate(
            SynthConfig(n=150, mean_out_degree=6, clones=5, perturbation=0.0, seed=21)
        )
        fmaps = build_feature_maps(graph, mode=mode, theta=0.5, direction=direction)
        fps, _ = fingerprint_population(fmaps, HashConfig(b=128, seed=0))
        for members in truth.clusters:
            original, clone = sorted(members, key=int)
            # neighbors coincide outright: original and clone never touch,
            # so the two maps are equal token for token
            assert fmaps[original].entries == fmaps[clone].entries
            if fmaps[original].entries:
                assert hamming(fps[original], fps[clone]) == 0

    def test_interlinked_originals_still_twin(self):
        # force planted originals into each other's neighborhoods: with few
        # users and many clones some original replies to another original
        graph, truth = generate(
            SynthConfig(n=40, mean_out_degree=6, clones=20, perturbation=0.0, seed=2)
        )
        originals = {sorted(c, key=int)[0] for c in truth.clusters}
        touching = sum(
            1
            for (src, dst) in graph.edges
            if src in originals and dst in originals and src != dst
        )
        assert touching > 0  # the interesting case actually occurs
        fmaps = build_feature_maps(graph, direction="both", theta=0.5)
        fps, _ = fingerprint_population(fmaps, HashConfig(b=128, seed=0))
        for members in truth.clusters:
            original, clone = sorted(members, key=int)
            if fmaps[original].entries:
                assert hamming(fps[original], fps[clone]) == 0
