import numpy as np
import pytest

from reference import binarize, extract_features, feature_maps, filter_edges, normalize_weights
from sockdetect import features
from sockdetect.errors import ConfigError
from sockdetect.features import (
    DIRECTIONS,
    FeatureMap,
    FeatureToken,
    _normalized,
    build_feature_maps,
    write_features_tsv,
)
from sockdetect.ingest import InteractionGraph
from sockdetect.pipeline import RunConfig
from sockdetect.synth import SynthConfig, generate


def _graph(edges: dict[tuple[str, str], int]) -> InteractionGraph:
    nodes = {u for edge in edges for u in edge}
    return InteractionGraph(nodes=nodes, edges=edges)


FAN_OUT = _graph({("A", "B"): 4, ("A", "C"): 2, ("A", "D"): 1})


class TestNormalize:
    def test_max_mode_divides_by_slice_maximum(self):
        weights = normalize_weights(FAN_OUT, "max")
        assert weights.out_weights["A"] == {"B": 1.0, "C": 0.5, "D": 0.25}

    def test_sum_mode_divides_by_slice_total(self):
        weights = normalize_weights(FAN_OUT, "sum")
        assert weights.out_weights["A"] == {"B": 4 / 7, "C": 2 / 7, "D": 1 / 7}

    @pytest.mark.parametrize("mode", ["max", "sum"])
    def test_single_edge_slice_normalizes_to_one(self, mode):
        weights = normalize_weights(_graph({("A", "B"): 7}), mode)
        assert weights.out_weights["A"] == {"B": 1.0}
        assert weights.in_weights["B"] == {"A": 1.0}

    def test_out_and_in_slices_normalized_independently(self):
        graph = _graph({("A", "B"): 4, ("A", "C"): 2, ("D", "A"): 3, ("E", "A"): 1})
        weights = normalize_weights(graph, "max")
        assert weights.out_weights["A"] == {"B": 1.0, "C": 0.5}
        assert weights.in_weights["A"] == {"D": 1.0, "E": 1 / 3}

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown normalization mode"):
            normalize_weights(FAN_OUT, "median")

    def test_max_slices_attain_one_and_sum_slices_total_one(self):
        graph, _ = generate(SynthConfig(n=120, mean_out_degree=5, seed=9))
        by_max = normalize_weights(graph, "max")
        for side in (by_max.out_weights, by_max.in_weights):
            for slice_ in side.values():
                assert max(slice_.values()) == 1.0
        by_sum = normalize_weights(graph, "sum")
        for side in (by_sum.out_weights, by_sum.in_weights):
            for slice_ in side.values():
                assert abs(sum(slice_.values()) - 1.0) < 1e-9


class TestFilter:
    def test_strict_drop_below_half(self):
        weights = normalize_weights(FAN_OUT, "max")
        kept = filter_edges(weights, 0.5)
        assert kept.out_weights["A"] == {"B": 1.0, "C": 0.5}

    def test_zero_threshold_keeps_everything(self):
        weights = normalize_weights(FAN_OUT, "max")
        assert filter_edges(weights, 0.0).out_weights == weights.out_weights

    def test_emptied_slice_disappears(self):
        weights = normalize_weights(_graph({("A", "B"): 4, ("X", "Y"): 1}), "sum")
        # A's slice {B: 1.0} survives; X's sum-normalized {Y: 1.0} survives too,
        # so drop everything with an impossible threshold instead
        kept = filter_edges(weights, 1.0)
        assert kept.out_weights["A"] == {"B": 1.0}
        weights.out_weights["A"]["B"] = 0.4  # force an empty slice
        kept = filter_edges(weights, 0.5)
        assert "A" not in kept.out_weights

    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_threshold_range_validated(self, theta):
        with pytest.raises(ConfigError, match="threshold"):
            filter_edges(normalize_weights(FAN_OUT, "max"), theta)

    def test_idempotent_and_subset(self):
        weights = normalize_weights(FAN_OUT, "max")
        once = filter_edges(weights, 0.5)
        twice = filter_edges(once, 0.5)
        assert once.out_weights == twice.out_weights
        assert once.in_weights == twice.in_weights
        for user, slice_ in once.out_weights.items():
            assert set(slice_) <= set(weights.out_weights[user])


class TestExtract:
    def test_out_direction_tags_targets(self):
        fmaps = build_feature_maps(FAN_OUT, RunConfig(mode="max", theta=0.5, direction="out"))
        assert fmaps["A"].entries == {
            FeatureToken("out", "B"): 1.0,
            FeatureToken("out", "C"): 0.5,
        }

    def test_both_is_tagged_union(self):
        graph = _graph({("A", "B"): 1, ("C", "A"): 2})
        fmaps = build_feature_maps(graph, RunConfig(mode="max", theta=0.5, direction="both"))
        assert fmaps["A"].entries == {
            FeatureToken("out", "B"): 1.0,
            FeatureToken("in", "C"): 1.0,
        }

    def test_isolated_user_has_empty_map(self):
        graph = InteractionGraph(nodes={"A", "B", "lonely"}, edges={("A", "B"): 1})
        fmaps = build_feature_maps(graph, RunConfig())
        assert fmaps["lonely"].is_empty()
        assert not fmaps["A"].is_empty()

    def test_both_restricted_to_out_equals_out(self):
        graph, _ = generate(SynthConfig(n=80, mean_out_degree=4, seed=2))
        both = build_feature_maps(graph, RunConfig(direction="both"))
        out_only = build_feature_maps(graph, RunConfig(direction="out"))
        for user, fmap in out_only.items():
            restricted = {
                t: w for t, w in both[user].entries.items() if t.direction == "out"
            }
            assert restricted == fmap.entries

    def test_every_node_present(self):
        graph, _ = generate(SynthConfig(n=50, mean_out_degree=3, seed=4))
        fmaps = build_feature_maps(graph, RunConfig())
        assert set(fmaps) == graph.nodes

    def test_unknown_direction(self):
        weights = normalize_weights(FAN_OUT, "max")
        with pytest.raises(ConfigError, match="unknown direction"):
            extract_features(FAN_OUT, weights, "sideways")


def test_binarize_sets_all_weights_to_one():
    fmap = FeatureMap("u", {FeatureToken("out", "a"): 0.3, FeatureToken("in", "b"): 1.0})
    assert set(binarize(fmap).entries.values()) == {1.0}


def test_features_tsv_sorted(tmp_path):
    fmaps = {
        "u2": FeatureMap("u2", {FeatureToken("out", "x"): 1.0}),
        "u1": FeatureMap(
            "u1",
            {FeatureToken("out", "b"): 0.5, FeatureToken("in", "a"): 1.0},
        ),
    }
    path = tmp_path / "features.tsv"
    write_features_tsv(feature_maps(fmaps), RunConfig(), path)
    assert path.read_text().splitlines() == [
        RunConfig().header_line(),
        "u1\tin\ta\t1.0",
        "u1\tout\tb\t0.5",
        "u2\tout\tx\t1.0",
    ]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_normalized_rows_in_stable_argsort_order(monkeypatch, direction):
    # the rows are ordered by one packed sort of their (owner, token) keys
    graph, _ = generate(SynthConfig(n=400, clones=8, perturbation=0.2, seed=4))
    calls = []
    stable_order = features.stable_order

    def spy(key, bound):
        calls.append((key.copy(), stable_order(key, bound)))
        return calls[-1][1]

    monkeypatch.setattr(features, "stable_order", spy)
    rows = _normalized(graph, direction, "max")
    ((key, order),) = calls
    assert np.array_equal(order, np.argsort(key, kind="stable"))
    n = len(graph.ids)
    assert (np.diff(rows.owner * 2 * n + rows.token) > 0).all()  # distinct keys, ascending
