"""The population pass against the per-user reference chain.

``build_feature_maps`` and ``fingerprint_population`` compute every user at
once over flat arrays; ``normalize_weights`` -> ``filter_edges`` ->
``extract_features`` and ``simhash`` (in tests/reference.py) compute one user
at a time and are kept as the reference.  Both must give the same ``features.tsv`` rows and
the same fingerprint bits.  A graph keeps what its runs share, so runs on one
graph object are also compared with runs on a graph that never ran.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from reference import binarize, copied_graph, extract_features, filter_edges, normalize_weights, simhash, token_hash
from sockdetect.errors import InputError
from sockdetect.features import (
    DIRECTIONS,
    MODES,
    WEIGHTINGS,
    FeatureToken,
    build_feature_maps,
    write_features_tsv,
)
from sockdetect.ingest import InteractionGraph
from sockdetect.pipeline import RunConfig, run_detection
from sockdetect.simhash import SUPPORTED_WIDTHS, fingerprint_population
from sockdetect.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def graph() -> InteractionGraph:
    """A synth chat plus a hub: 150 users reply to "hub" with uneven counts,
    so the hub's in-direction segment is long and its weights spread over
    both sides of every threshold.  One user has a 3000-character non-ASCII
    id, far longer than any other token encoding."""
    background, _ = generate(SynthConfig(n=300, mean_out_degree=6, clones=6, perturbation=0.2, seed=11))
    edges = dict(background.edges)
    users = sorted(background.nodes)
    for i, uid in enumerate(users[:150]):
        edges[(uid, "hub")] = 1 + (i * 7) % 9
    for uid in users[::40]:
        edges[("hub", uid)] = 2
    long_id = "ü" * 3000
    edges.update({(long_id, users[0]): 2, (long_id, users[1]): 1, (users[2], long_id): 1})
    return InteractionGraph(nodes=background.nodes | {"hub", long_id}, edges=edges)


def _reference_maps(graph, mode, theta, direction, weighting):
    fmaps = extract_features(graph, filter_edges(normalize_weights(graph, mode), theta), direction)
    if weighting == "binary":
        fmaps = {owner: binarize(fmap) for owner, fmap in fmaps.items()}
    return fmaps


def _reference_rows(fmaps) -> list[str]:
    return [
        f"{owner}\t{t.direction}\t{t.neighbor}\t{fmaps[owner].entries[t]!r}"
        for owner in sorted(fmaps)
        for t in sorted(fmaps[owner].entries)
    ]


@pytest.mark.parametrize("weighting", ["weighted", "binary"])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("mode", MODES)
def test_population_equals_per_user_reference(graph, tmp_path, mode, direction, weighting):
    for theta in (0.0, 0.3, 0.5):
        cfg = RunConfig(theta=theta, mode=mode, direction=direction, weighting=weighting, seed=5)
        population = build_feature_maps(graph, cfg)
        reference = _reference_maps(graph, mode, theta, direction, weighting)
        path = tmp_path / "features.tsv"
        write_features_tsv(population, cfg, path)
        header, *rows = path.read_text().splitlines()
        assert header == cfg.header_line()
        assert rows == _reference_rows(reference)
        if direction != "out" and theta == 0.0:
            assert sum(row.startswith("hub\tin\t") for row in rows) == 150
        for b in (32, 128, 256):
            cfg = replace(cfg, bits=b)
            fingerprints, skipped = fingerprint_population(population, cfg)
            expected = {u: simhash(m, cfg) for u, m in reference.items() if not m.is_empty()}
            assert fingerprints == expected
            assert skipped == sorted(u for u, m in reference.items() if m.is_empty())


def test_exact_tie_gives_bit_zero():
    # binary weighting makes both votes 1.0, so every bit where the two token
    # hashes differ sums to exactly 0.0 and must come out 0
    graph = InteractionGraph(nodes={"u", "x", "y"}, edges={("u", "x"): 3, ("u", "y"): 1})
    cfg = RunConfig(theta=0.0, weighting="binary")
    hx, hy = (token_hash(FeatureToken("out", v), cfg) for v in "xy")
    assert hx != hy
    fmaps = build_feature_maps(graph, cfg)
    fingerprints, _ = fingerprint_population(fmaps, cfg)
    assert fingerprints["u"].bits == hx & hy


def test_graph_outside_exact_float_range_rejected():
    # normalized weights are float64 quotients of integer counts; past 2**53
    # the counts themselves stop being exact
    graph = InteractionGraph(nodes={"u", "x", "y"}, edges={("u", "x"): 2**53, ("u", "y"): 1})
    with pytest.raises(InputError, match="exact float64"):
        build_feature_maps(graph, RunConfig())


def test_edge_endpoint_outside_nodes_rejected():
    # the graph interns its edges, so it cannot hold an unknown endpoint
    with pytest.raises(InputError, match="'ghost' is not a graph node"):
        InteractionGraph(nodes={"u"}, edges={("u", "ghost"): 1})


def test_graph_cache_equals_fresh_graphs(graph, tmp_path):
    # one graph object serves a seeded mix of configs, revisiting earlier
    # keys; each run must equal the same config on a graph rebuilt from
    # copies of the arrays
    rng = random.Random(26)
    axes = {
        "direction": DIRECTIONS, "mode": MODES, "weighting": WEIGHTINGS,
        "theta": (0.0, 0.3, 0.5, 1.0), "bits": SUPPORTED_WIDTHS, "seed": (0, 2**64 - 1),
    }
    configs = []
    for _ in range(24):
        point = {name: rng.choice(values) for name, values in axes.items()}
        configs.append(RunConfig(max_distance=point["bits"] // 8, **point))
    configs += rng.sample(configs, 12)
    for name, values in axes.items():
        assert {getattr(cfg, name) for cfg in configs} == set(values)
    shared = copied_graph(graph)
    arrays = list(shared.ids), shared.src.copy(), shared.dst.copy(), shared.weight.copy()
    for cfg in configs:
        fresh = copied_graph(shared)
        got, want = run_detection(shared, cfg), run_detection(fresh, cfg)
        assert got.fingerprints.owners == want.fingerprints.owners
        assert np.array_equal(got.fingerprints.words, want.fingerprints.words)
        assert got.unfingerprintable == want.unfingerprintable
        assert got.candidates.users == want.candidates.users
        for name in ("a", "b", "distance"):
            assert np.array_equal(getattr(got.candidates, name), getattr(want.candidates, name))
        texts = []
        for result in (got, want):
            write_features_tsv(result.feature_maps, cfg, tmp_path / "features.tsv")
            texts.append((tmp_path / "features.tsv").read_text())
        assert texts[0] == texts[1]
        # the tables of one graph share its vote cache; two graphs share none
        assert got.feature_maps.votes is shared.feature_rows[cfg.direction, cfg.mode].votes
        assert got.feature_maps.votes is not want.feature_maps.votes
        assert fresh.feature_rows is not shared.feature_rows
    # one entry per (direction, mode) run, each with one vote table per (seed, width)
    assert set(shared.feature_rows) == {(cfg.direction, cfg.mode) for cfg in configs}
    for key, rows in shared.feature_rows.items():
        assert set(rows.votes.rows) == {(cfg.seed, cfg.bits) for cfg in configs if (cfg.direction, cfg.mode) == key}
    # and the graph's arrays are as they were
    assert shared.ids == arrays[0]
    for name, copy in zip(("src", "dst", "weight"), arrays[1:]):
        assert np.array_equal(getattr(shared, name), copy)


def test_failed_feature_build_keeps_nothing():
    graph = InteractionGraph(nodes={"u", "x", "y"}, edges={("u", "x"): 2**53, ("u", "y"): 1})
    for cfg in (RunConfig(), RunConfig(), RunConfig(theta=0.3)):
        with pytest.raises(InputError, match="exact float64"):
            build_feature_maps(graph, cfg)
    assert graph.feature_rows == {}
