import importlib
import pkgutil

import sockdetect


def test_submodules_are_not_shadowed_by_exports():
    # `import sockdetect.simhash as m` binds the package attribute, so an
    # exported function of the same name would hide the module
    names = [info.name for info in pkgutil.iter_modules(sockdetect.__path__)]
    assert "simhash" in names and "lsh" in names
    for name in names:
        module = importlib.import_module(f"sockdetect.{name}")
        assert getattr(sockdetect, name) is module, name


def test_public_surface_is_pinned():
    # each stage takes its one array container; a name leaving or joining
    # the library API is a deliberate edit of this list
    assert sockdetect.__all__ == [
    "BlockPlan",
    "CandidatePairs",
    "ConfigError",
    "DetectionResult",
    "EvalReport",
    "FeatureMaps",
    "Fingerprints",
    "GroundTruth",
    "InputError",
    "InteractionGraph",
    "LshIndex",
    "MatchCluster",
    "MatchReport",
    "MessageLog",
    "MutualMatch",
    "RunConfig",
    "SweepGrid",
    "SynthConfig",
    "brute_force_pairs",
    "build_feature_maps",
    "build_index",
    "build_interaction_graph",
    "build_match_report",
    "candidate_pairs",
    "convert_telegram_export",
    "fingerprint_population",
    "generate",
    "pairwise_metrics",
    "parse_messages",
    "read_edges_tsv",
    "read_truth",
    "run_detection",
    "sweep",
    "write_candidates_tsv",
    "write_edges_tsv",
    "write_truth",
    ]


def test_every_exported_name_resolves():
    for name in sockdetect.__all__:
        assert hasattr(sockdetect, name), name
