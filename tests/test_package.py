import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no newer syntax
    # (such as except*) may appear in the package
    sources = sorted(Path(sockdetect.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
