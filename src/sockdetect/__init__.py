"""Sockpuppet candidate detection over chat reply graphs.

Users are fingerprinted by the neighbors they interact with (weighted
SimHash), and all account pairs within a Hamming radius are retrieved
losslessly through pigeonhole blocking, then clustered and scored.
"""

__version__ = "0.1.0"

from .detect import MatchCluster, MatchReport, MutualMatch, build_match_report
from .errors import ConfigError, InputError
from .evaluate import EvalReport, GroundTruth, SweepGrid, pairwise_metrics, read_truth, sweep, write_truth
from .features import FeatureMaps, build_feature_maps
from .ingest import (
    InteractionGraph,
    MessageLog,
    build_interaction_graph,
    convert_telegram_export,
    parse_messages,
    read_edges_tsv,
    write_edges_tsv,
)
from .lsh import BlockPlan, CandidatePairs, LshIndex, brute_force_pairs, build_index, candidate_pairs
from .pipeline import DetectionResult, RunConfig, run_detection, write_candidates_tsv
from .simhash import Fingerprints, fingerprint_population
from .synth import SynthConfig, generate

__all__ = [
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
