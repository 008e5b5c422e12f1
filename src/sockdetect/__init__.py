"""Sockpuppet candidate detection over chat reply graphs.

Users are fingerprinted by the neighbors they interact with (weighted
SimHash), and all account pairs within a Hamming radius are retrieved
losslessly through pigeonhole blocking, then clustered and scored.
"""

__version__ = "0.1.0"

from .detect import MatchCluster, MatchReport, MutualMatch, build_match_report, cluster, mutual_matches
from .errors import ConfigError, InputError, UnfingerprintableError
from .evaluate import EvalReport, GroundTruth, SweepGrid, pairwise_metrics, read_truth, sweep, write_truth
from .features import FeatureMap, FeatureToken, build_feature_maps
from .ingest import (
    InteractionGraph,
    MessageLog,
    MessageRecord,
    build_interaction_graph,
    convert_telegram_export,
    parse_messages,
    read_edges_tsv,
    write_edges_tsv,
)
from .lsh import (
    BlockPlan,
    CandidatePair,
    CandidatePairs,
    LshIndex,
    brute_force_pairs,
    build_index,
    candidate_pairs,
    plan_blocks,
    query,
)
from .pipeline import DetectionResult, RunConfig, run_detection, write_candidates_tsv
from .simhash import Fingerprint, Fingerprints, HashConfig, hamming, hash_token
from .synth import SynthConfig, generate

__all__ = [
    "BlockPlan",
    "CandidatePair",
    "CandidatePairs",
    "ConfigError",
    "DetectionResult",
    "EvalReport",
    "FeatureMap",
    "FeatureToken",
    "Fingerprint",
    "Fingerprints",
    "GroundTruth",
    "HashConfig",
    "InputError",
    "InteractionGraph",
    "LshIndex",
    "MatchCluster",
    "MatchReport",
    "MessageLog",
    "MessageRecord",
    "MutualMatch",
    "RunConfig",
    "SweepGrid",
    "SynthConfig",
    "UnfingerprintableError",
    "brute_force_pairs",
    "build_feature_maps",
    "build_index",
    "build_interaction_graph",
    "build_match_report",
    "candidate_pairs",
    "cluster",
    "convert_telegram_export",
    "generate",
    "hamming",
    "hash_token",
    "mutual_matches",
    "pairwise_metrics",
    "parse_messages",
    "plan_blocks",
    "query",
    "read_edges_tsv",
    "read_truth",
    "run_detection",
    "sweep",
    "write_candidates_tsv",
    "write_edges_tsv",
    "write_truth",
]
