"""End-to-end detection run: features -> fingerprints -> index -> report.

The default configuration is the operating point the whole artifact is
tuned around: 128-bit fingerprints, Hamming radius 20, weight threshold 0.5,
max-normalization over outgoing neighbors.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Iterable

from .detect import MatchReport, build_match_report
from .errors import InputError
from .features import FeatureMaps, build_feature_maps, check_feature_params
from .ingest import InteractionGraph
from .lsh import CandidatePair, CandidatePairs, bound, build_index, candidate_pairs, plan_blocks
from .simhash import Fingerprints, HashConfig, fingerprint_population


_WRITE_CHUNK = 1 << 18  # candidate rows joined per write


@dataclass(frozen=True)
class RunConfig:
    bits: int = 128
    max_distance: int = 20
    theta: float = 0.5
    mode: str = "max"
    direction: str = "out"
    weighting: str = "weighted"
    seed: int = 0

    def __post_init__(self) -> None:
        self.hash_config  # checks bits and seed
        plan_blocks(self.bits, self.max_distance)
        check_feature_params(self.mode, self.theta, self.direction, self.weighting)

    @property
    def hash_config(self) -> HashConfig:
        return HashConfig(b=self.bits, seed=self.seed)

    def to_dict(self) -> dict:
        """The fields in order, under the keys every artifact echoes."""
        keys = ("b", "d", "theta", "mode", "direction", "weighting", "seed")
        return dict(zip(keys, astuple(self)))

    def header_line(self) -> str:
        return "# " + " ".join(f"{key}={value}" for key, value in self.to_dict().items())


@dataclass
class DetectionResult:
    config: RunConfig
    candidates: CandidatePairs
    report: MatchReport
    fingerprints: Fingerprints
    unfingerprintable: list[str]
    feature_maps: FeatureMaps = field(repr=False)
    stats: dict = field(default_factory=dict)


def run_detection(graph: InteractionGraph, cfg: RunConfig) -> DetectionResult:
    """Run the full pipeline on an interaction graph.

    Timings for each stage land in ``result.stats``; the candidate
    generation time covers index construction plus pair retrieval, the part
    the blocking scheme is supposed to keep from growing quadratically.
    ``result.stats["warnings"]`` lists what made the run degrade, each as a
    dict with a ``kind`` and a printable ``message``.
    """
    t0 = time.perf_counter()
    fmaps = build_feature_maps(
        graph, mode=cfg.mode, theta=cfg.theta, direction=cfg.direction, weighting=cfg.weighting
    )
    t1 = time.perf_counter()
    fingerprints, skipped = fingerprint_population(fmaps, cfg.hash_config)
    t2 = time.perf_counter()
    index = build_index(fingerprints, cfg.max_distance)
    t3 = time.perf_counter()
    lsh_stats: dict = {}
    candidates = candidate_pairs(index, stats=lsh_stats)
    t4 = time.perf_counter()
    report = build_match_report(candidates)
    t5 = time.perf_counter()

    distinct = lsh_stats.get("distinct_fingerprints", 0)
    verified = lsh_stats.get("pairs_verified", 0)
    expected = round(index.plan.expected_verifications(distinct))
    # The cost rule plans for uniform fingerprint bits; synth and benchmark
    # corpora verify 0.7-1.35x the expectation.  Far more means that many
    # fingerprints agree on block bits and retrieval drifts toward all pairs.
    limit = 4 * expected + 1000
    warnings = [] if verified <= limit else [{
        "kind": "excess_verifications", "pairs_verified": verified, "limit": limit,
        "message": f"verified {verified} pairs, more than {limit} (4x the {expected}"
                   " expected for uniform bits, plus 1000); many fingerprints agree"
                   " on block bits, so retrieval drifts toward all pairs",
    }]
    stats = {
        "schema_version": 3,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "fingerprinted": len(fingerprints),
        "unfingerprintable": len(skipped),
        "distinct_fingerprints": distinct,
        "largest_duplicate_class": lsh_stats.get("largest_duplicate_class", 0),
        "tables": index.plan.m,
        "block_radius": index.plan.radius,
        "probes": distinct * index.plan.probes(),
        "bucket_memberships": index.bucket_memberships(),
        "expected_verifications": expected,
        "pairs_verified": verified,
        "candidates": len(candidates),
        "clusters": len(report.clusters),
        "mutual_matches": len(report.mutual),
        "warnings": warnings,
        "seconds": {
            "features": t1 - t0,
            "fingerprint": t2 - t1,
            "index_build": t3 - t2,
            "candidate_pairs": t4 - t3,
            "candidate_generation": t4 - t2,
            "report": t5 - t4,
            "total": t5 - t0,
        },
    }
    return DetectionResult(
        config=cfg,
        candidates=candidates,
        report=report,
        fingerprints=fingerprints,
        unfingerprintable=skipped,
        feature_maps=fmaps,
        stats=stats,
    )


def write_candidates_tsv(
    candidates: Iterable[CandidatePair], cfg: RunConfig, path: str | Path
) -> None:
    """Write ``a<TAB>b<TAB>distance`` rows sorted by (distance, a, b) after a
    header line echoing the run configuration, one join per chunk of rows."""
    pairs = CandidatePairs.of(candidates)
    left = [uid + "\t" for uid in pairs.users]
    right = [f"{d}\n" for d in range(bound(pairs.distance))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cfg.header_line() + "\n")
        for s in range(0, len(pairs), _WRITE_CHUNK):
            rows = slice(s, s + _WRITE_CHUNK)
            fh.write("".join(itertools.chain.from_iterable(zip(
                map(left.__getitem__, pairs.a[rows].tolist()),
                map(left.__getitem__, pairs.b[rows].tolist()),
                map(right.__getitem__, pairs.distance[rows].tolist())))))


def read_candidates_tsv(path: str | Path) -> set[CandidatePair]:
    pairs: set[CandidatePair] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(
                    f"candidates line {lineno}: expected 3 tab-separated fields"
                )
            a, b, distance_s = parts
            try:
                distance = int(distance_s)
            except ValueError:
                raise InputError(f"candidates line {lineno}: bad distance {distance_s!r}")
            if distance < 0:
                raise InputError(f"candidates line {lineno}: negative distance")
            try:
                pairs.add(CandidatePair.ordered(a, b, distance))
            except ValueError as exc:
                raise InputError(f"candidates line {lineno}: {exc}")
    return pairs
