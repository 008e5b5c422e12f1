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

import numpy as np

from .detect import MatchReport, build_match_report
from .errors import InputError
from .features import FeatureMaps, build_feature_maps, check_feature_params
from .ingest import InteractionGraph, check_id, open_text, read_rows, write_rows
from .lsh import CandidatePairs, bound, build_index, candidate_pairs, check_radius
from .simhash import SUPPORTED_WIDTHS, Fingerprints, check_hash_params, fingerprint_population


@dataclass(frozen=True)
class RunConfig:
    """The parameters of one run, checked when built; the stages read theirs
    from it, so these are the only defaults."""

    bits: int = 128
    max_distance: int = 20
    theta: float = 0.5
    mode: str = "max"
    direction: str = "out"
    weighting: str = "weighted"
    seed: int = 0

    def __post_init__(self) -> None:
        check_hash_params(self.bits, self.seed)
        check_radius(self.bits, self.max_distance)
        check_feature_params(self.mode, self.theta, self.direction, self.weighting)

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
    fmaps = build_feature_maps(graph, cfg)
    t1 = time.perf_counter()
    fingerprints, skipped = fingerprint_population(fmaps, cfg)
    t2 = time.perf_counter()
    index = build_index(fingerprints, cfg.max_distance)
    t3 = time.perf_counter()
    lsh_stats: dict = {}
    candidates = candidate_pairs(index, stats=lsh_stats)
    t4 = time.perf_counter()
    report = build_match_report(candidates)
    t5 = time.perf_counter()

    distinct = lsh_stats["distinct_fingerprints"]
    verified = lsh_stats["pairs_verified"]
    expected = round(index.plan.expected_verifications(distinct))
    # The cost rule plans for uniform fingerprint bits; synth and benchmark
    # corpora verify 0.9-1.1x the expectation.  Far more means that many
    # fingerprints agree on block bits and retrieval drifts toward all pairs.
    limit = 4 * expected + 1000
    warnings = [] if verified <= limit else [{
        "kind": "excess_verifications", "pairs_verified": verified, "limit": limit,
        "message": f"verified {verified} pairs, more than {limit} (4x the {expected}"
                   " expected for uniform bits, plus 1000); many fingerprints agree"
                   " on block bits, so retrieval drifts toward all pairs",
    }]
    stats = {
        "schema_version": 4,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "fingerprinted": len(fingerprints),
        "unfingerprintable": len(skipped),
        "distinct_fingerprints": distinct,
        "largest_duplicate_class": lsh_stats["largest_duplicate_class"],
        "tables": index.plan.m,
        "block_radii": index.plan.radii,
        "probes": lsh_stats["probes"],
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


def write_candidates_tsv(pairs: CandidatePairs, cfg: RunConfig, path: str | Path) -> None:
    """Write ``a<TAB>b<TAB>distance`` rows sorted by (distance, a, b) after a
    header line echoing the run configuration."""
    ids = [uid + "\t" for uid in pairs.users]
    distances = [f"{d}\n" for d in range(bound(pairs.distance))]
    write_rows(path, [cfg.header_line()], [(ids, pairs.a), (ids, pairs.b), (distances, pairs.distance)])


def read_candidates_tsv(path: str | Path) -> CandidatePairs:
    """The distinct pairs of a candidates TSV, each row's ids put in order;
    only line 1 may be a header, so later ids may begin with ``#``."""
    rows: set[tuple[str, str, int]] = set()
    with open_text(path) as fh:
        first = fh.readline()
        header = first.startswith("#")
        lines = fh if header else itertools.chain([first], fh)
        for lineno, (a, b, distance_s) in read_rows(lines, "candidates", 3, start=2 if header else 1):
            try:
                distance = int(distance_s)
            except ValueError:
                raise InputError(f"candidates line {lineno}: bad distance {distance_s!r}")
            if distance < 0:
                raise InputError(f"candidates line {lineno}: negative distance")
            if distance > max(SUPPORTED_WIDTHS):
                raise InputError(
                    f"candidates line {lineno}: distance {distance} exceeds"
                    f" {max(SUPPORTED_WIDTHS)}, the widest fingerprint"
                )
            check_id(a, "candidates", lineno)
            check_id(b, "candidates", lineno)
            if a == b:
                raise InputError(
                    f"candidates line {lineno}: pair endpoints must be ordered, got {a!r}, {b!r}"
                )
            rows.add((a, b, distance) if a < b else (b, a, distance))
    users = sorted({uid for row in rows for uid in row[:2]})
    index = dict(zip(users, range(len(users))))
    table = np.array([(index[a], index[b], d) for a, b, d in rows], dtype=np.int64).reshape(-1, 3)
    return CandidatePairs.canonical(users, *table.T)
