"""Per-user neighbor features: normalize, threshold, direction-tag.

Each user is described by the neighbors it interacts with.  Outgoing and
incoming edge weights are normalized independently per user, weak links are
dropped, and the survivors become direction-tagged feature tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ConfigError
from .ingest import InteractionGraph

MODES = ("max", "sum")
DIRECTIONS = ("out", "in", "both")


class FeatureToken(NamedTuple):
    direction: str  # "out" or "in"
    neighbor: str


@dataclass
class FeatureMap:
    """Weighted neighbor tokens describing one user; may be empty."""

    owner: str
    entries: dict[FeatureToken, float] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.entries


@dataclass
class DirectionalWeights:
    """Per-user normalized weights, one map per edge direction.

    ``out_weights[u][v]`` is the normalized weight of u's replies to v;
    ``in_weights[u][v]`` the normalized weight of v's replies to u.  Users
    with an empty slice are simply absent from that map.
    """

    out_weights: dict[str, dict[str, float]] = field(default_factory=dict)
    in_weights: dict[str, dict[str, float]] = field(default_factory=dict)


def check_feature_params(mode: str = "max", theta: float = 0.0, direction: str = "out") -> None:
    """Raise ConfigError for a parameter outside its domain; every default
    is valid, so a caller checks only what it passes."""
    if mode not in MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}; expected one of {MODES}")
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {theta}")
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")


def _normalize_slice(raw: dict[str, int], mode: str) -> dict[str, float]:
    if mode == "max":
        denom = max(raw.values())
    else:
        denom = sum(raw.values())
    return {v: w / denom for v, w in raw.items()}


def normalize_weights(graph: InteractionGraph, mode: str = "max") -> DirectionalWeights:
    """Normalize each user's out- and in-slices independently.

    mode="max" divides by the slice maximum (so each non-empty slice attains
    1.0); mode="sum" divides by the slice total (so each sums to 1.0).
    """
    check_feature_params(mode=mode)
    out = {
        u: _normalize_slice(slice_, mode)
        for u, slice_ in sorted(graph.out_adjacency().items())
    }
    in_ = {
        u: _normalize_slice(slice_, mode)
        for u, slice_ in sorted(graph.in_adjacency().items())
    }
    return DirectionalWeights(out_weights=out, in_weights=in_)


def filter_edges(weights: DirectionalWeights, theta: float) -> DirectionalWeights:
    """Keep only entries with normalized weight >= theta.

    Weights strictly below the threshold are dropped; users may end up with
    empty slices (they become unfingerprintable downstream).
    """
    check_feature_params(theta=theta)

    def _filter(side: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for u, slice_ in side.items():
            kept = {v: w for v, w in slice_.items() if w >= theta}
            if kept:
                out[u] = kept
        return out

    return DirectionalWeights(
        out_weights=_filter(weights.out_weights),
        in_weights=_filter(weights.in_weights),
    )


def extract_features(
    graph: InteractionGraph,
    weights: DirectionalWeights,
    direction: str = "out",
) -> dict[str, FeatureMap]:
    """Build a FeatureMap per graph node from filtered weights.

    direction="out" uses reply targets, "in" uses repliers, "both" the tagged
    union of the two (tokens carry the direction, so there is no collision).
    Every node appears in the result, possibly with an empty map.
    """
    check_feature_params(direction=direction)
    maps: dict[str, FeatureMap] = {}
    for user in sorted(graph.nodes):
        entries: dict[FeatureToken, float] = {}
        if direction in ("out", "both"):
            for v, w in weights.out_weights.get(user, {}).items():
                entries[FeatureToken("out", v)] = w
        if direction in ("in", "both"):
            for v, w in weights.in_weights.get(user, {}).items():
                entries[FeatureToken("in", v)] = w
        maps[user] = FeatureMap(owner=user, entries=entries)
    return maps


def build_feature_maps(
    graph: InteractionGraph,
    mode: str = "max",
    theta: float = 0.5,
    direction: str = "out",
) -> dict[str, FeatureMap]:
    """normalize -> filter -> extract, the standard preprocessing chain."""
    return extract_features(
        graph, filter_edges(normalize_weights(graph, mode), theta), direction
    )


def binarize(fmap: FeatureMap) -> FeatureMap:
    """Replace every weight with 1.0 (presence-only features)."""
    return FeatureMap(owner=fmap.owner, entries={t: 1.0 for t in fmap.entries})


def write_features_tsv(
    fmaps: dict[str, FeatureMap],
    path: str | Path,
    header_lines: Iterable[str] = (),
) -> None:
    """Write ``owner<TAB>direction<TAB>neighbor<TAB>weight`` rows,
    sorted by (owner, direction, neighbor)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        for owner in sorted(fmaps):
            entries = fmaps[owner].entries
            for token in sorted(entries):
                fh.write(
                    f"{owner}\t{token.direction}\t{token.neighbor}\t"
                    f"{entries[token]!r}\n"
                )
