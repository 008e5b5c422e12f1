"""Per-user neighbor features: normalize, threshold, direction-tag.

Each user is described by the neighbors it interacts with.  Outgoing and
incoming edge weights are normalized independently per user, weak links are
dropped, and the survivors become direction-tagged feature tokens.

``build_feature_maps`` does this for the whole population at once, on the
graph's interned arrays (sorted node ids, int edge endpoints and weights):
each direction's edges become per-owner segments, and normalization and the threshold are segment reductions and a
mask over flat arrays, which a ``FeatureMaps`` holds.  The per-user
reference it must equal entry for entry is in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .ingest import InteractionGraph, write_rows

if TYPE_CHECKING:
    from .pipeline import RunConfig

MODES = ("max", "sum")
DIRECTIONS = ("out", "in", "both")
WEIGHTINGS = ("weighted", "binary")
# token direction codes, in canonical token order: "in" sorts before "out"
TOKEN_DIRECTIONS = ("in", "out")


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


def check_feature_params(mode: str, theta: float, direction: str, weighting: str) -> None:
    """Raise ConfigError for a parameter outside its domain."""
    if mode not in MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}; expected one of {MODES}")
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {theta}")
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")


class FeatureMaps(Mapping[str, FeatureMap]):
    """Read-only ``owner -> FeatureMap`` mapping stored as flat arrays, one
    row per (owner, token); a FeatureMap is built only when looked up.

    ``owners`` and ``names`` are sorted, so index order is string order.
    Row r is the token (TOKEN_DIRECTIONS[token[r] // len(names)],
    names[token[r] % len(names)]) of owners[owner[r]], with weight
    weight[r].  Rows are in canonical order, by owner and then token, which
    is the order ``sorted`` gives FeatureTokens: "in" before "out", then
    neighbor.  Owner i's rows are ``indptr[i]:indptr[i+1]``.
    """

    def __init__(
        self, owners: list[str], names: list[str],
        owner: np.ndarray, token: np.ndarray, weight: np.ndarray,
    ):
        self.owners, self.names = owners, names
        self.owner, self.token, self.weight = owner, token, weight
        self.indptr = np.searchsorted(owner, np.arange(len(owners) + 1))

    def tokens(self, token_ids: np.ndarray) -> Iterator[FeatureToken]:
        """The FeatureToken of each token id."""
        directions, neighbors = np.divmod(token_ids, max(len(self.names), 1))
        for d, v in zip(directions.tolist(), neighbors.tolist()):
            yield FeatureToken(TOKEN_DIRECTIONS[d], self.names[v])

    def __getitem__(self, owner: str) -> FeatureMap:
        i = bisect_left(self.owners, owner)
        if i == len(self.owners) or self.owners[i] != owner:
            raise KeyError(owner)
        rows = slice(int(self.indptr[i]), int(self.indptr[i + 1]))
        return FeatureMap(owner, dict(zip(self.tokens(self.token[rows]), self.weight[rows].tolist())))

    def __iter__(self) -> Iterator[str]:
        return iter(self.owners)

    def __len__(self) -> int:
        return len(self.owners)


def build_feature_maps(graph: InteractionGraph, cfg: RunConfig) -> FeatureMaps:
    """Normalize, threshold and direction-tag every node's edges at once.

    Each user's out- and in-slices are normalized independently: mode="max"
    divides by the slice maximum, mode="sum" by the slice total.  Entries
    below ``cfg.theta`` are dropped; direction "out" keeps reply targets,
    "in" repliers, "both" the tagged union.  Every node gets a map, possibly
    empty; every weight is 1.0 when weighting is "binary".
    """
    ids, src, dst, raw = graph.ids, graph.src, graph.dst, graph.weight
    # the total is at most max * count, so only a graph near the limit pays
    # for the exact sum over Python ints
    if len(raw) and int(raw.max()) * len(raw) >= 2**53:
        total = sum(raw.tolist())
        if total >= 2**53:
            raise InputError(f"edge weights sum to {total}, beyond exact float64 range")
    n = len(ids)
    # one row per (owner, token): an edge u -> v is the token (out, v) of u
    # and the token (in, u) of v, each coded as direction * n + neighbor
    ends = {"in": (dst, src), "out": (src, dst)}
    sides = [(code, *ends[name]) for code, name in enumerate(TOKEN_DIRECTIONS)
             if cfg.direction in (name, "both")]
    owner = np.concatenate([o for _, o, _ in sides])
    token = np.concatenate([code * n + v for code, _, v in sides])
    order = np.argsort(owner * 2 * n + token)
    owner, token = owner[order], token[order]
    raw = np.tile(raw, len(sides))[order]
    # each (owner, direction) run is one slice to normalize
    starts = np.flatnonzero(np.diff(owner * 2 + token // max(n, 1), prepend=-1))
    reduce = np.maximum if cfg.mode == "max" else np.add
    denom = np.repeat(reduce.reduceat(raw, starts), np.diff(np.append(starts, len(raw))))
    # both operands are integers below 2**53, so each quotient is the
    # correctly rounded one Python's int / int gives
    weight = raw.astype(np.float64) / denom.astype(np.float64)
    keep = weight >= cfg.theta
    if cfg.weighting == "binary":
        weight = np.ones_like(weight)
    return FeatureMaps(ids, ids, owner[keep], token[keep], weight[keep])


def write_features_tsv(table: FeatureMaps, cfg: RunConfig, path: str | Path) -> None:
    """Write ``owner<TAB>direction<TAB>neighbor<TAB>weight`` rows, sorted by
    (owner, direction, neighbor), after a header line echoing the run
    configuration; each owner, token and distinct weight is formatted once."""
    values, weight = np.unique(table.weight, return_inverse=True)
    write_rows(path, [cfg.header_line()], [
        ([uid + "\t" for uid in table.owners], table.owner),
        ([f"{d}\t{v}\t" for d in TOKEN_DIRECTIONS for v in table.names], table.token),
        ([f"{w!r}\n" for w in values.tolist()], weight),
    ])
