"""Per-user neighbor features: normalize, threshold, direction-tag.

Each user is described by the neighbors it interacts with.  Outgoing and
incoming edge weights are normalized independently per user, weak links are
dropped, and the survivors become direction-tagged feature tokens.

``build_feature_maps`` does this for the whole population at once, on the
graph's interned arrays (sorted node ids, int edge endpoints and weights):
each direction's edges become per-owner segments, and normalization is a
segment reduction over flat arrays.  Only the threshold and the weighting
depend on more than the (direction, mode) of a run, so the normalized rows,
their distinct tokens and a ``TokenVotes`` cache over those tokens are
built once per (direction, mode) and kept on the graph; each call applies
its threshold and weighting to them as a mask, into a ``FeatureMaps``.  The
per-user reference it must equal entry for entry is in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .ingest import InteractionGraph, stable_order, write_rows

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


@dataclass(eq=False)
class TokenVotes:
    """Sorted distinct token ids, and their ``[T, b]`` int8 vote rows per
    (seed, width), which ``fingerprint_population`` builds on first use and
    keeps in ``rows``."""

    tokens: np.ndarray
    rows: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


class FeatureMaps(Mapping[str, FeatureMap]):
    """Read-only ``owner -> FeatureMap`` mapping stored as flat arrays, one
    row per (owner, token); a FeatureMap is built only when looked up.

    ``owners`` and ``names`` are sorted, so index order is string order.
    Row r is the token (TOKEN_DIRECTIONS[token[r] // len(names)],
    names[token[r] % len(names)]) of owners[owner[r]], with weight
    weight[r].  Rows are in canonical order, by owner and then token, which
    is the order ``sorted`` gives FeatureTokens: "in" before "out", then
    neighbor.  Owner i's rows are ``indptr[i]:indptr[i+1]``.

    ``votes`` caches the vote rows of the tokens, and row r's token is
    ``votes.tokens[token_index[r]]``.  A table ``build_feature_maps`` returns
    shares the cache of its graph's (direction, mode); a table built
    directly gets one of its own on first use.
    """

    def __init__(
        self, owners: list[str], names: list[str],
        owner: np.ndarray, token: np.ndarray, weight: np.ndarray,
    ):
        self.owners, self.names = owners, names
        self.owner, self.token, self.weight = owner, token, weight
        self.indptr = np.searchsorted(owner, np.arange(len(owners) + 1))

    @cached_property
    def votes(self) -> TokenVotes:
        return TokenVotes(np.unique(self.token))

    @cached_property
    def token_index(self) -> np.ndarray:
        return np.searchsorted(self.votes.tokens, self.token)

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
    rows = _normalized(graph, cfg.direction, cfg.mode)
    keep = rows.weight >= cfg.theta
    weight = rows.weight[keep]
    if cfg.weighting == "binary":
        weight = np.ones_like(weight)
    table = FeatureMaps(rows.owners, rows.names, rows.owner[keep], rows.token[keep], weight)
    table.token_index, table.votes = rows.token_index[keep], rows.votes
    return table


def _normalized(graph: InteractionGraph, direction: str, mode: str) -> FeatureMaps:
    """The graph's rows for (direction, mode) at threshold 0, weighted, with
    their vote cache: built on first use and kept in ``graph.feature_rows``,
    read-only; a build that raises keeps nothing."""
    cached = graph.feature_rows.get((direction, mode))
    if cached is not None:
        return cached
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
             if direction in (name, "both")]
    owner = np.concatenate([o for _, o, _ in sides])
    token = np.concatenate([code * n + v for code, _, v in sides])
    order = stable_order(owner * 2 * n + token, 2 * n * n)  # the keys are distinct
    owner, token = owner[order], token[order]
    raw = np.tile(raw, len(sides))[order]
    # each (owner, direction) run is one slice to normalize
    starts = np.flatnonzero(np.diff(owner * 2 + token // max(n, 1), prepend=-1))
    reduce = np.maximum if mode == "max" else np.add
    denom = np.repeat(reduce.reduceat(raw, starts), np.diff(np.append(starts, len(raw))))
    # both operands are integers below 2**53, so each quotient is the
    # correctly rounded one Python's int / int gives
    weight = raw.astype(np.float64) / denom.astype(np.float64)
    rows = FeatureMaps(ids, ids, owner, token, weight)
    # the distinct tokens and each row's place among them, read off a table
    # of the 2n token codes (7x faster than np.unique on 43k rows, x86)
    seen = np.zeros(2 * n, dtype=bool)
    seen[token] = True
    tokens, rows.token_index = np.flatnonzero(seen), (np.cumsum(seen) - 1)[token]
    rows.votes = TokenVotes(tokens)
    for shared in (owner, token, weight, rows.token_index, tokens):
        shared.setflags(write=False)
    # concurrent first calls may each build the rows; all then use one copy
    return graph.feature_rows.setdefault((direction, mode), rows)


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
