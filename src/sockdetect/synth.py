"""Synthetic interaction graphs with planted clone accounts.

Stands in for real chat corpora: a random reply graph plus ``clones`` users
whose neighborhoods copy an original's, optionally perturbed.  With
perturbation 0 a clone's feature map equals its original's under every
normalization mode and direction setting, so planted pairs are always
retrieved at distance 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError
from .evaluate import GroundTruth
from .ingest import InteractionGraph
from .simhash import check_seed


@dataclass(frozen=True)
class SynthConfig:
    n: int = 1000
    mean_out_degree: float = 8.0
    clones: int = 0
    perturbation: float = 0.0
    weight_max: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.mean_out_degree > 0:
            raise ConfigError("mean out-degree must be > 0")
        if not 0 <= self.clones <= self.n:
            raise ConfigError("clone count must lie in [0, n]")
        if not 0.0 <= self.perturbation <= 1.0:
            raise ConfigError("perturbation must lie in [0, 1]")
        if self.weight_max < 1:
            raise ConfigError("weight_max must be >= 1")
        check_seed(self.seed)


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's multiplication method; lam stays small here
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate(cfg: SynthConfig) -> tuple[InteractionGraph, GroundTruth]:
    """Build the random graph, plant clones, return graph plus truth.

    Fully reproducible from the seed: one sequential RNG stream drives every
    draw in a fixed order.
    """
    rng = random.Random(cfg.seed)
    n = cfg.n
    base = [str(i + 1) for i in range(n)]
    out_adj: dict[str, dict[str, int]] = {}
    in_adj: dict[str, dict[str, int]] = {}

    def add_edge(src: str, dst: str, weight: int) -> None:
        # parallel edges merge by summing reply counts
        row = out_adj.setdefault(src, {})
        row[dst] = row.get(dst, 0) + weight
        col = in_adj.setdefault(dst, {})
        col[src] = col.get(src, 0) + weight

    for i, user in enumerate(base):
        degree = min(_poisson(rng, cfg.mean_out_degree), n - 1)
        if degree == 0:
            continue
        # targets uniform without replacement, skipping self
        for pick in rng.sample(range(n - 1), degree):
            add_edge(user, base[pick if pick < i else pick + 1], rng.randint(1, cfg.weight_max))

    clone_sources = sorted(rng.sample(range(n), cfg.clones))
    truth_clusters: list[set[str]] = []

    def random_third(exclude: str) -> str:
        # uniform over base users other than the clone's original
        while True:
            candidate = base[rng.randrange(n)]
            if candidate != exclude:
                return candidate

    # Clones are planted sequentially, each copying its original's adjacency
    # in the graph built so far.  That keeps original and clone exact mirrors
    # at perturbation 0 even when one planted original neighbors another.
    for j, src_index in enumerate(clone_sources):
        original = base[src_index]
        clone = str(n + j + 1)
        for dst, w in list(out_adj.get(original, {}).items()):
            if cfg.perturbation > 0 and rng.random() < cfg.perturbation:
                dst = random_third(original)
            add_edge(clone, dst, w)
        for src, w in list(in_adj.get(original, {}).items()):
            if cfg.perturbation > 0 and rng.random() < cfg.perturbation:
                src = random_third(original)
            add_edge(src, clone, w)
        truth_clusters.append({original, clone})

    nodes = set(base) | {str(n + j + 1) for j in range(cfg.clones)}
    edges = {
        (src, dst): w
        for src, row in out_adj.items()
        for dst, w in row.items()
    }
    graph = InteractionGraph(nodes=nodes, edges=edges)
    return graph, GroundTruth(clusters=truth_clusters)
