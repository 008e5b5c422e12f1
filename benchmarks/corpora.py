"""Seeded input corpora for the benchmark workloads.

Every workload is built from its parameters and the run's seed alone, so the
same seed always yields byte-identical inputs.  The program under test only
ever sees the files written here: ``messages.jsonl`` (the chat log that
``sockdetect ingest`` reads) and ``truth.txt`` (the planted clusters that
``sockdetect sweep`` and the F1 check score against).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from sockdetect.evaluate import GroundTruth, write_truth
from sockdetect.ingest import InteractionGraph
from sockdetect.synth import SynthConfig, generate

# Each workload: graph builder parameters plus the `sweep` grid it runs.
# Sizes are chosen so that one repetition of ingest -> detect -> sweep takes
# a few seconds on a 2-core machine, leaving room for several repetitions per
# run.  The reasons for each shape are in BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "random-5k": {
        "shape": "synth", "n": 5000, "clones": 200, "perturbation": 0.1,
        "max_distance": "6,8,10", "threshold": "0.3,0.5",
    },
    "hub-90": {
        "shape": "hub", "background": 2000, "clones": 20, "perturbation": 0.1,
        "leaves": 90, "max_distance": "10", "threshold": "0.5",
    },
}

# Share of users that also send one reply ingest must drop: half to a message
# missing from the log (deleted upstream), half to their own message.
DROPPED_REPLY_SHARE = 0.01
ADMIN = "admin"


def synth_graph(params: dict, seed: int) -> tuple[InteractionGraph, GroundTruth]:
    return generate(
        SynthConfig(
            n=params["n"],
            clones=params["clones"],
            perturbation=params["perturbation"],
            seed=seed,
        )
    )


def hub_graph(params: dict, seed: int) -> tuple[InteractionGraph, GroundTruth]:
    """A synthetic chat plus one admin and reply-only lurkers.

    Every lurker replies only to the admin, so under out-direction features
    each has the single token (out, admin) and all of them share one
    fingerprint: a duplicate class of ``leaves`` users.  The class stays just
    under the index's pairwise-verification leaf size, but background users
    that agree with it on a block push each bucket holding it over that size,
    so retrieval re-partitions and re-verifies the class.  The admin answers a
    few background users, which gives the admin features of its own.
    """
    rng = random.Random(seed)
    background, truth = generate(
        SynthConfig(
            n=params["background"],
            clones=params["clones"],
            perturbation=params["perturbation"],
            seed=seed,
        )
    )
    nodes = set(background.nodes) | {ADMIN}
    edges = dict(background.edges)
    for uid in rng.sample(sorted(background.nodes), 20):
        edges[(ADMIN, uid)] = rng.randint(1, 3)
    leaves = [f"lurker{i:04d}" for i in range(params["leaves"])]
    for leaf in leaves:
        nodes.add(leaf)
        edges[(leaf, ADMIN)] = rng.randint(1, 3)
    return (
        InteractionGraph(nodes=nodes, edges=edges),
        GroundTruth(clusters=[*truth.clusters, set(leaves)]),
    )


BUILDERS = {"synth": synth_graph, "hub": hub_graph}


def render_messages(graph: InteractionGraph, seed: int, path: Path) -> None:
    """Write a chat log whose reply graph is exactly ``graph``.

    Each user posts one root message; an edge (u, v, w) becomes w replies by
    u to v's root.  A seeded share of users also sends one reply that ingest
    drops, so the log is not cleaner than a real export.
    """
    rng = random.Random(seed ^ 0x5EED)
    users = sorted(graph.nodes)
    root = {uid: i + 1 for i, uid in enumerate(users)}
    next_id = len(users) + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for uid in users:
            fh.write(json.dumps({"message_id": root[uid], "sender": uid}) + "\n")
        for (src, dst), weight in sorted(graph.edges.items()):
            for _ in range(weight):
                fh.write(json.dumps(
                    {"message_id": next_id, "sender": src, "reply_to": root[dst]}
                ) + "\n")
                next_id += 1
        missing = next_id + len(users) + 1  # never assigned to a message
        for uid in users:
            if rng.random() >= DROPPED_REPLY_SHARE:
                continue
            target = missing if rng.random() < 0.5 else root[uid]
            fh.write(json.dumps(
                {"message_id": next_id, "sender": uid, "reply_to": target}
            ) + "\n")
            next_id += 1


def build_inputs(params: dict, seed: int, workdir: Path) -> dict[str, Path]:
    """Write ``messages.jsonl`` and ``truth.txt`` for one workload and seed."""
    graph, truth = BUILDERS[params["shape"]](params, seed)
    paths = {"messages": workdir / "messages.jsonl", "truth": workdir / "truth.txt"}
    render_messages(graph, seed, paths["messages"])
    write_truth(truth, paths["truth"])
    return paths
