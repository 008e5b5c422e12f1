"""The benchmark's tracer (``benchmarks/tracing.py``) around an in-process
``sockdetect ingest`` and ``detect``: the counters it reports must still be
found where it looks for them."""

import importlib.util
import json
import random
from pathlib import Path

import sockdetect.cli as cli
import sockdetect.evaluate as evaluate
import sockdetect.pipeline as pipeline
from sockdetect.ingest import InteractionGraph, write_edges_tsv
from sockdetect.synth import SynthConfig, generate

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed_tracer(monkeypatch):
    tracing = _tracing_module()
    modules = {"cli": cli, "pipeline": pipeline, "evaluate": evaluate}
    for module, attr, _ in tracing.SPANS:
        # setting each attribute to itself makes monkeypatch restore it after
        # the tracer has wrapped it
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)
    return tracer


def test_tracer_counts_ingest_work(tmp_path, monkeypatch):
    tracer = _installed_tracer(monkeypatch)
    rng = random.Random(2)
    messages = [
        {"message_id": mid, "sender": rng.choice(["a", "b", "c", 7, "7", "d"])}
        | ({"reply_to": rng.randrange(1, 450)} if rng.random() < 0.7 else {})
        for mid in range(1, 400)
    ]
    author = {m["message_id"]: str(m["sender"]) for m in messages}
    edges, dropped = set(), 0
    for m in messages:
        if "reply_to" in m:
            target = author.get(m["reply_to"])
            if target is None or target == str(m["sender"]):
                dropped += 1
            else:
                edges.add((str(m["sender"]), target))
    log = tmp_path / "messages.jsonl"
    log.write_text("".join(json.dumps(m) + "\n" for m in messages))
    assert cli.main(["ingest", "--input", str(log), "--output-dir", str(tmp_path)]) == 0

    counts = tracer.counts()
    assert counts["ingest.messages"] == 399
    assert counts["ingest.edges"] == len(edges) > 0
    assert counts["ingest.replies_dropped"] == dropped > 0
    assert {"ingest.parse", "ingest.graph", "ingest.write_edges"} <= set(
        tracer.self_times()["cli.ingest"]
    )


def test_tracer_counts_retrieval_work(tmp_path, monkeypatch):
    tracer = _installed_tracer(monkeypatch)

    # a synth chat plus 12 users who reply only to one admin: a duplicate
    # class whose members each have 11 candidates
    background, _ = generate(SynthConfig(n=400, clones=8, seed=5))
    edges = dict(background.edges)
    edges.update({(f"lurker{i:02d}", "admin"): 1 + i % 3 for i in range(12)})
    graph = InteractionGraph(nodes={u for edge in edges for u in edge}, edges=edges)
    write_edges_tsv(graph, tmp_path / "edges.tsv")
    run = tmp_path / "run"
    assert cli.main(["detect", "--input", str(tmp_path / "edges.tsv"), "--output-dir", str(run)]) == 0

    counts = tracer.counts()
    stats = json.loads((run / "stats.json").read_text())
    rows = (run / "candidates.tsv").read_text().splitlines()[1:]
    assert counts["lsh.candidates"] == len(rows) > 0
    assert counts["lsh.pairs_verified"] == stats["pairs_verified"] > 0
    assert counts["lsh.bucket_memberships"] == stats["bucket_memberships"] > 0
    assert "lsh.candidate_pairs" in tracer.self_times()["cli.detect"]
    # the report is backed by arrays; its counters still equal report.json
    report = json.loads((run / "report.json").read_text())
    assert counts["detect.clusters"] == len(report["clusters"]) == stats["clusters"] > 0
    assert counts["detect.mutual"] == len(report["mutual"]) == stats["mutual_matches"] > 0
    entries = sum(len(cands) for cands in report["one_to_many"].values())
    assert counts["detect.one_to_many_entries"] == entries >= 12 * 11
    assert counts["simhash.largest_duplicate_class"] == stats["largest_duplicate_class"] >= 12
