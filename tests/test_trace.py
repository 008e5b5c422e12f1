"""The benchmark's tracer (``benchmarks/tracing.py``) around an in-process
``sockdetect detect``: the retrieval counters it reports must still be found
where it looks for them."""

import importlib.util
import json
from pathlib import Path

import sockdetect.cli as cli
import sockdetect.evaluate as evaluate
import sockdetect.pipeline as pipeline
from sockdetect.ingest import write_edges_tsv
from sockdetect.synth import SynthConfig, generate

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_retrieval_work(tmp_path, monkeypatch):
    tracing = _tracing_module()
    modules = {"cli": cli, "pipeline": pipeline, "evaluate": evaluate}
    for module, attr, _ in tracing.SPANS:
        # setting each attribute to itself makes monkeypatch restore it after
        # the tracer has wrapped it
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)

    graph, _ = generate(SynthConfig(n=400, clones=8, seed=5))
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
