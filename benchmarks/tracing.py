"""Spans around calls into sockdetect's modules, recorded from outside them.

``install`` replaces public functions in the module namespaces that callers
look them up in (``cli`` for the command steps, ``pipeline`` for the stages
of ``run_detection``, ``evaluate`` for scoring), so the unmodified CLI runs
with a span around every layer boundary.  Spans stay in memory; ``summary``
turns them into per-layer self times and work counts once the run is over.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (module, attribute, span name); the span name is "<layer>.<step>".
SPANS = [
    ("cli", "cmd_ingest", "cli.ingest"),
    ("cli", "cmd_detect", "cli.detect"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "parse_messages_path", "ingest.parse"),
    ("cli", "build_interaction_graph", "ingest.graph"),
    ("cli", "write_edges_tsv", "ingest.write_edges"),
    ("cli", "read_edges_tsv", "ingest.read_edges"),
    ("cli", "run_detection", "pipeline.run_detection"),
    ("cli", "write_candidates_tsv", "pipeline.write_candidates"),
    ("cli", "write_features_tsv", "features.write_features"),
    ("cli", "write_fingerprints_tsv", "simhash.write_fingerprints"),
    ("cli", "sweep", "evaluate.sweep"),
    ("cli", "sweep_rows_to_csv", "evaluate.write_sweep"),
    # evaluate.sweep imports run_detection from pipeline at call time
    ("pipeline", "run_detection", "pipeline.run_detection"),
    ("pipeline", "build_feature_maps", "features.build"),
    ("pipeline", "fingerprint_population", "simhash.fingerprint"),
    ("pipeline", "build_index", "lsh.index_build"),
    ("pipeline", "candidate_pairs", "lsh.candidate_pairs"),
    ("pipeline", "build_match_report", "detect.report"),
    ("evaluate", "pairwise_metrics", "evaluate.metrics"),
]
SPAN_NAMES = sorted({name for _, _, name in SPANS})

# Work counts are taken from the `ingest` command and from the `detect`
# command's single run_detection; `sweep` repeats the same stages per grid
# point, so its counts would mix configurations.
COUNTED_IN = {
    "ingest.parse": "cli.ingest",
    "ingest.graph": "cli.ingest",
    "features.build": "cli.detect",
    "simhash.fingerprint": "cli.detect",
    "lsh.index_build": "cli.detect",
    "lsh.candidate_pairs": "cli.detect",
    "detect.report": "cli.detect",
    "evaluate.sweep": "cli.sweep",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        # (args, kwargs, result) of the calls whose work is counted
        self._kept: dict[str, tuple] = {}

    def install(self, modules: dict) -> None:
        for module_name, attr, name in SPANS:
            module = modules[module_name]
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            root = self.spans[self._stack[0]][0] if self._stack else name
            if COUNTED_IN.get(name) == root and name not in self._kept:
                self._kept[name] = (args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self seconds per (command, span name): a span's duration minus the
        time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_command: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            per = by_command.setdefault(self.spans[root][0], {})
            per[name] = per.get(name, 0.0) + (end - start) - child_time[i]
        return by_command

    def counts(self) -> dict[str, float]:
        kept = self._kept
        out: dict[str, float] = {}
        if "ingest.parse" in kept and "ingest.graph" in kept:
            records = kept["ingest.parse"][2]
            graph = kept["ingest.graph"][2]
            replies = sum(1 for r in records if r.reply_to is not None)
            out["ingest.messages"] = len(records)
            out["ingest.edges"] = graph.edge_count
            out["ingest.replies_dropped"] = replies - sum(graph.edges.values())
        if "features.build" in kept:
            fmaps = kept["features.build"][2]
            out["features.tokens"] = sum(len(m.entries) for m in fmaps.values())
            out["features.empty_maps"] = sum(1 for m in fmaps.values() if m.is_empty())
        if "simhash.fingerprint" in kept:
            fingerprints = kept["simhash.fingerprint"][2][0]
            classes = Counter(fp.bits for fp in fingerprints.values())
            out["simhash.distinct_fingerprints"] = len(classes)
            out["simhash.largest_duplicate_class"] = max(classes.values(), default=0)
        if "lsh.index_build" in kept:
            out["lsh.bucket_memberships"] = kept["lsh.index_build"][2].bucket_memberships()
        if "lsh.candidate_pairs" in kept:
            _, kwargs, pairs = kept["lsh.candidate_pairs"]
            stats = kwargs.get("stats") or {}
            out["lsh.pairs_verified"] = stats.get("pairs_verified", 0)
            out["lsh.largest_bucket"] = stats.get("largest_bucket", 0)
            out["lsh.candidates"] = len(pairs)
            out["lsh.verify_yield"] = len(pairs) / max(out["lsh.pairs_verified"], 1)
        if "detect.report" in kept:
            report = kept["detect.report"][2]
            out["detect.clusters"] = len(report.clusters)
            out["detect.mutual"] = len(report.mutual)
            out["detect.one_to_many_entries"] = sum(
                len(v) for v in report.one_to_many.values()
            )
        if "evaluate.sweep" in kept:
            out["evaluate.grid_points"] = len(kept["evaluate.sweep"][2])
        return out
