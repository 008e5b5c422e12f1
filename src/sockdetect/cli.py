"""Command line pipeline: ingest, detect, eval, synth, sweep.

Stages communicate through files so each step can be rerun or swept without
repeating the ones before it.  Exit codes: 0 success, 1 input error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .errors import ConfigError, InputError
from .evaluate import (
    SweepGrid,
    SWEEP_COLUMNS,
    pairwise_metrics,
    read_truth,
    sweep,
    sweep_row_fields,
    sweep_rows_to_csv,
    write_truth,
)
from .features import DIRECTIONS, MODES, WEIGHTINGS, write_features_tsv
from .ingest import (
    build_interaction_graph,
    convert_telegram_export,
    parse_messages_path,
    read_edges_tsv,
    write_edges_tsv,
)
from .pipeline import (
    RunConfig,
    read_candidates_tsv,
    run_detection,
    write_candidates_tsv,
)
from .simhash import HashConfig, write_fingerprints_tsv
from .synth import SynthConfig, generate


def _add_run_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    parser.add_argument("--bits", type=int, default=defaults.bits, help="fingerprint width")
    parser.add_argument(
        "--max-distance", type=int, default=defaults.max_distance, help="Hamming radius"
    )
    parser.add_argument("--threshold", type=float, default=defaults.theta, help="weight cutoff")
    parser.add_argument("--mode", choices=MODES, default=defaults.mode)
    parser.add_argument("--direction", choices=DIRECTIONS, default=defaults.direction)
    parser.add_argument("--weighting", choices=WEIGHTINGS, default=defaults.weighting)
    parser.add_argument("--seed", type=int, default=defaults.seed)


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        bits=args.bits,
        max_distance=args.max_distance,
        theta=args.threshold,
        mode=args.mode,
        direction=args.direction,
        weighting=args.weighting,
        seed=args.seed,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_ingest(args: argparse.Namespace) -> int:
    dropped: Counter[str] = Counter()
    if args.telegram:
        with open(args.input, encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"export is not valid JSON: {exc.msg}")
        records = convert_telegram_export(document, dropped=dropped)
    else:
        records = parse_messages_path(args.input)
    if not records:
        print("warning: no messages parsed", file=sys.stderr)
    graph = build_interaction_graph(records, dropped=dropped)
    out = _out_dir(args)
    write_edges_tsv(graph, out / "edges.tsv")
    _write_json(out / "ingest.json", {
        "schema_version": 1,
        "messages": len(records),
        "users": graph.node_count,
        "edges": graph.edge_count,
        "dropped": {kind: dropped[kind] for kind in ("dangling", "self", "service")},
    })
    print(
        f"ingested {len(records)} messages: {graph.node_count} users,"
        f" {graph.edge_count} reply edges -> {out / 'edges.tsv'}"
    )
    print(
        f"dropped: {dropped['dangling']} replies to missing messages,"
        f" {dropped['self']} self-replies, {dropped['service']} service entries"
    )
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    graph = read_edges_tsv(args.input)
    result = run_detection(graph, cfg)

    for warning in result.stats["warnings"]:
        print(f"warning: {warning['message']}", file=sys.stderr)

    out = _out_dir(args)
    write_candidates_tsv(result.candidates, cfg, out / "candidates.tsv")
    result.report.write_json(out / "report.json", config=cfg.to_dict())
    write_features_tsv(
        result.feature_maps, out / "features.tsv", header_lines=[cfg.header_line()]
    )
    write_fingerprints_tsv(
        result.fingerprints, HashConfig(b=cfg.bits, seed=cfg.seed), out / "fingerprints.tsv"
    )
    _write_json(out / "stats.json", result.stats)

    secs = result.stats["seconds"]
    print(cfg.header_line())
    print(
        f"{result.stats['nodes']} users, {result.stats['edges']} edges,"
        f" {result.stats['fingerprinted']} fingerprinted"
        f" ({result.stats['unfingerprintable']} without features)"
    )
    print(
        f"{result.stats['candidates']} candidate pairs,"
        f" {result.stats['clusters']} clusters,"
        f" {result.stats['mutual_matches']} mutual matches"
    )
    print(
        f"timings: fingerprint {secs['fingerprint']:.3f}s,"
        f" candidate generation {secs['candidate_generation']:.3f}s"
        f" (index {secs['index_build']:.3f}s + pairs {secs['candidate_pairs']:.3f}s),"
        f" total {secs['total']:.3f}s"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    predicted = read_candidates_tsv(args.input)
    truth = read_truth(args.truth)
    report = pairwise_metrics(predicted, truth)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(
        f"precision {report.precision:.4f}  recall {report.recall:.4f}"
        f"  f1 {report.f1:.4f}  (tp={report.tp} fp={report.fp} fn={report.fn})",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        n=args.nodes,
        mean_out_degree=args.mean_degree,
        clones=args.clones,
        perturbation=args.perturbation,
        weight_max=args.weight_max,
        seed=args.seed,
    )
    graph, truth = generate(cfg)
    out = _out_dir(args)
    write_edges_tsv(graph, out / "edges.tsv")
    write_truth(truth, out / "truth.txt")
    _write_json(out / "manifest.json", cfg.to_dict())
    print(
        f"generated {graph.node_count} users, {graph.edge_count} edges,"
        f" {len(truth.clusters)} planted pairs -> {out}"
    )
    return 0


def _comma_list(convert):
    """An argparse ``type`` for a non-empty comma-separated list of ``convert`` values."""

    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}"
            )
        return values

    return parse


def cmd_sweep(args: argparse.Namespace) -> int:
    graph = read_edges_tsv(args.input)
    truth = read_truth(args.truth)
    grid = SweepGrid(
        bits=args.bits,
        max_distances=args.max_distance,
        thetas=args.threshold,
        directions=args.direction,
        modes=args.mode,
        weightings=args.weighting,
    )
    rows = sweep(graph, truth, grid, seed=args.seed)
    out = _out_dir(args)
    sweep_rows_to_csv(rows, out / "sweep.csv")

    print(SWEEP_COLUMNS.replace(",", "\t"))
    for r in rows:
        print("\t".join(sweep_row_fields(r)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sockdetect",
        description="Detect likely same-person account pairs from chat reply graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse messages and write the reply graph")
    p.add_argument("--input", required=True, help="message JSONL or Telegram export")
    p.add_argument("--telegram", action="store_true", help="input is a Telegram export")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", help="fingerprint users and retrieve near pairs")
    p.add_argument("--input", required=True, help="edge-list TSV")
    p.add_argument("--output-dir", required=True)
    _add_run_config_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score candidates against ground truth")
    p.add_argument("--input", required=True, help="candidates TSV")
    p.add_argument("--truth", required=True, help="truth clusters file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted clones")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--mean-degree", type=float, default=8.0)
    p.add_argument("--clones", type=int, default=0)
    p.add_argument("--perturbation", type=float, default=0.0)
    p.add_argument("--weight-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="grid-search parameters against ground truth")
    p.add_argument("--input", required=True, help="edge-list TSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--output-dir", required=True)
    grid = SweepGrid()
    for flag, values, convert, what in (
        ("--bits", grid.bits, int, "widths"),
        ("--max-distance", grid.max_distances, int, "radii"),
        ("--threshold", grid.thetas, float, "cutoffs"),
        ("--mode", grid.modes, str, "modes"),
        ("--direction", grid.directions, str, "directions"),
        ("--weighting", grid.weightings, str, "weightings"),
    ):
        p.add_argument(
            flag,
            type=_comma_list(convert),
            default=",".join(map(str, values)),
            help=f"comma-separated {what}",
        )
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
