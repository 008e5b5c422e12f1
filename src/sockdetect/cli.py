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
from dataclasses import asdict, fields
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
    open_text,
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
from .simhash import write_fingerprints_tsv
from .synth import SynthConfig, generate


# Config fields whose flag is not --<field-name>, and the help of a flag as
# one value and as a comma-separated list (else none, and the field + "s").
_FLAG_NAMES = {"theta": "--threshold", "n": "--nodes", "mean_out_degree": "--mean-degree"}
_HELP = {
    "bits": ("fingerprint width", "widths"),
    "max_distance": ("Hamming radius", "radii"),
    "theta": ("weight cutoff", "cutoffs"),
}
_CHOICES = {"mode": MODES, "direction": DIRECTIONS, "weighting": WEIGHTINGS}


def _comma_list(convert, choices=None):
    """An argparse ``type`` for a non-empty comma-separated list of ``convert``
    values, each one of ``choices`` when given."""

    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}"
            )
        for value in values:
            if choices is not None and value not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {value!r} (choose from {', '.join(choices)})"
                )
        return values

    return parse


def _add_config_flags(
    parser: argparse.ArgumentParser, config: type, grid: SweepGrid | None = None
) -> None:
    """Add a flag for every field of the dataclass ``config``, stored under
    the field's name and defaulting to its default.  A field that ``grid``
    also has takes a comma-separated list instead, defaulting to the
    grid's values."""
    for f in fields(config):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        named = {"dest": f.name}
        if f.name in _FLAG_NAMES:  # help names the value after the flag, not the field
            named["metavar"] = flag[2:].upper().replace("-", "_")
        single, plural = _HELP.get(f.name, (None, f.name + "s"))
        if hasattr(grid, f.name):
            values = ",".join(map(str, getattr(grid, f.name)))
            # each element is checked against the choices, so usage and help
            # list none
            convert = _comma_list(type(f.default), _CHOICES.get(f.name))
            parser.add_argument(flag, type=convert, default=values,
                                help=f"comma-separated {plural}", **named)
        else:
            parser.add_argument(flag, type=type(f.default), default=f.default,
                                choices=_CHOICES.get(f.name), help=single, **named)


def _from_args(config: type, args: argparse.Namespace):
    """``config`` built from the flags ``_add_config_flags`` added for it."""
    return config(**{f.name: getattr(args, f.name) for f in fields(config)})


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_ingest(args: argparse.Namespace) -> int:
    dropped: Counter[str] = Counter()
    if args.telegram:
        with open_text(args.input) as fh:
            try:
                document = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"export is not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
            except UnicodeDecodeError:
                raise  # open_text names the file
            except (ValueError, RecursionError) as exc:  # too many digits, or too deep
                raise InputError(f"export is not valid JSON: {exc}") from exc
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
    cfg = _from_args(RunConfig, args)
    graph = read_edges_tsv(args.input)
    result = run_detection(graph, cfg)

    for warning in result.stats["warnings"]:
        print(f"warning: {warning['message']}", file=sys.stderr)

    out = _out_dir(args)
    write_candidates_tsv(result.candidates, cfg, out / "candidates.tsv")
    result.report.write_json(out / "report.json", config=cfg.to_dict())
    write_features_tsv(result.feature_maps, cfg, out / "features.tsv")
    write_fingerprints_tsv(result.fingerprints, cfg.seed, out / "fingerprints.tsv")
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
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    print(
        f"precision {report.precision:.4f}  recall {report.recall:.4f}"
        f"  f1 {report.f1:.4f}  (tp={report.tp} fp={report.fp} fn={report.fn})",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _from_args(SynthConfig, args)
    graph, truth = generate(cfg)
    out = _out_dir(args)
    write_edges_tsv(graph, out / "edges.tsv")
    write_truth(truth, out / "truth.txt")
    _write_json(out / "manifest.json", asdict(cfg))
    print(
        f"generated {graph.node_count} users, {graph.edge_count} edges,"
        f" {len(truth.clusters)} planted pairs -> {out}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    graph = read_edges_tsv(args.input)
    truth = read_truth(args.truth)
    rows = sweep(graph, truth, _from_args(SweepGrid, args), seed=args.seed)
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
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score candidates against ground truth")
    p.add_argument("--input", required=True, help="candidates TSV")
    p.add_argument("--truth", required=True, help="truth clusters file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted clones")
    p.add_argument("--output-dir", required=True)
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="grid-search parameters against ground truth")
    p.add_argument("--input", required=True, help="edge-list TSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--output-dir", required=True)
    _add_config_flags(p, RunConfig, grid=SweepGrid())
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
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
