"""Pairwise precision/recall against (possibly partial) ground truth,
plus the parameter sweep."""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .ingest import InteractionGraph, _padded, open_text
from .lsh import CandidatePairs
from .pipeline import RunConfig


@dataclass
class GroundTruth:
    """Disjoint clusters of user ids, each cluster one real person."""

    clusters: list[set[str]]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for members in self.clusters:
            if not members:
                raise InputError("empty truth cluster")
            overlap = seen & members
            if overlap:
                raise InputError(
                    f"overlapping truth clusters: {sorted(overlap)[0]!r}"
                    " appears in more than one cluster"
                )
            seen |= members


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        # vacuous conventions keep sweeps free of zero divisions
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


def pairwise_metrics(pairs: CandidatePairs, truth: GroundTruth) -> EvalReport:
    """Score predicted pairs over unordered labeled pairs.

    Predictions touching unlabeled users are discarded before counting:
    with a partial oracle they are neither right nor wrong.  Each unordered
    pair counts once, whatever its distances, and truth labels are looked
    up only for the users the distinct pairs touch.
    """
    n = len(pairs.users)
    # sort and drop repeats rather than np.unique, whose first call on 1-D
    # input imports numpy.ma (about 15 ms)
    ends = np.sort(pairs.a * n + pairs.b)
    a, b = np.divmod(ends[np.diff(ends, prepend=-1) != 0], n)
    paired = np.zeros(n, dtype=bool)
    paired[a] = paired[b] = True
    rows = np.flatnonzero(paired).tolist()
    label = {uid: k for k, members in enumerate(truth.clusters) for uid in members}
    cluster = np.full(n, -1, dtype=np.int64)
    cluster[rows] = [label.get(pairs.users[r], -1) for r in rows]
    scored = (cluster[a] >= 0) & (cluster[b] >= 0)
    tp = int(np.count_nonzero(scored & (cluster[a] == cluster[b])))
    fp = int(np.count_nonzero(scored)) - tp
    fn = sum(len(m) * (len(m) - 1) // 2 for m in truth.clusters) - tp
    return EvalReport.from_counts(tp, fp, fn)


def read_truth(path: str | Path) -> GroundTruth:
    """One cluster per line, comma-separated user ids; blank lines skipped."""
    clusters: list[set[str]] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            members = {part.strip() for part in line.split(",")}
            members.discard("")
            if not members:
                raise InputError(f"truth line {lineno}: no user ids")
            clusters.append(members)
    return GroundTruth(clusters=clusters)


def write_truth(truth: GroundTruth, path: str | Path) -> None:
    """One cluster per line, ids sorted; raises before writing on an id
    that ``read_truth`` would read back differently."""
    for uid in sorted(set().union(*truth.clusters)):
        if not uid or _padded(uid) or {",", "\n", "\r"} & set(uid):
            raise InputError(
                f"truth id {uid!r} must be non-empty, hold no comma or line break,"
                " and not begin or end with whitespace"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for members in sorted(truth.clusters, key=lambda m: sorted(m)):
            fh.write(",".join(sorted(members)) + "\n")


@dataclass
class SweepGrid:
    """A value list for each swept ``RunConfig`` field, by the field's name;
    the product is swept in this field order, which is also the column order
    of ``sweep.csv``."""

    bits: list[int] = field(default_factory=lambda: [RunConfig.bits])
    max_distance: list[int] = field(default_factory=lambda: [RunConfig.max_distance])
    theta: list[float] = field(default_factory=lambda: [RunConfig.theta])
    direction: list[str] = field(default_factory=lambda: [RunConfig.direction])
    mode: list[str] = field(default_factory=lambda: [RunConfig.mode])
    weighting: list[str] = field(default_factory=lambda: [RunConfig.weighting])


@dataclass
class SweepRow:
    # the grid point as RunConfig keyword arguments, in SweepGrid field order,
    # then the seed: sweep.csv's first seven columns
    point: dict
    status: str  # "ok" or "failed"
    error: str = ""
    candidates: int = 0
    report: EvalReport | None = None
    seconds: float = 0.0


SWEEP_COLUMNS = (
    "b,d,theta,direction,mode,weighting,seed,status,candidates,"
    "tp,fp,fn,precision,recall,f1,seconds,error"
)


def sweep_row_fields(r: SweepRow) -> list[str]:
    """One row's cells in ``SWEEP_COLUMNS`` order; metrics are empty for a
    failed grid point."""
    if r.report is not None:
        metrics = [
            str(r.report.tp), str(r.report.fp), str(r.report.fn),
            f"{r.report.precision:.6f}", f"{r.report.recall:.6f}", f"{r.report.f1:.6f}",
        ]
    else:
        metrics = [""] * 6
    config = map(str, r.point.values())
    return [*config, r.status, str(r.candidates), *metrics, f"{r.seconds:.3f}", r.error]


def sweep_rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """The header, then one CSV row per grid point: an error text's commas stay in one cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_COLUMNS + "\n")
        csv.writer(fh, lineterminator="\n").writerows(map(sweep_row_fields, rows))


def sweep(
    graph: InteractionGraph,
    truth: GroundTruth,
    grid: SweepGrid,
    seed: int = RunConfig.seed,
) -> list[SweepRow]:
    """Score every grid point against ``truth``; failures become rows.

    Retrieval is lossless, so the candidates at radius d are exactly the
    pairs at distance <= d of a run at any larger radius.  Detection
    therefore runs once per (bits, theta, direction, mode, weighting) key,
    at the largest valid radius of that key, and each row of the key scores
    that run's candidates filtered by its own radius.  A key's run time is
    counted in the ``seconds`` of its first row; every row adds its own
    filter-and-score time.  If the run fails, every row of its key fails
    with that error.  Rows come back in grid order regardless of individual
    outcomes.
    """
    # looked up at call time, so wrappers installed on pipeline functions apply
    from . import pipeline

    axes = asdict(grid)
    rows = [SweepRow(dict(zip(axes, values), seed=seed), status="ok")
            for values in itertools.product(*axes.values())]
    by_key: dict[tuple, list[tuple[SweepRow, RunConfig]]] = {}
    for row in rows:
        try:
            cfg = RunConfig(**row.point)
        except ValueError as exc:
            row.status = "failed"
            row.error = str(exc)
            continue
        key = tuple(v for name, v in row.point.items() if name != "max_distance")
        by_key.setdefault(key, []).append((row, cfg))

    for points in by_key.values():
        started = time.perf_counter()
        widest = max((cfg for _, cfg in points), key=lambda cfg: cfg.max_distance)
        try:
            result = pipeline.run_detection(graph, widest)
        except ValueError as exc:
            for row, _ in points:
                row.status = "failed"
                row.error = str(exc)
            continue
        for row, cfg in points:
            candidates = result.candidates.within(cfg.max_distance)
            row.candidates = len(candidates)
            row.report = pairwise_metrics(candidates, truth)
            now = time.perf_counter()
            row.seconds = now - started
            started = now
    return rows
