"""Pairwise precision/recall against (possibly partial) ground truth,
plus the parameter sweep."""

from __future__ import annotations

import itertools
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import InputError
from .lsh import CandidatePair, CandidatePairs
from .pipeline import RunConfig

if TYPE_CHECKING:
    from .ingest import InteractionGraph


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

    def positive_pairs(self) -> set[tuple[str, str]]:
        pairs: set[tuple[str, str]] = set()
        for members in self.clusters:
            ordered = sorted(members)
            for i, u in enumerate(ordered):
                for v in ordered[i + 1 :]:
                    pairs.add((u, v))
        return pairs


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


def pairwise_metrics(
    predicted: Iterable[CandidatePair], truth: GroundTruth
) -> EvalReport:
    """Score predicted pairs over unordered labeled pairs.

    Predictions touching unlabeled users are discarded before counting:
    with a partial oracle they are neither right nor wrong.  Truth ids are
    mapped to the pairs' rows once; each unordered pair counts once,
    whatever its distances.
    """
    pairs = CandidatePairs.of(predicted)
    n = len(pairs.users)
    label = {uid: k for k, members in enumerate(truth.clusters) for uid in members}
    cluster = np.array([label.get(uid, -1) for uid in pairs.users], dtype=np.int64)
    # sort and drop repeats rather than np.unique, whose first call on 1-D
    # input imports numpy.ma (about 15 ms)
    ends = np.sort(pairs.a * n + pairs.b)
    a, b = np.divmod(ends[np.diff(ends, prepend=-1) != 0], n)
    scored = (cluster[a] >= 0) & (cluster[b] >= 0)
    tp = int(np.count_nonzero(scored & (cluster[a] == cluster[b])))
    fp = int(np.count_nonzero(scored)) - tp
    fn = sum(len(m) * (len(m) - 1) // 2 for m in truth.clusters) - tp
    return EvalReport.from_counts(tp, fp, fn)


def read_truth(path: str | Path) -> GroundTruth:
    """One cluster per line, comma-separated user ids; blank lines skipped."""
    clusters: list[set[str]] = []
    with open(path, encoding="utf-8") as fh:
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
    # the grid point, in SweepGrid field order, then the seed: sweep.csv's
    # first seven columns
    bits: int
    max_distance: int
    theta: float
    direction: str
    mode: str
    weighting: str
    seed: int
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
    config = [str(getattr(r, f.name)) for f in fields(SweepRow)[:7]]
    return [*config, r.status, str(r.candidates), *metrics, f"{r.seconds:.3f}", r.error]


def sweep_rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_COLUMNS + "\n")
        for r in rows:
            fh.write(",".join(sweep_row_fields(r)) + "\n")


def sweep(
    graph: "InteractionGraph",
    truth: GroundTruth,
    grid: SweepGrid,
    seed: int = 0,
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

    rows: list[SweepRow] = []
    by_key: dict[tuple, list[tuple[SweepRow, RunConfig]]] = {}
    for point in itertools.product(*astuple(grid)):
        row = SweepRow(*point, seed=seed, status="ok")
        rows.append(row)
        try:
            cfg = RunConfig(**{f.name: getattr(row, f.name) for f in fields(RunConfig)})
        except ValueError as exc:
            row.status = "failed"
            row.error = str(exc)
            continue
        key = tuple(v for f, v in zip(fields(cfg), astuple(cfg)) if f.name != "max_distance")
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
        for row, _ in points:
            candidates = result.candidates.within(row.max_distance)
            row.candidates = len(candidates)
            row.report = pairwise_metrics(candidates, truth)
            now = time.perf_counter()
            row.seconds = now - started
            started = now
    return rows
