"""The sockdetect benchmark: seeded corpora through the real CLI.

    python3 benchmarks/run.py --workload random-5k --seed 1 --seconds 60 --trace 0

One run builds the workload's inputs from the seed, then repeats, one fresh
child process at a time (a closed loop with a single client), the chain a
user runs: ``sockdetect ingest`` on the chat log, ``detect`` at the default
operating point and ``sweep`` over the workload's grid.  The first
repetition is also the reference: its candidates must equal the brute-force
pairs over its fingerprints, and every later repetition must write
byte-identical files.  A repetition that exits non-zero, times out or
writes different files counts as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the timed repetitions); with ``--trace 1`` untraced and
traced repetitions alternate and it holds the per-layer self times and work
counts.  Every time is scaled to the machine's usual speed: the child times
the fixed kernel of ``calibrate.py`` around its commands, and each of the
repetition's times is multiplied by ``calibrate.NOMINAL_S`` over the median
of those kernel times.  Lines before the result give each metric's sample
count and spread, scaled and as measured, the scales, the provenance of the
run and, when tracing, self times per command.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S
from tracing import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The detect operating point, pinned so a change of CLI defaults cannot
# silently change what is measured; the oracle check uses the same radius.
DETECT_FLAGS = ["--bits", "128", "--max-distance", "20", "--threshold", "0.5",
                "--mode", "max", "--direction", "out", "--weighting", "weighted"]
MAX_DISTANCE = 20
REP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0  # every run exits well within 180 s, timeouts included
OUTPUTS = ["edges.tsv", "candidates.tsv", "fingerprints.tsv", "features.tsv",
           "report.json", "sweep.csv"]

END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "detect_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
}
COUNTS = {
    "ingest.messages": "count", "ingest.edges": "count",
    "ingest.replies_dropped": "count",
    "features.tokens": "count", "features.empty_maps": "count",
    "simhash.distinct_fingerprints": "count",
    "simhash.largest_duplicate_class": "count",
    "lsh.pairs_verified": "count", "lsh.candidates": "count",
    "lsh.verify_yield": "ratio", "lsh.largest_bucket": "count",
    "lsh.bucket_memberships": "count",
    "detect.clusters": "count", "detect.mutual": "count",
    "detect.one_to_many_entries": "count",
    "evaluate.grid_points": "count",
}
# Layers `detect` and `sweep` both run; under `sweep` their self times are
# reported with a "sweep." prefix, so each per-layer time belongs to the
# command whose end-to-end time it moves.
SHARED_LAYERS = [
    "ingest.read_edges", "features.build", "simhash.fingerprint",
    "lsh.index_build", "lsh.candidate_pairs", "detect.report",
    "pipeline.run_detection",
]
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    **{f"sweep.{name}_s": "s" for name in SHARED_LAYERS},
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    **COUNTS,
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Rep:
    """One repetition: a child process running the CLI chain."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.error = ""
        self.seconds: dict[str, float] = {}
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.self_s: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.calibration_s: list[float] = []
        self.digests: dict[str, str] = {}

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def chain_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def scale(self) -> float:
        """Factor that turns this repetition's times into times at the
        machine's usual speed: the nominal kernel time over the median of the
        kernel times taken around its commands."""
        return NOMINAL_S / statistics.median(self.calibration_s)


def chain(params: dict, inputs: dict[str, Path], out: Path) -> list[list[str]]:
    edges = str(out / "edges.tsv")
    return [
        ["ingest", "--input", str(inputs["messages"]), "--output-dir", str(out)],
        ["detect", "--input", edges, "--output-dir", str(out), *DETECT_FLAGS],
        ["sweep", "--input", edges, "--truth", str(inputs["truth"]),
         "--output-dir", str(out), "--max-distance", params["max_distance"],
         "--threshold", params["threshold"]],
    ]


def run_rep(commands: list[list[str]], repdir: Path, trace: bool, timeout: float) -> Rep:
    """Run one child to completion or until ``timeout``, then reap it.

    Peak RSS comes from the rusage ``wait4`` returns for that child alone.
    """
    out = repdir / "out"
    out.mkdir(parents=True)
    rep = Rep(out)
    spec = {"commands": commands, "trace": trace, "result": str(repdir / "result.json")}
    (repdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(repdir / "stdout.txt"), write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(repdir / "stderr.txt"), write, 0o644),
    ]
    spawned = now()
    argv = [sys.executable, str(HERE / "child.py"), str(repdir / "spec.json"), repr(spawned)]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timed_out = reaped = False
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
            timed_out = True
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    rep.peak_rss_mb = usage.ru_maxrss / 1024.0
    code = os.waitstatus_to_exitcode(status)
    if timed_out:
        rep.error = f"timed out after {timeout:.0f} s"
        return rep
    if code != 0:
        stderr = (repdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        rep.error = f"child exited {code}: {stderr.strip()[-300:]}"
        return rep
    result = json.loads((repdir / "result.json").read_text(encoding="utf-8"))
    rep.setup_s = result["setup_s"]
    for name, cmd in result["commands"].items():
        if cmd["exit"] != 0:
            rep.error = f"sockdetect {name} exited {cmd['exit']}"
        rep.seconds[name] = cmd["seconds"]

    if len(rep.seconds) != len(commands):
        rep.error = rep.error or "chain stopped early"
    rep.self_s = result.get("self_s", {})
    rep.counts = result.get("counts", {})
    rep.calibration_s = result["calibration_s"]
    if rep.ok:
        try:
            rep.digests = {name: digest(out / name) for name in OUTPUTS}
        except FileNotFoundError as exc:
            rep.error = f"missing output {Path(exc.filename).name}"
    return rep


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "sweep.csv":
        data = drop_column(data, "seconds")
    return hashlib.sha256(data).hexdigest()


def drop_column(csv_bytes: bytes, column: str) -> bytes:
    """sweep.csv records each grid point's wall time; everything else in it
    must repeat exactly."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    drop = rows[0].index(column)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [cell for i, cell in enumerate(row) if i != drop] for row in rows
    )
    return buf.getvalue().encode("utf-8")


def oracle_mismatch(outdir: Path) -> str:
    """Empty when candidates.tsv holds exactly the brute-force pairs over
    fingerprints.tsv, else a description of the difference."""
    from sockdetect.lsh import brute_force_pairs
    from sockdetect.pipeline import read_candidates_tsv
    from sockdetect.simhash import read_fingerprints_tsv

    fingerprints, _ = read_fingerprints_tsv(outdir / "fingerprints.tsv")
    expected = brute_force_pairs(fingerprints, MAX_DISTANCE)
    got = read_candidates_tsv(outdir / "candidates.tsv")
    if got == expected:
        return ""
    return (
        f"candidates.tsv differs from brute_force_pairs: {len(expected - got)} missing,"
        f" {len(got - expected)} extra of {len(expected)}"
    )


def f1_score(outdir: Path, truth: Path) -> float:
    """Pairwise F1 of candidates.tsv against the planted truth."""
    from sockdetect.evaluate import pairwise_metrics, read_truth
    from sockdetect.pipeline import read_candidates_tsv

    return pairwise_metrics(read_candidates_tsv(outdir / "candidates.tsv"), read_truth(truth)).f1


def spread(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (none below 20 samples), the maximum and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "max": ordered[-1], "n": n}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        summary[f"p{pct}"] = ordered[min(n - 1, int(n * pct / 100))]
    return summary


def provenance(workload: str, seed: int, seconds: int, params: dict) -> dict:
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sockdetect").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "params": params,
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str | None:
    """HEAD's commit, or None when the sources are not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench(workload: str, seed: int, seconds: float, trace: bool, params: dict,
          log=print) -> dict:
    """Run one workload and return the result object printed last."""
    from corpora import build_inputs

    started = now()
    work = ROOT / ".benchwork" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps: list[Rep] = []

    def attempt(trace_rep: bool) -> Rep:
        repdir = work / f"rep{len(reps)}"
        remaining = RUN_BUDGET_S - (now() - started)
        rep = run_rep(chain(params, inputs, repdir / "out"), repdir, trace_rep,
                      max(1.0, min(REP_TIMEOUT_S, remaining)))
        if rep.ok and reps and rep.digests != reps[0].digests:
            differing = [k for k in OUTPUTS if rep.digests[k] != reps[0].digests.get(k)]
            rep.error = f"output differs from the first repetition: {', '.join(differing)}"
        reps.append(rep)
        if not rep.ok:
            log(f"# repetition {len(reps) - 1} failed: {rep.error}")
        elif len(reps) > 1:
            shutil.rmtree(repdir)
        return rep

    try:
        inputs = build_inputs(params, seed, work)
        # byte-compile now, so no repetition pays a one-off cost users don't
        compileall.compile_dir(str(SRC / "sockdetect"), quiet=1)
        f1 = 0.0
        step_s: list[float] = []
        while True:
            step_start = now()
            if trace:
                attempt(False)
            attempt(trace)
            step_s.append(now() - step_start)
            reference = reps[0]
            if len(step_s) == 1 and reference.ok:
                # the first repetition is also the reference; its checks run
                # between repetitions, outside every timed region
                reference.error = oracle_mismatch(reference.outdir)
                f1 = f1_score(reference.outdir, inputs["truth"])
                if reference.error:
                    log(f"# repetition 0 failed: {reference.error}")
                shutil.rmtree(reference.outdir.parent)
            if (sum(step_s) + statistics.median(step_s) > seconds
                    or now() - started + max(step_s) > RUN_BUDGET_S
                    or not all(r.ok for r in reps)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in reps if r.ok]
    # reported values; times are scaled per repetition (see Rep.scale), and
    # `measured` keeps them as read, for the log
    samples: dict[str, list[float]] = {}
    measured: dict[str, list[float]] = {}

    def add(name: str, value: float, scale: float | None = None) -> None:
        if scale is None:
            samples.setdefault(name, []).append(value)
        else:
            samples.setdefault(name, []).append(value * scale)
            measured.setdefault(name, []).append(value)

    if trace:
        traced = [r for r in timed if r.self_s]
        plain = [r for r in timed if not r.self_s]
        for r in traced:
            for command, per in r.self_s.items():
                for name, secs in per.items():
                    if command == "cli.sweep" and name in SHARED_LAYERS:
                        name = f"sweep.{name}"
                    add(f"{name}_s", secs, r.scale)
            add("trace.total_s", r.chain_s, r.scale)
        if traced and plain:
            samples["trace.overhead_s"] = [
                statistics.median(samples["trace.total_s"])
                - statistics.median(r.chain_s * r.scale for r in plain)
            ]
            measured["trace.overhead_s"] = [
                statistics.median(measured["trace.total_s"])
                - statistics.median(r.chain_s for r in plain)
            ]
        for name in COUNTS:
            if traced and name in traced[0].counts:
                add(name, traced[0].counts[name])
        units = PER_LAYER
    else:
        for r in timed:
            add("setup_s", r.setup_s, r.scale)
            add("ingest_s", r.seconds["ingest"], r.scale)
            add("detect_s", r.seconds["detect"], r.scale)
            add("sweep_s", r.seconds["sweep"], r.scale)
            add("peak_rss_mb", r.peak_rss_mb)
        if timed:
            add("f1", f1)
        units = END_TO_END

    for i, r in enumerate(reps):
        log(f"# repetition {i} " + json.dumps(
            {"traced": bool(r.self_s), "setup_s": r.setup_s, "seconds": r.seconds,
             "kernel_s": r.calibration_s, "peak_rss_mb": r.peak_rss_mb, "error": r.error}))
    log("# provenance " + json.dumps(provenance(workload, seed, seconds, params), sort_keys=True))
    if trace:
        for r in [r for r in timed if r.self_s][:1]:
            for command, per in r.self_s.items():
                cells = ", ".join(f"{k} {v:.4f}" for k, v in sorted(per.items(), key=lambda kv: -kv[1]))
                log(f"# self seconds under {command}: {cells}")
    if timed:
        log(f"# scale [1] nominal kernel {NOMINAL_S} s over each repetition's median kernel time "
            + json.dumps(spread([r.scale for r in timed])))
    metrics = {}
    for name, unit in units.items():
        if name not in samples:
            continue
        summary = spread(samples[name])
        as_read = f" measured {json.dumps(spread(measured[name]))}" if name in measured else ""
        log(f"# {name} [{unit}] {json.dumps(summary)}{as_read}")
        metrics[name] = {"value": summary["median"], "unit": unit}
    failed = sum(1 for r in reps if not r.ok)
    return {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sockdetect" / "__init__.py").is_file():
        print(f"error: no sockdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpora import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                   WORKLOADS[args.workload])
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
