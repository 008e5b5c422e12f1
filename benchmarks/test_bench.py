"""Tests of the benchmark itself, on tiny corpora.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
from calibrate import NOMINAL_S  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "random-5k": {"n": 300, "clones": 6},
    "hub-90": {"background": 200, "clones": 2, "leaves": 12},
}


def tiny(workload: str) -> dict:
    return {**corpora.WORKLOADS[workload], **TINY[workload]}


def test_every_workload_is_defined_and_shrunk():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(corpora.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_and_prints_every_metric(workload, trace):
    lines: list[str] = []
    result = run.bench(workload, 3, 0.1, trace, tiny(workload), log=lines.append)
    assert result["correct"], lines
    # a traced run alternates plain and traced repetitions, so the traced
    # one's files are checked against the first
    assert result["failed"] == 0 and result["attempted"] >= (2 if trace else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"# {m['name']} [{m['unit']}]") for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("# provenance "))[13:])
    assert provenance["seed"] == 3 and provenance["nproc"] >= 1
    assert provenance["numpy"] and provenance["python"] and provenance["src_sha256"]


def test_times_are_scaled_by_each_repetitions_kernel_time():
    lines: list[str] = []
    result = run.bench("random-5k", 2, 0.1, False, tiny("random-5k"), log=lines.append)
    reps = [json.loads(l.split(" ", 3)[3]) for l in lines if l.startswith("# repetition ")]
    # one kernel before each of ingest, detect and sweep, and one after
    assert reps and all(len(r["kernel_s"]) == 4 for r in reps)
    scaled = [r["seconds"]["detect"] * NOMINAL_S / statistics.median(r["kernel_s"])
              for r in reps]
    assert result["metrics"]["detect_s"]["value"] == pytest.approx(statistics.median(scaled))


def test_kernel_keeps_the_programs_gc_settings():
    gc.disable()
    try:
        assert calibrate.kernel() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_same_seed_same_inputs(tmp_path):
    params = tiny("hub-90")
    for name, seed in [("a", 5), ("b", 5), ("c", 6)]:
        (tmp_path / name).mkdir()
        corpora.build_inputs(params, seed, tmp_path / name)
    read = lambda name: (tmp_path / name / "messages.jsonl").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def reference_outputs(tmp_path: Path) -> Path:
    params = tiny("random-5k")
    inputs = corpora.build_inputs(params, 1, tmp_path)
    repdir = tmp_path / "rep"
    rep = run.run_rep(run.chain(params, inputs, repdir / "out"), repdir, False, 60.0)
    assert rep.ok, rep.error
    return rep.outdir


def test_oracle_rejects_a_deleted_candidate_row(tmp_path):
    out = reference_outputs(tmp_path)
    assert run.oracle_mismatch(out) == ""
    path = out / "candidates.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 2, "the tiny corpus must yield candidate rows"
    path.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    assert "1 missing" in run.oracle_mismatch(out)


def test_a_rerun_with_different_files_counts_as_failed(monkeypatch):
    calls = iter(range(10**6))
    monkeypatch.setattr(run, "digest", lambda path: f"{path.name}-{next(calls) // 6}")
    lines: list[str] = []
    result = run.bench("hub-90", 1, 0.1, True, tiny("hub-90"), log=lines.append)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 2
    assert any("differs from the first repetition" in line for line in lines)


def test_sweep_digest_ignores_only_the_seconds_column(tmp_path):
    a = b"b,d,f1,seconds,error\n128,6,0.5,0.123,\n"
    b = b"b,d,f1,seconds,error\n128,6,0.5,0.456,\n"
    c = b"b,d,f1,seconds,error\n128,6,0.6,0.123,\n"
    digests = []
    for name, data in [("a", a), ("b", b), ("c", c)]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "sweep.csv").write_bytes(data)
        digests.append(run.digest(tmp_path / name / "sweep.csv"))
    assert digests[0] == digests[1] != digests[2]


def test_timeout_counts_as_failure_and_reaps_the_child(tmp_path):
    params = tiny("random-5k")
    inputs = corpora.build_inputs(params, 1, tmp_path)
    repdir = tmp_path / "rep"
    rep = run.run_rep(run.chain(params, inputs, repdir / "out"), repdir, False, 0.05)
    assert not rep.ok and "timed out" in rep.error
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "random-5k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
