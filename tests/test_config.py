"""Each config dataclass is the one home of its fields: the CLI flags and
the artifact echo agree with it, and the stages take a RunConfig instead of
restating its defaults."""

import inspect
from dataclasses import fields

import pytest

from sockdetect.cli import _from_args, build_parser
from sockdetect.errors import ConfigError
from sockdetect.evaluate import GroundTruth, SweepGrid, SweepRow, sweep
from sockdetect.features import build_feature_maps, check_feature_params
from sockdetect.ingest import InteractionGraph
from sockdetect.pipeline import RunConfig
from sockdetect.simhash import check_hash_params, fingerprint_population
from sockdetect.synth import SynthConfig

OFF_DEFAULT = RunConfig(
    bits=64, max_distance=9, theta=0.3, mode="sum", direction="both", weighting="binary", seed=5
)


def _parse(*argv):
    return build_parser().parse_args(list(argv))


def test_detect_flag_defaults_are_run_config_defaults():
    args = _parse("detect", "--input", "e.tsv", "--output-dir", "run")
    for f in fields(RunConfig):
        assert getattr(args, f.name) == f.default, f.name
    assert _from_args(RunConfig, args) == RunConfig()


def test_detect_flags_fill_their_fields():
    args = _parse(
        "detect", "--input", "e.tsv", "--output-dir", "run", "--bits", "64",
        "--max-distance", "9", "--threshold", "0.3", "--mode", "sum",
        "--direction", "both", "--weighting", "binary", "--seed", "5",
    )
    assert _from_args(RunConfig, args) == OFF_DEFAULT


def test_sweep_flag_defaults_are_one_point_lists():
    args = _parse("sweep", "--input", "e.tsv", "--truth", "t.txt", "--output-dir", "out")
    swept = [f.name for f in fields(SweepGrid)]
    assert set(swept) == {f.name for f in fields(RunConfig)} - {"seed"}
    for f in fields(RunConfig):
        expected = [f.default] if f.name in swept else f.default
        assert getattr(args, f.name) == expected, f.name
    assert _from_args(SweepGrid, args) == SweepGrid()


def test_sweep_rows_hold_their_grid_point_as_run_config_arguments():
    # the row restates no RunConfig field; its point is the config's
    # keyword arguments, in SweepGrid order, then the seed
    assert not {f.name for f in fields(SweepRow)} & {f.name for f in fields(RunConfig)}
    grid = SweepGrid(bits=[64], max_distance=[9, 64], theta=[0.3], mode=["sum"],
                     direction=["both"], weighting=["binary"])
    ok, failed = sweep(InteractionGraph(), GroundTruth([]), grid, seed=5)
    assert list(ok.point) == [f.name for f in fields(SweepGrid)] + ["seed"]
    assert RunConfig(**ok.point) == OFF_DEFAULT
    assert failed.point == {**ok.point, "max_distance": 64} and failed.status == "failed"


def test_synth_flag_defaults_are_synth_config_defaults():
    args = _parse("synth", "--output-dir", "out")
    for f in fields(SynthConfig):
        assert getattr(args, f.name) == f.default, f.name
    assert _from_args(SynthConfig, args) == SynthConfig()


@pytest.mark.parametrize("command, usage", [
    ("detect", "--input INPUT --output-dir OUTPUT_DIR [--bits BITS]"
     " [--max-distance MAX_DISTANCE] [--threshold THRESHOLD] [--mode {max,sum}]"
     " [--direction {out,in,both}] [--weighting {weighted,binary}] [--seed SEED]"),
    ("sweep", "--input INPUT --truth TRUTH --output-dir OUTPUT_DIR [--bits BITS]"
     " [--max-distance MAX_DISTANCE] [--threshold THRESHOLD] [--mode MODE]"
     " [--direction DIRECTION] [--weighting WEIGHTING] [--seed SEED]"),
    ("synth", "--output-dir OUTPUT_DIR [--nodes NODES] [--mean-degree MEAN_DEGREE]"
     " [--clones CLONES] [--perturbation PERTURBATION] [--weight-max WEIGHT_MAX]"
     " [--seed SEED]"),
])
def test_flag_names_and_choices(command, usage, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "400")  # one usage line
    with pytest.raises(SystemExit):
        _parse(command, "--help")
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"usage: sockdetect {command} [-h] {usage}"


def test_run_defaults_live_only_in_run_config():
    for stage in (build_feature_maps, fingerprint_population, check_feature_params, check_hash_params):
        params = inspect.signature(stage).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == [], stage.__name__
    # sweep reads its seed default from the dataclass instead of restating it
    assert "seed: int = RunConfig.seed," in inspect.getsource(sweep)


def test_header_line_and_to_dict_pinned():
    assert OFF_DEFAULT.header_line() == (
        "# b=64 d=9 theta=0.3 mode=sum direction=both weighting=binary seed=5"
    )
    assert list(OFF_DEFAULT.to_dict().items()) == [
        ("b", 64), ("d", 9), ("theta", 0.3), ("mode", "sum"),
        ("direction", "both"), ("weighting", "binary"), ("seed", 5),
    ]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_rule_has_one_home(seed):
    # the synth generator and the hash share one 64-bit seed check
    texts = []
    for build in (SynthConfig, RunConfig):
        with pytest.raises(ConfigError) as err:
            build(seed=seed)
        texts.append(str(err.value))
    assert texts == ["seed must fit in 64 unsigned bits"] * 2
