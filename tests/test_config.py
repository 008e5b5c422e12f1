"""Each config dataclass is the one home of its fields: the CLI flags, the
stage-function defaults and the artifact echo all agree with it."""

import inspect
from dataclasses import fields

import pytest

from sockdetect.cli import _from_args, build_parser
from sockdetect.evaluate import SweepGrid
from sockdetect.features import build_feature_maps
from sockdetect.pipeline import RunConfig
from sockdetect.simhash import HashConfig
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


def test_stage_defaults_agree_with_run_config():
    # features and simhash sit below pipeline, so they repeat the defaults
    assert HashConfig() == RunConfig().hash_config
    params = inspect.signature(build_feature_maps).parameters
    for name in ("mode", "theta", "direction", "weighting"):
        assert params[name].default == getattr(RunConfig, name), name


def test_header_line_and_to_dict_pinned():
    assert OFF_DEFAULT.header_line() == (
        "# b=64 d=9 theta=0.3 mode=sum direction=both weighting=binary seed=5"
    )
    assert list(OFF_DEFAULT.to_dict().items()) == [
        ("b", 64), ("d", 9), ("theta", 0.3), ("mode", "sum"),
        ("direction", "both"), ("weighting", "binary"), ("seed", 5),
    ]
    assert OFF_DEFAULT.hash_config == HashConfig(b=64, seed=5)

