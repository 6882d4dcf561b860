import pytest

from avrobust.config import (
    ExperimentConfig,
    SweepPlan,
    parse_config,
    serialize_config,
)
from avrobust.errors import ConfigFileError, ConfigurationError


MINIMAL = """
[paths]
workdir = /tmp/run
"""


def test_minimal_config_applies_defaults():
    config, defaults = parse_config(MINIMAL)
    assert config.paths.workdir == "/tmp/run"
    assert config.dataset.classes == 10
    assert config.attack.norm == "l2"
    assert any(line.startswith("dataset.classes") for line in defaults)
    assert not any(line.startswith("paths.workdir") for line in defaults)


def test_comments_and_blank_lines_ignored():
    text = """
# leading comment
[train]
epochs = 3   # trailing comment
"""
    config, _ = parse_config(text)
    assert config.train.epochs == 3


def test_unknown_key_reports_line():
    text = "[train]\nknobs = 7\n"
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config(text)


def test_unknown_section_reports_line():
    with pytest.raises(ConfigFileError, match="line 1"):
        parse_config("[nonsense]\n")


def test_key_outside_section():
    with pytest.raises(ConfigFileError, match="line 1"):
        parse_config("epochs = 3\n")


def test_negative_epsilon_reports_line():
    text = "[attack]\neps = -1\n"
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config(text)


def test_bad_value_type_reports_line():
    text = "[train]\nepochs = soon\n"
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config(text)


def test_mask_parsing():
    config, _ = parse_config("[attack]\nfreq_mask = 0:20\ntime_mask = none\n")
    assert config.attack.freq_mask == (0, 20)
    assert config.attack.time_mask is None


@pytest.mark.parametrize("key", ["freq_mask", "time_mask"])
@pytest.mark.parametrize("value", ["9:2", "-5:3", "4:4"])
def test_bad_mask_range_names_its_key(key, value):
    # the upper bound needs the feature geometry: Mask.validate checks it
    with pytest.raises(ConfigFileError, match=rf"line 2: bad value for attack\.{key}"):
        parse_config(f"[attack]\n{key} = {value}\n")
    lo, hi = (int(v) for v in value.split(":"))
    with pytest.raises(ConfigurationError, match=rf"attack\.{key}"):
        ExperimentConfig().with_overrides(attack={key: (lo, hi)})


def test_steps_auto_vs_explicit_zero():
    auto, _ = parse_config("[attack]\nsteps = auto\n")
    assert auto.attack.steps is None
    zero, _ = parse_config("[attack]\nsteps = 0\n")
    assert zero.attack.steps == 0


def test_parse_serialize_parse_fixed_point():
    text = """
[dataset]
classes = 4
train_clips = 20
[model]
fusion = late
conv_channels = 2,3
pool_time = 2,2
pool_freq = 2,2
[attack]
freq_mask = 0:20
steps = 15
[paths]
workdir = w
"""
    config, _ = parse_config(text)
    serialized = serialize_config(config)
    config2, defaults2 = parse_config(serialized)
    assert config2 == config
    assert defaults2 == []
    assert serialize_config(config2) == serialized


def test_with_overrides_functional_update():
    config = ExperimentConfig()
    updated = config.with_overrides(attack={"eps": 0.1}, model={"fusion": "late"})
    assert updated.attack.eps == 0.1
    assert updated.model.fusion == "late"
    assert config.attack.eps == 0.3     # original untouched


def test_with_overrides_runs_the_file_checks():
    with pytest.raises(ConfigurationError, match=r"attack\.alpha"):
        ExperimentConfig().with_overrides(attack={"alpha": 0})


def test_sweep_plan_rejects_duplicate_labels():
    with pytest.raises(ConfigFileError):
        SweepPlan(axis="eps", cells=[({"eps": 0.1}, {}), ({"eps": 0.1}, {})])


def test_sweep_plan_rejects_unknown_axis():
    with pytest.raises(ConfigFileError):
        SweepPlan(axis="bogus")
