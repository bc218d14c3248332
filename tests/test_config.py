"""RunConfig parsing, validation, and round-trip tests."""

from dataclasses import replace

import pytest

from svkit.cli import main
from svkit.config import PathSettings, RunConfig, dump_config, load_config
from svkit.ecapa import EcapaConfig
from svkit.errors import ConfigError


def test_defaults_carry_reference_recipe():
    cfg = RunConfig()
    assert cfg.aam.margin == 0.2
    assert cfg.schedule.lmft_margin == 0.5
    assert cfg.schedule.crop_seconds == 3.0
    assert cfg.schedule.lmft_crop_seconds == 6.0
    assert cfg.augment.probability == 0.6
    assert cfg.scoring.cohort_top_k == 600
    assert (cfg.schedule.stage1_epochs, cfg.schedule.stage2_epochs, cfg.schedule.lmft_epochs) == (10, 5, 2)
    assert cfg.fbank.n_mels == 40
    assert cfg.fbank.win_ms == 25.0
    assert cfg.fbank.hop_ms == 10.0


def test_load_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "seed = 42\n"
        "ecapa.channels = 64\n"
        "ecapa.se_bottleneck = 32\n"
        "ecapa.dilations = 3, 5,7\n"
        "schedule.lr_stage1 = 5e-3\n"
    )
    cfg = load_config(path, overrides=[("ecapa.embed_dim", "64")])
    assert cfg.seed == 42
    assert cfg.ecapa.channels == 64
    assert cfg.ecapa.embed_dim == 64
    assert cfg.ecapa.dilations == (3, 5, 7)
    assert cfg.schedule.lr_stage1 == 5e-3


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("fbank.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key: fbank.bogus"):
        load_config(path)
    path.write_text("nosection.x = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)
    path.write_text("toplevel = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    # settings that were removed stay rejected
    for key, value in (("scoring.calibration_trials", "100"), ("upstream.conv_strides", "5,4,4,4"),
                       ("upstream.smoothing", "3"), ("augment.kinds", "noise"),
                       ("augment.noise_snr_db_range", "0,20")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            load_config(path)


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("fbank.n_mels = many\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(path)
    path.write_text("fbank.n_mels = 0\n")
    with pytest.raises(ConfigError, match="n_mels"):
        load_config(path)
    path.write_text("ecapa.dilations = 2,x,4\n")
    with pytest.raises(ConfigError, match="expected comma-separated numbers"):
        load_config(path)
    path.write_text("augment.probability = 2.0\n")
    with pytest.raises(ConfigError, match="probability"):
        load_config(path)
    with pytest.raises(ConfigError, match="schedule.lmft_margin"):
        load_config(overrides=[("schedule.lmft_margin", "2.0")])
    for key, value in (("lr_stage1", "nan"), ("lr_stage2", "-1.0"), ("lr_lmft", "0.0"), ("lr_stage1", "inf")):
        path.write_text(f"schedule.{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"schedule.{key} must be finite and > 0"):
            load_config(path)
    with pytest.raises(ConfigError, match="schedule.lr_stage1"):
        load_config(overrides=[("schedule.lr_stage1", "nan")])
    # ECAPA sizes that cannot build a network: zero widths, and dilations whose taps all read one frame
    for key, value, message in (("channels", "0", "ecapa.channels must be >= 1, got 0"),
                                ("res2_scale", "0", "ecapa.res2_scale must be >= 1, got 0"),
                                ("dilations", "0,3,4", r"each >= 1, got \(0, 3, 4\)"),
                                ("dilations", "2,-1,4", r"each >= 1, got \(2, -1, 4\)")):
        with pytest.raises(ConfigError, match=message):
            load_config(overrides=[(f"ecapa.{key}", value)])
    with pytest.raises(ConfigError, match="ecapa.res2_scale must be >= 1"):
        EcapaConfig(res2_scale=0)  # refused before the divisibility rule divides by it
    for key in ("crop_seconds", "lmft_crop_seconds"):
        for value in ("nan", "inf", "0.0", "-3.0"):
            with pytest.raises(ConfigError, match=f"schedule.{key} must be finite and > 0"):
                load_config(overrides=[(f"schedule.{key}", value)])


def test_roundtrip_identity(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(
        "seed = 7\necapa.channels = 128\nschedule.batch_size = 4\n"
        "plant.layer = 3\nplant.strength = 4.0\npaths.noise_dir = /tmp/noise\n"
    )
    cfg = load_config(path)
    dumped = tmp_path / "dumped.cfg"
    dumped.write_text(dump_config(cfg))
    cfg2 = load_config(dumped)
    assert cfg == cfg2
    assert dump_config(cfg) == dump_config(cfg2)


def test_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'section.key = value'"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_directory_as_config_is_a_config_error_naming_it(tmp_path):
    with pytest.raises(ConfigError, match="not found or unreadable") as info:
        load_config(tmp_path)
    assert str(info.value).startswith(f"{tmp_path}: ")


def test_comments_blank_lines_and_values_holding_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "\n"
        "   # ecapa.channels = 999\n"
        "paths.noise_dir = /a=b\n"
        "\n  \t\n"
        "\t#paths.rir_dir=/x\n"
        "seed = 5\n"
    )
    cfg = load_config(path)
    assert cfg == replace(RunConfig(), seed=5, paths=PathSettings(noise_dir="/a=b"))
    # blank lines still count toward the line number an error names
    path.write_text("\n\nseed = x\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:3: seed: expected an integer, got 'x'"


def test_roundtrip_of_paths_holding_equals_and_hash(tmp_path):
    cfg = replace(RunConfig(), paths=PathSettings(noise_dir="/data/a=b", rir_dir="/data/#rirs=2"))
    path = tmp_path / "dumped.cfg"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize("key", ["paths.noise_dir", "paths.rir_dir"])
@pytest.mark.parametrize("brk", ["\n", "\x85"])
def test_a_text_setting_refuses_a_line_break(capsys, key, brk):
    # the dump of such a value would read back as two lines, the second setting `seed`
    value = f"a{brk}seed = 7"
    message = f"{key}: expected one line of text, got {value!r}"
    with pytest.raises(ConfigError) as info:
        load_config(overrides=[(key, value)])
    assert str(info.value) == message
    assert main(["--set", f"{key}={value}", "eval", "--scores", "s.txt", "--trials", "t.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    # a break at either end is stripped with the rest of the surrounding space
    assert getattr(load_config(overrides=[(key, f"{brk}a b{brk}")]).paths, key[6:]) == "a b"


CONFIG_REFUSALS = [
    ("schedule.lr_stage1", "abc", "schedule.lr_stage1: expected a number, got 'abc'"),
    # the count is checked against the default's before the section's own check unpacks the tuple
    ("ecapa.dilations", "1", "ecapa.dilations: expected comma-separated numbers (3 values), got '1'"),
    ("scoring.cohort_top_k", "0", "scoring.cohort_top_k must be >= 1"),
]


@pytest.mark.parametrize("key, value, message", CONFIG_REFUSALS)
def test_refusal_message_from_an_override_and_a_file(tmp_path, key, value, message):
    with pytest.raises(ConfigError) as info:
        load_config(overrides=[(key, value)])
    assert str(info.value) == message
    path = tmp_path / "bad.cfg"
    path.write_text(f"seed = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: {message}"


def every_key_refusal():
    """(key, value, message): a value that does not parse for every numeric setting, one too few and one too many
    for every tuple setting. The `paths.*` settings take any one line of text."""
    cases = []
    for line in dump_config(RunConfig()).splitlines():
        key, default = line.split(" = ")
        if key.startswith("paths."):
            continue
        if "," in default:
            parts = default.split(",")
            expected = f"comma-separated numbers ({len(parts)} values)"
            values = ["abc", ",".join(parts[:-1]), ",".join(parts + parts[-1:])]
        else:
            expected, values = "a number" if "." in default else "an integer", ["abc"]
        cases += [(key, value, f"{key}: expected {expected}, got {value!r}") for value in values]
    return cases


@pytest.mark.parametrize("key, value, message", every_key_refusal())
def test_every_key_names_itself_in_a_parse_refusal(tmp_path, capsys, key, value, message):
    with pytest.raises(ConfigError) as info:
        load_config(overrides=[(key, value)])
    assert str(info.value) == message
    path = tmp_path / "bad.cfg"
    path.write_text(f"seed = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: {message}"
    assert main(["--set", f"{key}={value}", "eval", "--scores", "s.txt", "--trials", "t.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
