"""RunConfig parsing, validation, and round-trip tests."""

import pytest

from svkit.config import RunConfig, dump_config, load_config
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
        "augment.noise_snr_db_range = 5,15\n"
        "schedule.lr_stage1 = 5e-3\n"
    )
    cfg = load_config(path, overrides=[("ecapa.embed_dim", "64")])
    assert cfg.seed == 42
    assert cfg.ecapa.channels == 64
    assert cfg.ecapa.embed_dim == 64
    assert cfg.ecapa.dilations == (3, 5, 7)
    assert cfg.augment.noise_snr_db_range == (5.0, 15.0)
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
                       ("upstream.smoothing", "3"), ("augment.kinds", "noise")):
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
    for value in ("nan,nan", "-inf,5", "0,inf", "nan,5"):
        with pytest.raises(ConfigError, match="augment.noise_snr_db_range must be finite"):
            load_config(overrides=[("augment.noise_snr_db_range", value)])
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
