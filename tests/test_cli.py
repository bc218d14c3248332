"""Command-line surface tests: one full pipeline walk plus error-code contracts."""

import struct

import numpy as np
import pytest

from svkit.cli import main
from svkit.errors import ConfigError, DataError, FormatError, ToolkitError

TINY_CFG = """
seed = 13
upstream.n_layers = 3
upstream.dim = 12
upstream.seed = 2
ecapa.in_dim = 12
ecapa.channels = 16
ecapa.se_bottleneck = 8
ecapa.attention_channels = 8
ecapa.embed_dim = 12
schedule.stage1_epochs = 1
schedule.stage2_epochs = 0
schedule.lmft_epochs = 0
schedule.crop_seconds = 1.0
schedule.batch_size = 8
plant.layer = 1
plant.strength = 3.0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    return root, str(cfg)


def run_ok(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = captured.out.strip().splitlines()[-1]
    assert out.startswith("status=ok")
    return dict(kv.split("=", 1) for kv in out.split()[1:])


def test_full_pipeline(workspace, capsys):
    root, cfg = workspace
    data = root / "data"
    summary = run_ok(capsys, ["--config", cfg, "synth-data", "--out-dir", str(data),
                              "--speakers", "4", "--utts", "5", "--seconds", "1"])
    assert summary["wavs"] == "20"
    assert summary["speakers"] == "4"

    wav0 = next((data / "wav").glob("*.wav"))
    summary = run_ok(capsys, ["--config", cfg, "fbank", "--wav", str(wav0),
                              "--out", str(root / "f.npy")])
    assert summary["frames"] == "98" and summary["dim"] == "40"
    assert np.load(root / "f.npy").shape == (98, 40)

    summary = run_ok(capsys, ["--config", cfg, "upstream-export", "--wav", str(wav0),
                              "--out", str(root / "one.svhs")])
    assert summary["layers"] == "4" and summary["dim"] == "12"

    run_dir = root / "run"
    summary = run_ok(capsys, ["--config", cfg, "train",
                              "--manifest", str(data / "train.tsv"), "--out-dir", str(run_dir)])
    assert summary["epochs"] == "1" and summary["speakers"] == "4"
    assert (run_dir / "checkpoint.svck").is_file()
    log = (run_dir / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,stage,loss,lr"
    assert log[1].startswith("1,1,")

    ckpt = str(run_dir / "checkpoint.svck")
    run_ok(capsys, ["--config", cfg, "embed", "--checkpoint", ckpt,
                    "--manifest", str(data / "train.tsv"), "--out", str(root / "train.sveb")])
    summary = run_ok(capsys, ["--config", cfg, "embed", "--checkpoint", ckpt,
                              "--manifest", str(data / "heldout.tsv"), "--out", str(root / "held.sveb")])
    assert summary["count"] == "8"

    summary = run_ok(capsys, ["--config", cfg, "score", "--trials", str(data / "trials.txt"),
                              "--embeddings", str(root / "held.sveb"), "--out", str(root / "scores.txt")])
    n_trials = int(summary["trials"])
    assert n_trials == 8

    summary = run_ok(capsys, ["--config", cfg, "snorm", "--scores", str(root / "scores.txt"),
                              "--trials", str(data / "trials.txt"),
                              "--embeddings", str(root / "held.sveb"),
                              "--cohort-embeddings", str(root / "train.sveb"),
                              "--cohort-manifest", str(data / "train.tsv"),
                              "--out", str(root / "snorm.txt")])
    assert summary["cohort"] == "4"

    run_ok(capsys, ["--config", cfg, "calibrate", "--scores", str(root / "snorm.txt"),
                    "--trials", str(data / "trials.txt"),
                    "--manifest", str(data / "manifest.tsv"),
                    "--model-out", str(root / "cal.txt"),
                    "--apply-scores", str(root / "snorm.txt"),
                    "--apply-trials", str(data / "trials.txt"),
                    "--out", str(root / "cal_scores.txt")])

    summary = run_ok(capsys, ["--config", cfg, "ensemble",
                              "--scores", str(root / "scores.txt"),
                              "--scores", str(root / "cal_scores.txt"),
                              "--trials", str(data / "trials.txt"),
                              "--out", str(root / "fused.txt")])
    assert summary["systems"] == "2"

    summary = run_ok(capsys, ["--config", cfg, "eval", "--scores", str(root / "fused.txt"),
                              "--trials", str(data / "trials.txt")])
    assert 0.0 <= float(summary["eer"]) <= 1.0

    summary = run_ok(capsys, ["--config", cfg, "export-weights", "--checkpoint", ckpt,
                              "--out", str(root / "weights.csv")])
    assert summary["rows"] == "4"
    lines = (root / "weights.csv").read_text().splitlines()
    assert lines[0] == "layer,weight" and len(lines) == 5


def test_upstream_export_manifest_and_import_training(workspace, capsys, tmp_path):
    root, cfg = workspace
    data = root / "data"
    stacks = tmp_path / "stacks"
    summary = run_ok(capsys, ["--config", cfg, "upstream-export",
                              "--manifest", str(data / "train.tsv"), "--out-dir", str(stacks)])
    assert summary["stacks"] == "12"
    assert len(list(stacks.glob("*.svhs"))) == 12

    run_dir = tmp_path / "import_run"
    summary = run_ok(capsys, ["--config", cfg, "--set", "schedule.stage2_epochs=1",
                              "--set", "plant.layer=-1",
                              "train",
                              "--manifest", str(stacks / "manifest.tsv"),
                              "--out-dir", str(run_dir)])
    assert summary["epochs"] == "2"
    from svkit.ecapa import load_checkpoint

    tensors = load_checkpoint(run_dir / "checkpoint.svck")
    assert not any(k.startswith("upstream.") for k in tensors)  # imported stacks stay frozen


def test_export_weights_uniform_after_zero_training(workspace, capsys, tmp_path):
    root, cfg = workspace
    data = root / "data"
    run_dir = tmp_path / "zero_run"
    run_ok(capsys, ["--config", cfg, "--set", "schedule.stage1_epochs=0",
                    "--set", "upstream.n_layers=12",
                    "--set", "upstream.dim=64", "--set", "ecapa.in_dim=64",
                    "--set", "ecapa.channels=64", "--set", "ecapa.se_bottleneck=32",
                    "--set", "ecapa.attention_channels=32", "--set", "ecapa.embed_dim=64",
                    "train", "--manifest", str(data / "train.tsv"), "--out-dir", str(run_dir)])
    run_ok(capsys, ["export-weights", "--checkpoint", str(run_dir / "checkpoint.svck"),
                    "--out", str(tmp_path / "w.csv")])
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert len(lines) == 14  # header + 13 layers
    assert all(line.endswith(",0.076923") for line in lines[1:])


def test_eval_perfect_separation_fixture(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text("1 a b\n1 c d\n0 e f\n0 g h\n")
    scores.write_text("a b 0.900000\nc d 0.800000\ne f 0.100000\ng h 0.200000\n")
    summary = run_ok(capsys, ["eval", "--scores", str(scores), "--trials", str(trials)])
    assert summary["eer"] == "0.000000"


def test_exit_code_2_on_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("fbank.bogus = 1\n")
    code = main(["--config", str(bad), "eval", "--scores", "x", "--trials", "y"])
    assert code == 2
    assert "fbank.bogus" in capsys.readouterr().err
    # a bad fine-tuning margin stops before any training stage runs
    code = main(["--set", "schedule.lmft_margin=2.0", "train", "--manifest", "m.tsv",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "schedule.lmft_margin" in capsys.readouterr().err
    # invalid UTF-8 in the config file is a config error, not a decode traceback
    bad.write_bytes(b"seed = \xff\n")
    code = main(["--config", str(bad), "eval", "--scores", "x", "--trials", "y"])
    assert code == 2
    assert "not valid UTF-8" in capsys.readouterr().err
    # a planted offset must be finite and non-negative
    code = main(["--set", "plant.layer=1", "--set", "plant.strength=nan", "train",
                 "--manifest", "m.tsv", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "plant.strength" in capsys.readouterr().err
    # a non-finite SNR range stops at config load, not at the first noise draw
    code = main(["--set", "augment.noise_snr_db_range=nan,nan", "train",
                 "--manifest", "m.tsv", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "augment.noise_snr_db_range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["--set", "fbank.hop_ms=0.01", "fbank", "--wav", "w.wav", "--out", "f.npy"], "fbank.hop_ms"),
    (["--set", "fbank.win_ms=inf", "fbank", "--wav", "w.wav", "--out", "f.npy"], "fbank.win_ms"),
    (["--set", "fbank.fft_size=512", "fbank", "--wav", "w.wav", "--out", "f.npy"], "unknown config key"),
    (["synth-data", "--out-dir", "d", "--seconds", "nan"], "finite"),
    (["synth-data", "--out-dir", "d", "--seconds", "inf"], "finite"),
])
def test_exit_code_2_on_unusable_setting(tmp_path, capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert expected in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ensemble_weights_must_parse_and_be_finite(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text("1 a b\n0 c d\n")
    scores.write_text("a b 0.900000\nc d 0.100000\n")
    argv = ["ensemble", "--scores", str(scores), "--scores", str(scores), "--trials", str(trials),
            "--out", str(tmp_path / "fused.txt")]
    assert main(argv + ["--weights", "1,x"]) == 2
    assert "--weights expects comma-separated numbers" in capsys.readouterr().err
    assert main(argv + ["--weights", "nan,1"]) == 4
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "fused.txt").exists()
    run_ok(capsys, argv + ["--weights", "3,1"])
    assert (tmp_path / "fused.txt").read_text() == scores.read_text()


def test_exit_code_2_on_missing_manifest_setting(tmp_path, capsys):
    code = main(["train", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_exit_code_3_on_bad_input_format(tmp_path, capsys):
    bad = tmp_path / "bad.sveb"
    bad.write_bytes(b"NOPE" + b"\x00" * 30)
    trials = tmp_path / "t.txt"
    trials.write_text("1 a b\n")
    code = main(["score", "--trials", str(trials), "--embeddings", str(bad),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 3
    assert "bad magic" in capsys.readouterr().err



def test_exit_code_3_on_corrupt_stack_in_embed(workspace, tmp_path, capsys):
    from svkit.config import load_config
    from svkit.ecapa import init_params, save_checkpoint

    _, cfg_path = workspace
    cfg = load_config(cfg_path)
    tensors = {f"ecapa.{k}": v for k, v in init_params(cfg.ecapa, seed=0).items()}
    tensors["agg.logits"] = np.zeros(cfg.upstream.n_layers + 1)
    save_checkpoint(tensors, tmp_path / "c.svck")
    nan_payload = np.full(4 * 2 * 12, np.nan, dtype="<f4").tobytes()
    (tmp_path / "bad.svhs").write_bytes(b"SVHS" + struct.pack("<IIIIf", 1, 4, 2, 12, 50.0) + nan_payload)
    (tmp_path / "m.tsv").write_text("u1\ts1\tbad.svhs\n")
    code = main(["--config", cfg_path, "embed", "--checkpoint", str(tmp_path / "c.svck"),
                 "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "e.sveb")])
    assert code == 3
    assert "bad.svhs: layer stack contains non-finite" in capsys.readouterr().err


def test_exit_code_3_on_invalid_utf8_embedding_id(tmp_path, capsys):
    store = tmp_path / "e.sveb"
    store.write_bytes(b"SVEB" + struct.pack("<IIIH", 1, 1, 1, 2) + b"\xff\xfe" + struct.pack("<f", 1.0))
    trials = tmp_path / "t.txt"
    trials.write_text("1 a b\n")
    code = main(["score", "--trials", str(trials), "--embeddings", str(store),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 3
    assert "not valid UTF-8" in capsys.readouterr().err

@pytest.mark.parametrize("error, code", [(ConfigError, 2), (FormatError, 3), (DataError, 4), (ToolkitError, None)])
def test_exit_code_comes_from_the_error_class(monkeypatch, capsys, error, code):
    import svkit.cli as cli

    def fail(args, cfg):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_eval", fail)
    argv = ["eval", "--scores", "s.txt", "--trials", "t.txt"]
    if code is None:  # the base class is no user-facing failure: it propagates as a bug
        with pytest.raises(ToolkitError, match="boom"):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == "error: boom\n"


def test_exit_code_4_on_degenerate_data(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    scores = tmp_path / "s.txt"
    trials.write_text("1 a b\n1 c d\n")
    scores.write_text("a b 0.900000\nc d 0.800000\n")
    code = main(["eval", "--scores", str(scores), "--trials", str(trials)])
    assert code == 4
    assert "target" in capsys.readouterr().err


def test_commands_idempotent_byte_identical(workspace, capsys, tmp_path):
    root, cfg = workspace
    data = root / "data"
    out1 = tmp_path / "s1.txt"
    out2 = tmp_path / "s2.txt"
    for out in (out1, out2):
        run_ok(capsys, ["--config", cfg, "--deterministic", "score",
                        "--trials", str(data / "trials.txt"),
                        "--embeddings", str(root / "held.sveb"), "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_option_tripwire():
    """Every config key and global flag; a new option must be added here on purpose."""
    from svkit.cli import _build_parser
    from svkit.config import RunConfig, dump_config

    keys = [line.split(" = ")[0] for line in dump_config(RunConfig()).splitlines()]
    assert keys == [
        "seed",
        "fbank.n_mels", "fbank.win_ms", "fbank.hop_ms",
        "upstream.n_layers", "upstream.dim", "upstream.seed",
        "ecapa.in_dim", "ecapa.channels", "ecapa.res2_scale", "ecapa.dilations", "ecapa.se_bottleneck",
        "ecapa.attention_channels", "ecapa.embed_dim",
        "aam.margin", "aam.scale",
        "schedule.stage1_epochs", "schedule.stage2_epochs", "schedule.lmft_epochs", "schedule.crop_seconds",
        "schedule.lmft_crop_seconds", "schedule.lmft_margin", "schedule.batch_size", "schedule.lr_stage1",
        "schedule.lr_stage2", "schedule.lr_lmft",
        "augment.probability", "augment.noise_snr_db_range",
        "scoring.cohort_top_k",
        "plant.layer", "plant.strength",
        "paths.noise_dir", "paths.rir_dir",
    ]
    flags = [s for action in _build_parser()._actions for s in action.option_strings]
    assert flags == ["-h", "--help", "--config", "--set", "--deterministic", "--verbose"]


def test_train_with_noise_bank_only(workspace, capsys, tmp_path):
    """Augmentation kinds follow the configured banks: no RIR bank means no reverb draw."""
    from svkit.audio import Waveform, write_wav

    root, cfg = workspace
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    write_wav(noise_dir / "n0.wav", Waveform(np.random.default_rng(0).uniform(-0.3, 0.3, 16000)))
    summary = run_ok(capsys, ["--config", cfg, "--set", f"paths.noise_dir={noise_dir}",
                              "--set", "augment.probability=1.0", "train",
                              "--manifest", str(root / "data" / "train.tsv"),
                              "--out-dir", str(tmp_path / "run")])
    assert summary["epochs"] == "1"


def test_exit_code_3_on_checkpoint_for_another_config(workspace, capsys, tmp_path):
    root, cfg = workspace
    ckpt = root / "run" / "checkpoint.svck"  # trained by test_full_pipeline: 3 layers, dim 12
    for override, tensor in (("upstream.n_layers=4", "agg.logits"), ("upstream.dim=16", "upstream.conv0.b")):
        code = main(["--config", cfg, "--set", override, "embed", "--checkpoint", str(ckpt),
                     "--manifest", str(root / "data" / "heldout.tsv"), "--out", str(tmp_path / "e.sveb")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"{ckpt}: checkpoint tensors do not match the configured system: {tensor}:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "embed"])
@pytest.mark.parametrize("shape", [(5, 4, 12), (4, 4, 8)], ids=["layers", "dim"])
def test_exit_code_4_on_stack_that_does_not_fit(workspace, capsys, tmp_path, command, shape):
    from svkit.config import load_config
    from svkit.ecapa import init_params, save_checkpoint
    from svkit.upstream import LayerStack, save_stack

    _, cfg_path = workspace
    rng = np.random.default_rng(1)
    for i in range(2):
        save_stack(LayerStack(rng.standard_normal(shape), frame_rate_hz=50.0), tmp_path / f"u{i}.svhs")
    (tmp_path / "m.tsv").write_text("u0\ts0\tu0.svhs\nu1\ts1\tu1.svhs\n")
    if command == "train":
        argv = ["train", "--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(tmp_path / "run")]
    else:
        cfg = load_config(cfg_path)
        tensors = {f"ecapa.{k}": v for k, v in init_params(cfg.ecapa, seed=0).items()}
        tensors["agg.logits"] = np.zeros(cfg.upstream.n_layers + 1)
        save_checkpoint(tensors, tmp_path / "c.svck")
        argv = ["embed", "--checkpoint", str(tmp_path / "c.svck"), "--manifest", str(tmp_path / "m.tsv"),
                "--out", str(tmp_path / "e.sveb")]
    code = main(["--config", cfg_path] + argv)
    err = capsys.readouterr().err
    assert code == 4, err
    assert f"({tmp_path / 'u'}" in err and ".svhs): stack has" in err
    assert f"stack has {shape[0]} layers of dim {shape[2]}, expected 4 layers of dim 12" in err


# at lr 1e150 the second epoch's loss is NaN; after one epoch the anchors are
# still finite in float64 but past float32's range, which the checkpoint refuses.
# The NaN case's autodiff ops overflow before the divergence check fires, which
# warns; an earlier divergence rule is ROADMAP item 7.
@pytest.mark.parametrize("epochs,message", [
    pytest.param("2", "training diverged at stage 1 epoch 2 batch 1: non-finite loss",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ("1", "tensor aam.anchors is not finite in float32; no checkpoint written"),
])
def test_exit_code_4_on_diverged_training_writes_no_checkpoint(tmp_path, capsys, epochs, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    run_ok(capsys, ["--config", str(cfg), "synth-data", "--out-dir", str(tmp_path / "data"),
                    "--speakers", "3", "--utts", "3", "--seconds", "1"])
    run_dir = tmp_path / "run"
    code = main(["--config", str(cfg), "--set", "schedule.lr_stage1=1e150",
                 "--set", f"schedule.stage1_epochs={epochs}", "train",
                 "--manifest", str(tmp_path / "data" / "train.tsv"), "--out-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert message in err and "Traceback" not in err
    assert not (run_dir / "checkpoint.svck").exists()


def test_upstream_export_builds_the_mock_once(workspace, capsys, tmp_path, monkeypatch):
    from svkit.audio import read_wav
    from svkit.config import load_config
    from svkit.upstream import MockUpstream, load_manifest, mock_forward, save_stack

    root, cfg_path = workspace
    manifest = load_manifest(root / "data" / "train.tsv")
    init = MockUpstream._init_params
    calls = []
    monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(lambda cfg: calls.append(cfg) or init(cfg)))
    run_ok(capsys, ["--config", cfg_path, "upstream-export",
                    "--manifest", str(root / "data" / "train.tsv"), "--out-dir", str(tmp_path / "stacks")])
    assert len(calls) == 1 < len(manifest)
    for row in manifest.rows:  # byte-equal to one fresh mock per row
        save_stack(mock_forward(read_wav(manifest.resolve(row)), load_config(cfg_path).upstream), tmp_path / "ref.svhs")
        assert (tmp_path / "stacks" / f"{row.utt_id}.svhs").read_bytes() == (tmp_path / "ref.svhs").read_bytes()


@pytest.mark.parametrize("command", ["embed", "export-manifest", "export-wav"])
def test_exit_code_4_on_upstream_output_that_overflows_float32(workspace, capsys, tmp_path, monkeypatch, command):
    from svkit.audio import Waveform, write_wav
    from svkit.config import load_config
    from svkit.ecapa import init_params, save_checkpoint
    from svkit.upstream import MockUpstream

    _, cfg_path = workspace
    cfg = load_config(cfg_path)
    up = MockUpstream(cfg.upstream).param_arrays()
    up["conv0.w"] = np.full_like(up["conv0.w"], 3e38)  # finite in float32; the layer-0 output is not
    wav = tmp_path / "u0.wav"
    write_wav(wav, Waveform(np.random.default_rng(3).uniform(-0.5, 0.5, 8000)))
    (tmp_path / "m.tsv").write_text("u0\ts0\tu0.wav\n")
    if command == "embed":
        tensors = {f"ecapa.{k}": v for k, v in init_params(cfg.ecapa, seed=0).items()}
        tensors["agg.logits"] = np.zeros(cfg.upstream.n_layers + 1)
        tensors.update({f"upstream.{k}": v for k, v in up.items()})
        save_checkpoint(tensors, tmp_path / "c.svck")
        argv = ["embed", "--checkpoint", str(tmp_path / "c.svck"), "--manifest", str(tmp_path / "m.tsv"),
                "--out", str(tmp_path / "out")]
    else:
        monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(lambda _cfg: up))
        argv = (["upstream-export", "--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(tmp_path / "out")]
                if command == "export-manifest" else ["upstream-export", "--wav", str(wav), "--out", str(tmp_path / "out")])
    code = main(["--config", cfg_path] + argv)
    err = capsys.readouterr().err
    assert code == 4, err
    source = str(wav) if command == "export-wav" else f"u0 ({wav})"
    assert f"{source}: mock upstream output does not fit float32" in err and "Traceback" not in err
    assert not (tmp_path / "out").is_file() and not (tmp_path / "out" / "u0.svhs").exists()
