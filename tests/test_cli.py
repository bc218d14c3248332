"""Command-line surface tests: one full pipeline walk plus error-code contracts."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svkit
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

    (root / "one.tsv").write_text(f"u0\ts0\t{wav0}\n")
    summary = run_ok(capsys, ["--config", cfg, "upstream-export", "--manifest", str(root / "one.tsv"),
                              "--out-dir", str(root / "one")])
    assert summary["stacks"] == "1" and summary["layers"] == "4" and summary["dim"] == "12"

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


# synth-data -> train (all three stages) -> embed -> score, in one interpreter
SEEDED_RUN = """
import sys
from svkit.cli import main
root, cfg = sys.argv[1:]
for argv in (["synth-data", "--out-dir", f"{root}/data", "--speakers", "3", "--utts", "4", "--seconds", "1"],
             ["train", "--manifest", f"{root}/data/train.tsv", "--out-dir", f"{root}/run"],
             ["embed", "--checkpoint", f"{root}/run/checkpoint.svck",
              "--manifest", f"{root}/data/heldout.tsv", "--out", f"{root}/held.sveb"],
             ["score", "--trials", f"{root}/data/trials.txt", "--embeddings", f"{root}/held.sveb",
              "--out", f"{root}/scores.txt"]):
    if main(["--config", cfg, *argv]):
        sys.exit(1)
"""


def test_a_seeded_run_gives_the_same_bytes_in_fresh_processes(tmp_path):
    # the hash salt orders sets and dicts of strings; the BLAS thread count can change summation order
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG + "schedule.stage1_epochs = 2\nschedule.stage2_epochs = 1\n"
                   "schedule.lmft_epochs = 1\nschedule.lmft_crop_seconds = 1.0\nschedule.batch_size = 4\n")
    outputs = []
    for salt, threads in (("1", "1"), ("2", "2")):
        root = tmp_path / f"salt{salt}"
        env = dict(os.environ, PYTHONHASHSEED=salt, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(svkit.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SEEDED_RUN, str(root), str(cfg)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(root / name).read_bytes() for name in ("run/checkpoint.svck", "held.sveb", "scores.txt")])
    assert outputs[0] == outputs[1]


def test_embed_of_a_saved_result_writes_the_in_memory_systems_bytes(workspace, capsys, tmp_path):
    # training returns the float32 form its checkpoint reloads to: `svkit embed` of the saved result
    # reproduces the store of the in-memory system that the acceptance suite and the benchmark score
    from svkit.config import load_config
    from svkit.ecapa import save_checkpoint
    from svkit.pipeline import System, extract_embeddings
    from svkit.scoring import save_embeddings
    from svkit.training import train
    from svkit.upstream import load_manifest

    root, cfg_path = workspace
    cfg, heldout = load_config(cfg_path), root / "data" / "heldout.tsv"
    result = train(load_manifest(root / "data" / "train.tsv"), cfg.schedule, upstream_cfg=cfg.upstream,
                   ecapa_cfg=cfg.ecapa, aam=cfg.aam, plant=cfg.plant, seed=cfg.seed)
    save_checkpoint(result.checkpoint_tensors(), tmp_path / "c.svck")
    system = System.from_result(result, cfg.upstream, cfg.ecapa, plant=cfg.plant)
    save_embeddings(extract_embeddings(system, load_manifest(heldout)), tmp_path / "memory.sveb")
    run_ok(capsys, ["--config", cfg_path, "embed", "--checkpoint", str(tmp_path / "c.svck"),
                    "--manifest", str(heldout), "--out", str(tmp_path / "cli.sveb")])
    assert (tmp_path / "cli.sveb").read_bytes() == (tmp_path / "memory.sveb").read_bytes()


def test_embed_refuses_the_dims_train_refuses(workspace, capsys, tmp_path, monkeypatch):
    # an import-only checkpoint holds no upstream tensor whose shape shows a changed upstream dim:
    # embed applies train's rule, before it reads a row and with no store written
    import svkit.pipeline as pipeline_mod

    root, cfg = workspace
    stacks, run_dir = tmp_path / "stacks", tmp_path / "run"
    run_ok(capsys, ["--config", cfg, "upstream-export", "--manifest", str(root / "data" / "train.tsv"),
                    "--out-dir", str(stacks)])
    run_ok(capsys, ["--config", cfg, "train", "--manifest", str(stacks / "manifest.tsv"), "--out-dir", str(run_dir)])
    monkeypatch.setattr(pipeline_mod, "load_stack", lambda path: pytest.fail(f"embed read {path}"))
    for argv in (["train", "--manifest", str(stacks / "manifest.tsv"), "--out-dir", str(tmp_path / "run16")],
                 ["embed", "--checkpoint", str(run_dir / "checkpoint.svck"), "--manifest", str(stacks / "manifest.tsv"),
                  "--out", str(tmp_path / "e.sveb")]):
        code = main(["--config", cfg, "--set", "upstream.dim=16"] + argv)
        assert (code, capsys.readouterr().err) == (2, "error: ecapa.in_dim must equal the upstream dim\n"), argv[0]
    assert not (tmp_path / "e.sveb").exists()


def test_fbank_writes_exactly_the_out_path(tmp_path, capsys):
    # np.save given a name without ".npy" appends it; the command writes the path it is given
    from svkit.audio import Waveform, write_wav

    write_wav(tmp_path / "w.wav", Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 8000)))
    for out in ("f.bin", "f.npy"):
        run_ok(capsys, ["fbank", "--wav", str(tmp_path / "w.wav"), "--out", str(tmp_path / out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "f.npy", "w.wav"]
    feats = np.load(tmp_path / "f.bin")
    assert feats.shape == (48, 40) and feats.tobytes() == np.load(tmp_path / "f.npy").tobytes()


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

    # calibrate reads SVHS rows' durations from their headers: 1 s WAVs export 50 frames at 50 Hz,
    # so the quality features, and the model file, equal those of the WAV manifest
    from svkit import scoring
    from svkit.upstream import load_manifest

    rows = load_manifest(data / "train.tsv").rows
    trials = [scoring.Trial(a.utt_id, b.utt_id, int(a.speaker_id == b.speaker_id))
              for i, a in enumerate(rows) for b in rows[i + 1 :]]
    scoring.save_trials(trials, tmp_path / "trials.txt")
    labels = scoring.trial_labels(trials)
    scores = np.random.default_rng(3).normal(size=len(trials)) + labels
    scoring.save_scores(trials, scores, tmp_path / "scores.txt")
    for name, manifest in (("svhs", stacks / "manifest.tsv"), ("wav", data / "train.tsv")):
        run_ok(capsys, ["calibrate", "--scores", str(tmp_path / "scores.txt"), "--trials", str(tmp_path / "trials.txt"),
                        "--manifest", str(manifest), "--model-out", str(tmp_path / f"{name}.cal")])
    assert (tmp_path / "svhs.cal").read_bytes() == (tmp_path / "wav.cal").read_bytes()


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


@pytest.mark.parametrize("key, value", [("plant.layer", "-2"), ("plant.strength", "nan")])
def test_exit_code_2_on_plant_below_off_or_bad_strength_while_off(tmp_path, capsys, key, value):
    # layer -1 (the default) is the plant's one "off" value; a lower layer is refused, and so is a
    # bad strength while the plant is off
    code = main(["--set", f"{key}={value}", "train", "--manifest", "m.tsv", "--out-dir", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err


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
    # the noise SNR range is a fixed part of the recipe, no setting
    code = main(["--set", "augment.noise_snr_db_range=0,20", "train",
                 "--manifest", "m.tsv", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "unknown config key: augment.noise_snr_db_range" in capsys.readouterr().err
    # a zero-width ECAPA stops at config load, not in parameter initialization
    code = main(["--set", "ecapa.channels=0", "train", "--manifest", "m.tsv", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "ecapa.channels must be >= 1" in capsys.readouterr().err


def test_exit_code_2_on_a_directory_given_as_config(tmp_path, capsys):
    code = main(["--config", str(tmp_path), "eval", "--scores", "x", "--trials", "y"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: file not found or unreadable")


@pytest.mark.parametrize("argv, expected", [
    (["--set", "fbank.hop_ms=0.01", "fbank", "--wav", "w.wav", "--out", "f.npy"], "fbank.hop_ms"),
    (["--set", "fbank.win_ms=inf", "fbank", "--wav", "w.wav", "--out", "f.npy"], "fbank.win_ms"),
    (["--set", "fbank.fft_size=512", "fbank", "--wav", "w.wav", "--out", "f.npy"], "unknown config key"),
    (["synth-data", "--out-dir", "d", "--seconds", "nan"], "finite"),
    (["synth-data", "--out-dir", "d", "--seconds", "inf"], "finite"),
    (["--set", "fbank.n_mels=128", "fbank", "--wav", "w.wav", "--out", "f.npy"],
     "fbank.n_mels = 128 leaves a mel filter with no bin of the 512-point FFT"),
    (["--set", "fbank.n_mels=1000", "fbank", "--wav", "w.wav", "--out", "f.npy"],
     "fbank.n_mels = 1000 leaves a mel filter with no bin of the 512-point FFT"),
    (["--set", "aam.scale=inf", "train", "--manifest", "m.tsv", "--out-dir", "run"],
     "aam.scale must be finite and > 0, got inf"),
    (["synth-data", "--out-dir", "d", "--utts", "2"], "at least three utterances per speaker"),
    (["--set", "seed", "eval", "--scores", "s.txt", "--trials", "t.txt"], "--set expects key=value, got 'seed'"),
])
def test_exit_code_2_on_unusable_setting(tmp_path, capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert expected in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_2_on_a_setting_that_names_a_whole_section(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--set", "ecapa=3", "eval", "--scores", "s.txt", "--trials", "t.txt"]) == 2
    assert capsys.readouterr().err == "error: unknown config key: ecapa\n"
    assert list(tmp_path.iterdir()) == []


def test_a_huge_fbank_window_is_refused_before_anything_allocates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--set", "fbank.win_ms=99999999999", "fbank", "--wav", "w.wav", "--out", "f.npy"]) == 2
    err = capsys.readouterr().err
    assert err == "error: fbank.win_ms must be finite and at most 1000 ms, got 99999999999.0\n"
    assert "Unable to allocate" not in err


def test_ensemble_of_an_unlabeled_list_without_weights_writes_the_plain_mean(tmp_path, capsys):
    trials = tmp_path / "t.txt"
    trials.write_text("a b\nc d\n")
    (tmp_path / "s1.txt").write_text("a b 0.900000\nc d -0.200000\n")
    (tmp_path / "s2.txt").write_text("a b 0.300000\nc d 0.600000\n")
    run_ok(capsys, ["ensemble", "--scores", str(tmp_path / "s1.txt"), "--scores", str(tmp_path / "s2.txt"),
                    "--trials", str(trials), "--out", str(tmp_path / "fused.txt")])
    assert (tmp_path / "fused.txt").read_text() == "a b 0.600000\nc d 0.200000\n"


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


@pytest.mark.parametrize("with_manifest", [False, True])
def test_calibrate_files_equal_the_library_fit_and_apply(tmp_path, capsys, with_manifest):
    from svkit import scoring
    from svkit.audio import Waveform, write_wav
    from svkit.cli import _save_calibration
    from svkit.pipeline import utterance_durations
    from svkit.upstream import Manifest, ManifestRow, save_manifest

    rng = np.random.default_rng(5)
    ids = [f"u{i}" for i in range(8)]
    for i, uid in enumerate(ids):
        write_wav(tmp_path / f"{uid}.wav", Waveform(np.zeros(800 * (i + 2))))
    manifest = Manifest(tuple(ManifestRow(u, f"s{i % 2}", f"{u}.wav") for i, u in enumerate(ids)), tmp_path)
    save_manifest(manifest, tmp_path / "m.tsv")
    pairs = [(a, b, int(i % 2 == j % 2)) for i, a in enumerate(ids) for j, b in enumerate(ids) if i < j]
    fit_trials = [scoring.Trial(a, b, label) for a, b, label in pairs]
    apply_trials = [scoring.Trial(b, a) for a, b, _ in pairs[::2]]
    scoring.save_trials(fit_trials, tmp_path / "fit.txt")
    scoring.save_trials(apply_trials, tmp_path / "apply.txt")
    labels = scoring.trial_labels(fit_trials)
    scoring.save_scores(fit_trials, rng.normal(size=len(pairs)) + labels, tmp_path / "fit_scores.txt")
    scoring.save_scores(apply_trials, rng.normal(size=len(apply_trials)), tmp_path / "apply_scores.txt")

    argv = ["calibrate", "--scores", str(tmp_path / "fit_scores.txt"), "--trials", str(tmp_path / "fit.txt"),
            "--model-out", str(tmp_path / "model.txt"), "--apply-scores", str(tmp_path / "apply_scores.txt")]
    if with_manifest:
        argv += ["--manifest", str(tmp_path / "m.tsv")]
    # a missing apply setting is refused before the model is fitted or written
    assert main(argv + ["--out", str(tmp_path / "cal.txt")]) == 2
    assert "apply-trials" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists() and not (tmp_path / "cal.txt").exists()
    summary = run_ok(capsys, argv + ["--apply-trials", str(tmp_path / "apply.txt"), "--out", str(tmp_path / "cal.txt")])
    assert summary["applied"] == str(len(apply_trials))

    durations = utterance_durations(manifest)

    def quality(trials):  # duration features with a manifest, else no quality features: an (n, 0) matrix
        if not with_manifest:
            return np.empty((len(trials), 0))
        return np.array([scoring.quality_features(t, durations) for t in trials])

    fit_scores = scoring.load_scores(tmp_path / "fit_scores.txt", fit_trials)
    model = scoring.fit_calibration(fit_scores, labels, quality(fit_trials))
    assert model.arity == (2 if with_manifest else 0)
    _save_calibration(model, tmp_path / "model_ref.txt")
    apply_scores = scoring.load_scores(tmp_path / "apply_scores.txt", apply_trials)
    scoring.save_scores(apply_trials, scoring.apply_calibration(model, apply_scores, quality(apply_trials)),
                        tmp_path / "cal_ref.txt")
    assert (tmp_path / "model.txt").read_bytes() == (tmp_path / "model_ref.txt").read_bytes()
    assert (tmp_path / "cal.txt").read_bytes() == (tmp_path / "cal_ref.txt").read_bytes()


@pytest.mark.parametrize("given, missing", [
    (["--apply-scores", "s.txt"], "apply-trials"),
    (["--apply-trials", "t.txt", "--out", "cal.txt"], "apply-scores"),
])
def test_calibrate_apply_settings_are_all_or_none(tmp_path, capsys, monkeypatch, given, missing):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("1 a b\n0 c d\n")
    (tmp_path / "s.txt").write_text("a b 0.900000\nc d 0.100000\n")
    before = sorted(tmp_path.iterdir())
    assert main(["calibrate", "--scores", "s.txt", "--trials", "t.txt", "--model-out", "model.txt"] + given) == 2
    err = capsys.readouterr().err
    assert f"missing required setting: {missing}" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_exit_code_2_on_missing_manifest_setting(tmp_path, capsys):
    # a usage error, as for every other missing mandatory flag
    with pytest.raises(SystemExit) as info:
        main(["train", "--out-dir", str(tmp_path / "run")])
    assert info.value.code == 2
    assert "the following arguments are required: --manifest" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_exit_code_3_on_export_weights_of_a_checkpoint_without_logits(tmp_path, capsys):
    from svkit.ecapa import save_checkpoint

    ckpt = tmp_path / "c.svck"
    save_checkpoint({"stem.w": np.zeros(2)}, ckpt)
    assert main(["export-weights", "--checkpoint", str(ckpt), "--out", str(tmp_path / "w.csv")]) == 3
    assert capsys.readouterr().err == f"error: {ckpt}: checkpoint has no aggregator logits\n"
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("shape", [(2, 3), (), (0,), (1,)])
def test_exit_code_3_on_export_weights_of_malformed_logits(tmp_path, capsys, shape):
    from svkit.ecapa import save_checkpoint

    ckpt = tmp_path / "c.svck"
    save_checkpoint({"agg.logits": np.zeros(shape)}, ckpt)
    assert main(["export-weights", "--checkpoint", str(ckpt), "--out", str(tmp_path / "w.csv")]) == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: agg.logits must be a vector of at least 2 layer logits, got shape {shape}" in err
    assert not (tmp_path / "w.csv").exists()


def test_exit_code_4_on_snorm_cohort_of_another_dim(tmp_path, capsys):
    from svkit import scoring
    from svkit.upstream import Manifest, ManifestRow, save_manifest

    rng = np.random.default_rng(7)
    scoring.save_embeddings({u: rng.standard_normal(4) for u in "ab"}, tmp_path / "e.sveb")
    cohort_ids = ["c0", "c1", "c2", "c3"]
    scoring.save_embeddings({u: rng.standard_normal(6) for u in cohort_ids}, tmp_path / "cohort.sveb")
    save_manifest(Manifest(tuple(ManifestRow(u, f"s{i % 2}", f"{u}.wav") for i, u in enumerate(cohort_ids)),
                           tmp_path), tmp_path / "cohort.tsv")
    (tmp_path / "t.txt").write_text("1 a b\n")
    (tmp_path / "s.txt").write_text("a b 0.500000\n")
    code = main(["snorm", "--scores", str(tmp_path / "s.txt"), "--trials", str(tmp_path / "t.txt"),
                 "--embeddings", str(tmp_path / "e.sveb"), "--cohort-embeddings", str(tmp_path / "cohort.sveb"),
                 "--cohort-manifest", str(tmp_path / "cohort.tsv"), "--out", str(tmp_path / "n.txt")])
    assert code == 4
    err = capsys.readouterr().err
    assert "trial embeddings have dim 4 but the cohort's have dim 6" in err and "Traceback" not in err
    assert not (tmp_path / "n.txt").exists()


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
        run_ok(capsys, ["--config", cfg, "score",
                        "--trials", str(data / "trials.txt"),
                        "--embeddings", str(root / "held.sveb"), "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_option_tripwire():
    """Every config key, global flag and subcommand option; a new option must be added here on purpose."""
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
        "augment.probability",
        "scoring.cohort_top_k",
        "plant.layer", "plant.strength",
        "paths.noise_dir", "paths.rir_dir",
    ]
    parser = _build_parser()
    flags = [s for action in parser._actions for s in action.option_strings]
    assert flags == ["-h", "--help", "--config", "--set", "--verbose"]
    [commands] = [action.choices for action in parser._actions if action.choices]
    options = {name: [s for action in p._actions for s in action.option_strings][2:] for name, p in commands.items()}
    assert options == {
        "synth-data": ["--out-dir", "--speakers", "--utts", "--seconds"],
        "fbank": ["--wav", "--out"],
        "upstream-export": ["--manifest", "--out-dir"],
        "train": ["--manifest", "--out-dir"],
        "embed": ["--checkpoint", "--manifest", "--out"],
        "score": ["--trials", "--embeddings", "--out"],
        "snorm": ["--scores", "--trials", "--embeddings", "--cohort-embeddings", "--cohort-manifest", "--out"],
        "calibrate": ["--scores", "--trials", "--manifest", "--model-out", "--apply-scores", "--apply-trials",
                      "--out"],
        "ensemble": ["--scores", "--trials", "--weights", "--out"],
        "eval": ["--scores", "--trials"],
        "export-weights": ["--checkpoint", "--out"],
    }


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
# warns; an earlier divergence rule is ROADMAP item 1.
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


def test_upstream_export_of_a_one_row_manifest_writes_the_stack_of_its_wav(workspace, capsys, tmp_path):
    # the one export path: a one-row manifest gives the bytes one WAV's stack saves to
    from svkit.audio import read_wav
    from svkit.config import load_config
    from svkit.upstream import MockUpstream, save_stack

    root, cfg_path = workspace
    wav = next((root / "data" / "wav").glob("*.wav"))
    (tmp_path / "one.tsv").write_text(f"u0\ts0\t{wav}\n")
    summary = run_ok(capsys, ["--config", cfg_path, "upstream-export", "--manifest", str(tmp_path / "one.tsv"),
                              "--out-dir", str(tmp_path / "out")])
    assert summary == {"stacks": "1", "layers": "4", "dim": "12"}
    save_stack(MockUpstream(load_config(cfg_path).upstream).stack(read_wav(wav), str(wav)), tmp_path / "ref.svhs")
    assert (tmp_path / "out" / "u0.svhs").read_bytes() == (tmp_path / "ref.svhs").read_bytes()
    assert (tmp_path / "out" / "manifest.tsv").read_text() == "u0\ts0\tu0.svhs\n"


@pytest.mark.parametrize("command", ["embed", "export-manifest"])
def test_exit_code_4_on_upstream_output_that_overflows_float32(workspace, capsys, tmp_path, monkeypatch, command):
    from svkit.audio import Waveform, write_wav
    from svkit.config import load_config
    from svkit.ecapa import save_checkpoint
    from svkit.pipeline import System
    from svkit.upstream import MockUpstream

    _, cfg_path = workspace
    cfg = load_config(cfg_path)
    system = System.init(cfg.upstream, cfg.ecapa, n_classes=1, seed=0)
    system.upstream  # the drawn mock's tensors join the system's
    tensors = system.checkpoint_tensors()
    # finite in float32; the layer-0 output is not
    tensors["upstream.conv0.w"] = np.full_like(tensors["upstream.conv0.w"], 3e38)
    up = {k[len("upstream.") :]: v for k, v in tensors.items() if k.startswith("upstream.")}
    wav = tmp_path / "u0.wav"
    write_wav(wav, Waveform(np.random.default_rng(3).uniform(-0.5, 0.5, 8000)))
    (tmp_path / "m.tsv").write_text("u0\ts0\tu0.wav\n")
    if command == "embed":
        save_checkpoint(tensors, tmp_path / "c.svck")
        argv = ["embed", "--checkpoint", str(tmp_path / "c.svck"), "--manifest", str(tmp_path / "m.tsv"),
                "--out", str(tmp_path / "out")]
    else:
        monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(lambda _cfg: up))
        argv = ["upstream-export", "--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(tmp_path / "out")]
    code = main(["--config", cfg_path] + argv)
    err = capsys.readouterr().err
    assert code == 4, err
    assert f"u0 ({wav}): mock upstream output does not fit float32" in err and "Traceback" not in err
    assert not (tmp_path / "out").is_file() and not (tmp_path / "out" / "u0.svhs").exists()


@pytest.fixture(scope="module")
def write_inputs(tmp_path_factory):
    """A 3-speaker corpus, a checkpoint trained for 0 epochs, its store of every utterance and their scores."""
    root = tmp_path_factory.mktemp("write_inputs")
    (root / "run.cfg").write_text(TINY_CFG + "schedule.stage1_epochs = 0\n")
    data = root / "data"
    for argv in (["synth-data", "--out-dir", str(data), "--speakers", "3", "--utts", "3", "--seconds", "1"],
                 ["train", "--manifest", str(data / "train.tsv"), "--out-dir", str(root / "run")],
                 ["embed", "--checkpoint", str(root / "run" / "checkpoint.svck"),
                  "--manifest", str(data / "manifest.tsv"), "--out", str(root / "all.sveb")],
                 ["score", "--trials", str(data / "trials.txt"), "--embeddings", str(root / "all.sveb"),
                  "--out", str(root / "scores.txt")]):
        assert main(["--config", str(root / "run.cfg")] + argv) == 0
    return root


@pytest.mark.parametrize("command", ["train", "embed"])
def test_exit_code_2_on_plant_past_the_last_layer(write_inputs, tmp_path, capsys, command):
    # the bound is the config's alone, so the system refuses it when it is built, before any row is read
    argv = {"train": ["train", "--manifest", str(write_inputs / "data" / "train.tsv"), "--out-dir", str(tmp_path)],
            "embed": ["embed", "--checkpoint", str(write_inputs / "run" / "checkpoint.svck"),
                      "--manifest", str(write_inputs / "data" / "manifest.tsv"), "--out", str(tmp_path / "e.sveb")]}
    code = main(["--config", str(write_inputs / "run.cfg"), "--set", "plant.layer=4"] + argv[command])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "plant.layer must be -1 (off) or an upstream layer in 0..3, got 4" in err and "Traceback" not in err
    assert {p.name for p in tmp_path.iterdir()} <= {"config.txt"}  # `train` writes its config first


@pytest.mark.parametrize("utt_id", ["../esc", "x/y", "ABSOLUTE", "nul\0byte"])
def test_upstream_export_writes_only_inside_the_out_dir(write_inputs, capsys, tmp_path, utt_id):
    wav = next((write_inputs / "data" / "wav").glob("*.wav"))
    utt_id = str(tmp_path / "abs") if utt_id == "ABSOLUTE" else utt_id
    (tmp_path / "m.tsv").write_text(f"u0\ts0\t{wav}\n{utt_id}\ts1\t{wav}\n")
    out_dir = tmp_path / "sub" / "out"
    code = main(["upstream-export", "--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"utt_id {utt_id!r} does not make a plain file name" in err and "Traceback" not in err
    assert not out_dir.exists() and list(tmp_path.rglob("*.svhs")) == []  # refused before any stack is written


def test_upstream_export_refuses_a_stored_stack_row_before_writing_anything(write_inputs, capsys, tmp_path):
    from svkit.upstream import LayerStack, save_stack

    wav0, wav1 = sorted((write_inputs / "data" / "wav").glob("*.wav"))[:2]
    save_stack(LayerStack(np.zeros((4, 5, 12)), 50.0), tmp_path / "s.svhs")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"u0\ts0\t{wav0}\nu1\ts1\t{wav1}\nu2\ts2\ts.svhs\n")
    out_dir = tmp_path / "out"
    code = main(["--config", str(write_inputs / "run.cfg"), "upstream-export", "--manifest", str(manifest),
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (f"error: {manifest}: row 'u2' ({tmp_path / 's.svhs'}) is a stored stack; "
                   "upstream-export reads WAV rows only\n")
    assert not out_dir.exists()  # not even the WAV rows' stacks


@pytest.mark.parametrize("command", ["train", "embed", "upstream-export"])
def test_exit_code_3_on_an_empty_manifest(write_inputs, capsys, tmp_path, command):
    # refused when it is read, as an empty trial list is: before a checkpoint is used or anything is written
    manifest, out = tmp_path / "m.tsv", tmp_path / "out"
    manifest.write_text("\n \n")
    argv = {"train": ["train", "--manifest", str(manifest), "--out-dir", str(out)],
            "embed": ["embed", "--checkpoint", str(write_inputs / "run" / "checkpoint.svck"),
                      "--manifest", str(manifest), "--out", str(out)],
            "upstream-export": ["upstream-export", "--manifest", str(manifest), "--out-dir", str(out)]}[command]
    code = main(["--config", str(write_inputs / "run.cfg")] + argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"error: {manifest}: empty manifest\n"
    assert not out.exists()


def test_eval_verbose_names_the_worst_trials(tmp_path):
    # the five lowest-scoring targets and highest-scoring non-targets, worst first; stdout is the same either way
    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    rows = [(1, f"t{i}", "x", s) for i, s in enumerate([0.9, 0.3, 0.8, 0.1, 0.7, 0.3, 0.6])]
    rows += [(0, f"n{i}", "y", s) for i, s in enumerate([0.2, 0.5, -0.1, 0.5, 0.0, 0.4, 0.1])]
    trials.write_text("".join(f"{label} {a} {b}\n" for label, a, b, _ in rows))
    scores.write_text("".join(f"{a} {b} {s:.6f}\n" for _, a, b, s in rows))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(svkit.__file__).parents[1]),
                                                                     os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, "-m", "svkit.cli", *flag, "eval", "--scores", str(scores),
                            "--trials", str(trials)], env=env, capture_output=True, text=True, timeout=60)
            for flag in ([], ["--verbose"])]
    assert [r.returncode for r in runs] == [0, 0] and runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith("status=ok eer=") and runs[0].stderr == ""
    assert runs[1].stderr.splitlines() == [
        "INFO svkit: worst target trial: t3 x score 0.100000",
        "INFO svkit: worst target trial: t1 x score 0.300000",
        "INFO svkit: worst target trial: t5 x score 0.300000",
        "INFO svkit: worst target trial: t6 x score 0.600000",
        "INFO svkit: worst target trial: t4 x score 0.700000",
        "INFO svkit: worst non-target trial: n1 y score 0.500000",
        "INFO svkit: worst non-target trial: n3 y score 0.500000",
        "INFO svkit: worst non-target trial: n5 y score 0.400000",
        "INFO svkit: worst non-target trial: n0 y score 0.200000",
        "INFO svkit: worst non-target trial: n6 y score 0.100000",
    ]


def test_eval_verbose_logs_in_process_when_the_root_logger_has_a_handler(tmp_path, capsys):
    # basicConfig does nothing once the root logger has a handler; --verbose must still reach svkit's logger
    import io
    import logging

    trials, scores = tmp_path / "t.txt", tmp_path / "s.txt"
    trials.write_text("1 a b\n1 a c\n0 a d\n")
    scores.write_text("a b 0.900000\na c 0.200000\na d 0.400000\n")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        lines = []
        for flag in (["--verbose"], []):
            assert main([*flag, "eval", "--scores", str(scores), "--trials", str(trials)]) == 0
            lines.append([line for line in stream.getvalue().splitlines() if "worst" in line])
            stream.truncate(0)
            stream.seek(0)
    finally:
        root.removeHandler(handler)
        logging.getLogger("svkit").setLevel(logging.NOTSET)
    assert lines == [["worst target trial: a c score 0.200000", "worst target trial: a b score 0.900000",
                      "worst non-target trial: a d score 0.400000"], []]
    assert capsys.readouterr().out.count("status=ok eer=") == 2


@pytest.mark.parametrize("given, message", [
    (["--deterministic", "eval", "--scores", "s.txt", "--trials", "t.txt"], "unrecognized arguments: --deterministic"),
    (["--seed=3", "eval", "--scores", "s.txt", "--trials", "t.txt"], "unrecognized arguments: --seed=3"),
    (["upstream-export", "--wav", "w.wav", "--out", "o.svhs"],
     "the following arguments are required: --manifest, --out-dir"),
    (["upstream-export", "--wav", "w.wav", "--out", "o.svhs", "--manifest", "m.tsv", "--out-dir", "d"],
     "unrecognized arguments: --wav w.wav --out o.svhs"),
    (["upstream-export", "--wav", "w.wav", "--out-dir", "d"], "the following arguments are required: --manifest"),
    (["upstream-export", "--manifest", "m.tsv", "--out", "o.svhs"], "the following arguments are required: --out-dir"),
], ids=["deterministic", "seed", "export-wav-out", "export-both-modes", "export-wav-out-dir", "export-manifest-out"])
def test_a_removed_flag_is_a_usage_error(capsys, tmp_path, monkeypatch, given, message):
    # a removed flag is no abbreviation of a kept one either: `--out` does not stand for `--out-dir`
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(given)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {message}")
    assert list(tmp_path.iterdir()) == []  # nothing written


def writing_command(root, name):
    """One command that writes: its argv less the output, the output flag, and for an --out-dir a file in it."""
    data, scores, store = root / "data", str(root / "scores.txt"), str(root / "all.sveb")
    ckpt, trials = str(root / "run" / "checkpoint.svck"), str(data / "trials.txt")
    wav = str(next(data.glob("wav/*.wav")))
    scored = ["--scores", scores, "--trials", trials]
    return {
        "synth-data": (["synth-data", "--speakers", "3", "--utts", "3", "--seconds", "1"], "--out-dir", "manifest.tsv"),
        "fbank": (["fbank", "--wav", wav], "--out", None),
        "export-manifest": (["upstream-export", "--manifest", str(data / "heldout.tsv")], "--out-dir", "manifest.tsv"),
        "train": (["train", "--manifest", str(data / "train.tsv")], "--out-dir", "config.txt"),
        "embed": (["embed", "--checkpoint", ckpt, "--manifest", str(data / "heldout.tsv")], "--out", None),
        "score": (["score", "--trials", trials, "--embeddings", store], "--out", None),
        "snorm": (["snorm", *scored, "--embeddings", store, "--cohort-embeddings", store,
                   "--cohort-manifest", str(data / "manifest.tsv")], "--out", None),
        "calibrate": (["calibrate", *scored], "--model-out", None),
        "calibrate-apply": (["calibrate", *scored, "--model-out", str(root / "cal.txt"),
                             "--apply-scores", scores, "--apply-trials", trials], "--out", None),
        "ensemble": (["ensemble", *scored, "--scores", scores], "--out", None),
        "export-weights": (["export-weights", "--checkpoint", ckpt], "--out", None),
    }[name]


@pytest.mark.parametrize("case", ["directory", "below-a-file", "missing-directory"])
@pytest.mark.parametrize("command", ["synth-data", "fbank", "export-manifest", "train", "embed", "score",
                                     "snorm", "calibrate", "calibrate-apply", "ensemble", "export-weights"])
def test_exit_code_2_on_an_output_that_cannot_be_written(write_inputs, capsys, tmp_path, command, case):
    argv, flag, in_dir = writing_command(write_inputs, command)
    out = {"directory": tmp_path / "out", "below-a-file": tmp_path / "blocker" / "deeper" / "out",
           "missing-directory": tmp_path / "new" / "deeper" / "out"}[case]
    written = out / in_dir if in_dir else out  # --out's path, or a file --out-dir holds
    if case == "below-a-file":
        (tmp_path / "blocker").write_text("a regular file\n")
    if case == "directory":
        written.mkdir(parents=True)
    code = main(["--config", str(write_inputs / "run.cfg")] + argv + [flag, str(out)])
    err = capsys.readouterr().err
    if case == "missing-directory":  # made, then written
        assert code == 0, err
        assert written.is_file()
        return
    assert code == 2, err
    [line] = err.splitlines()  # one error line, no traceback
    assert line.startswith(f"error: {out}") and "cannot write output file" in line
