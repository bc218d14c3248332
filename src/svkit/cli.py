"""Command-line surface.

Every command reads an optional config file plus --set overrides, does one
stage of the pipeline, and prints a single machine-parsable summary line
"status=ok key=value ..." on success. Exit codes: 0 success, 2 config error,
3 input-format error, 4 numerical/degenerate-data error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import scoring
from .aggregator import normalized_weights, write_weights_csv
from .audio import AugmentBanks, fbank, load_bank, read_wav
from .config import RunConfig, dump_config, load_config
from .ecapa import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, FormatError
from .pipeline import System, extract_embeddings, utterance_durations
from .synthcorpus import SynthSpec, synth_corpus
from .training import train
from .upstream import Manifest, ManifestRow, MockUpstream, load_manifest, save_manifest, save_stack

logger = logging.getLogger("svkit")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s"
        if args.deterministic
        else "%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        overrides = [_split_override(s) for s in args.set or []]
        cfg = load_config(args.config, overrides=overrides)
        summary = args.func(args, cfg)
    except (ConfigError, FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print("status=ok " + " ".join(f"{k}={v}" for k, v in summary))
    return 0


def _split_override(text: str):
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value


def _require(value, key: str):
    if value is None or value == "":
        raise ConfigError(f"missing required setting: {key}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svkit", description=__doc__)
    parser.add_argument("--config", help="config file (section.key = value lines)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--deterministic", action="store_true", help="suppress timestamps in logs")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic speaker corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--speakers", type=int, default=20)
    p.add_argument("--utts", type=int, default=10)
    p.add_argument("--seconds", type=float, default=3.0)
    p.set_defaults(func=_cmd_synth_data)

    p = sub.add_parser("fbank", help="extract filterbank features from one WAV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="output .npy path")
    p.set_defaults(func=_cmd_fbank)

    p = sub.add_parser("upstream-export", help="export mock-upstream layer stacks")
    p.add_argument("--wav", help="single waveform to export")
    p.add_argument("--manifest", help="manifest of waveforms to export")
    p.add_argument("--out", help="output .svhs path (single-wav mode)")
    p.add_argument("--out-dir", help="output directory (manifest mode)")
    p.set_defaults(func=_cmd_upstream_export)

    p = sub.add_parser("train", help="run the staged training pipeline")
    p.add_argument("--manifest")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="extract embeddings for a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output .sveb store")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("score", help="cosine-score a trial list")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("snorm", help="adaptive s-norm against a speaker cohort")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--cohort-embeddings", required=True)
    p.add_argument("--cohort-manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_snorm)

    p = sub.add_parser("calibrate", help="fit (and optionally apply) score calibration")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True, help="labeled trials for fitting")
    p.add_argument("--manifest", help="manifest for duration-based quality features")
    p.add_argument("--model-out", required=True)
    p.add_argument("--apply-scores", help="score file to calibrate")
    p.add_argument("--apply-trials", help="trial list aligned with --apply-scores")
    p.add_argument("--out", help="calibrated score output")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("ensemble", help="weighted average of score files")
    p.add_argument("--scores", action="append", required=True, help="repeatable: one per system")
    p.add_argument("--trials", required=True)
    p.add_argument("--weights", help="comma-separated; default 1/EER when trials are labeled")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("eval", help="equal error rate of a scored trial list")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-weights", help="dump normalized layer weights as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_weights)

    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------


def _cmd_synth_data(args, cfg: RunConfig):
    spec = SynthSpec(
        n_speakers=args.speakers,
        utts_per_speaker=args.utts,
        utt_seconds=args.seconds,
        seed=cfg.seed,
    )
    layout = synth_corpus(spec, args.out_dir)
    return [
        ("wavs", len(layout.manifest)),
        ("speakers", spec.n_speakers),
        ("train", len(layout.train)),
        ("heldout", len(layout.heldout)),
        ("trials", len(layout.trials)),
    ]


def _cmd_fbank(args, cfg: RunConfig):
    feats = fbank(read_wav(args.wav), cfg.fbank)
    np.save(args.out, feats)
    return [("frames", feats.shape[0]), ("dim", feats.shape[1])]


def _cmd_upstream_export(args, cfg: RunConfig):
    upstream = MockUpstream(cfg.upstream)
    if args.wav:
        out = _require(args.out, "out")
        stack = upstream.stack(read_wav(args.wav), args.wav)
        save_stack(stack, out)
        return [("layers", stack.layers.shape[0]), ("frames", stack.num_frames), ("dim", stack.dim)]
    manifest = load_manifest(_require(args.manifest, "manifest"), check_paths=True)
    out_dir = Path(_require(args.out_dir, "out-dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for row in manifest.rows:
        path = manifest.resolve(row)
        stack = upstream.stack(read_wav(path), f"{row.utt_id} ({path})")
        rel = f"{row.utt_id}.svhs"
        save_stack(stack, out_dir / rel)
        rows.append(ManifestRow(row.utt_id, row.speaker_id, rel))
    save_manifest(Manifest(tuple(rows), base_dir=out_dir), out_dir / "manifest.tsv")
    return [("stacks", len(rows)), ("layers", cfg.upstream.n_layers + 1), ("dim", cfg.upstream.dim)]


def _cmd_train(args, cfg: RunConfig):
    manifest_path = _require(args.manifest, "manifest")
    manifest = load_manifest(manifest_path, check_paths=True)
    banks = AugmentBanks(
        noises=load_bank(cfg.paths.noise_dir) if cfg.paths.noise_dir else (),
        rirs=load_bank(cfg.paths.rir_dir) if cfg.paths.rir_dir else (),
    )
    result = train(
        manifest,
        cfg.schedule,
        upstream_cfg=cfg.upstream,
        ecapa_cfg=cfg.ecapa,
        aam=cfg.aam,
        augment_cfg=cfg.augment,
        banks=banks,
        plant=cfg.plant.spec(),
        seed=cfg.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.checkpoint_tensors(), out_dir / "checkpoint.svck")
    log_lines = ["epoch,stage,loss,lr"] + [f"{e},{s},{l:.6f},{lr:g}" for e, s, l, lr in result.log]
    (out_dir / "train_log.csv").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    (out_dir / "config.txt").write_text(dump_config(cfg), encoding="utf-8")
    final_loss = result.log[-1][2] if result.log else float("nan")
    return [("epochs", len(result.log)), ("speakers", len(result.speakers)), ("final_loss", f"{final_loss:.6f}")]


def _cmd_embed(args, cfg: RunConfig):
    tensors = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest, check_paths=True)
    try:
        system = System.from_checkpoint(tensors, cfg.upstream, cfg.ecapa, plant=cfg.plant.spec())
    except FormatError as exc:
        raise FormatError(f"{args.checkpoint}: {exc}") from None
    store = extract_embeddings(system, manifest)
    scoring.save_embeddings(store, args.out)
    return [("count", len(store)), ("dim", cfg.ecapa.embed_dim)]


def _cmd_score(args, cfg: RunConfig):
    trials = scoring.load_trials(args.trials)
    store = scoring.load_embeddings(args.embeddings)
    scores = scoring.score_trials(trials, store)
    scoring.save_scores(trials, scores, args.out)
    return [("trials", len(trials))]


def _cmd_snorm(args, cfg: RunConfig):
    trials = scoring.load_trials(args.trials)
    scores = scoring.load_scores(args.scores, trials)
    store = scoring.load_embeddings(args.embeddings)
    cohort_store = scoring.load_embeddings(args.cohort_embeddings)
    cohort_manifest = load_manifest(args.cohort_manifest)
    cohort = scoring.build_cohort(cohort_store, cohort_manifest, top_k=cfg.scoring.cohort_top_k)
    normed = scoring.adaptive_snorm(scores, trials, store, cohort)
    scoring.save_scores(trials, normed, args.out)
    return [("trials", len(trials)), ("cohort", cohort.members.shape[0]), ("top_k", cohort.top_k)]


def _cmd_calibrate(args, cfg: RunConfig):
    trials = scoring.load_trials(args.trials)
    scores = scoring.load_scores(args.scores, trials)
    labels = scoring.trial_labels(trials)
    quality = None
    durations = None
    if args.manifest:
        durations = utterance_durations(load_manifest(args.manifest, check_paths=True))
        quality = np.asarray([scoring.quality_features(t, durations) for t in trials])
    model = scoring.fit_calibration(scores, labels, quality)
    _save_calibration(model, args.model_out)
    summary = [("a", f"{model.score_weight:.6f}"), ("bias", f"{model.bias:.6f}")]
    if args.apply_scores:
        apply_trials = scoring.load_trials(_require(args.apply_trials, "apply-trials"))
        apply_scores = scoring.load_scores(args.apply_scores, apply_trials)
        apply_quality = None
        if durations is not None:
            apply_quality = np.asarray([scoring.quality_features(t, durations) for t in apply_trials])
        calibrated = scoring.apply_calibration(model, apply_scores, apply_quality)
        scoring.save_scores(apply_trials, calibrated, _require(args.out, "out"))
        summary.append(("applied", len(apply_trials)))
    return summary


def _save_calibration(model, path):
    lines = [
        f"score_weight = {model.score_weight!r}",
        f"quality_weights = {','.join(repr(w) for w in model.quality_weights)}",
        f"bias = {model.bias!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_ensemble(args, cfg: RunConfig):
    trials = scoring.load_trials(args.trials)
    sets = [scoring.load_scores(p, trials) for p in args.scores]
    if args.weights:
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ConfigError(f"--weights expects comma-separated numbers, got {args.weights!r}") from None
    elif trials[0].label is not None:
        labels = scoring.trial_labels(trials)
        weights = [1.0 / max(scoring.eer(s, labels)[0], 1e-6) for s in sets]
    else:
        weights = [1.0] * len(sets)
    fused = scoring.ensemble(sets, weights)
    scoring.save_scores(trials, fused, args.out)
    return [("systems", len(sets)), ("trials", len(trials))]


def _cmd_eval(args, cfg: RunConfig):
    trials = scoring.load_trials(args.trials)
    scores = scoring.load_scores(args.scores, trials)
    labels = scoring.trial_labels(trials)
    value, threshold = scoring.eer(scores, labels)
    return [("eer", f"{value:.6f}"), ("threshold", f"{threshold:.6f}")]


def _cmd_export_weights(args, cfg: RunConfig):
    tensors = load_checkpoint(args.checkpoint)
    if "agg.logits" not in tensors:
        raise FormatError(f"{args.checkpoint}: checkpoint has no aggregator logits")
    weights = normalized_weights(tensors["agg.logits"].astype(np.float64))
    write_weights_csv(args.out, weights)
    return [("rows", weights.size)]


if __name__ == "__main__":
    sys.exit(main())
