"""Command-line surface.

Every command reads an optional config file plus --set overrides, does one
stage of the pipeline, and prints a single machine-parsable summary line
"status=ok key=value ..." on success. Exit codes: 0 success, 2 config error,
3 input-format error, 4 numerical/degenerate-data error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from . import scoring
from .aggregator import normalized_weights, write_weights_csv
from .audio import AugmentBanks, fbank, load_bank, read_wav
from .binfile import write_lines, write_npy
from .config import RunConfig, dump_config, load_config
from .ecapa import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, FormatError
from .pipeline import System, extract_embeddings, utterance_durations
from .synthcorpus import SynthSpec, synth_corpus
from .training import train
from .upstream import Manifest, ManifestRow, MockUpstream, is_stack_file, load_manifest, save_manifest, save_stack

logger = logging.getLogger("svkit")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # basicConfig adds the stderr handler only where the root logger has none; the level is
    # set on `svkit`'s own logger, so --verbose holds for a caller that configured logging first
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
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
    # a flag is spelled in full: an abbreviation would let a removed flag (`--out`) stand for another (`--out-dir`)
    parser = argparse.ArgumentParser(prog="svkit", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="config file (section.key = value lines)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

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
    p.add_argument("--manifest", required=True, help="manifest of waveforms to export")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_upstream_export)

    p = sub.add_parser("train", help="run the staged training pipeline")
    p.add_argument("--manifest", required=True)
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
    write_npy(args.out, feats)
    return [("frames", feats.shape[0]), ("dim", feats.shape[1])]


def _cmd_upstream_export(args, cfg: RunConfig):
    manifest = load_manifest(args.manifest, check_paths=True)
    out_dir = Path(args.out_dir)
    for row in manifest.rows:  # refused before any stack is written
        rel = f"{row.utt_id}.svhs"
        if Path(rel).name != rel or "\0" in rel:
            raise FormatError(f"{args.manifest}: utt_id {row.utt_id!r} does not make a plain file name; "
                              "stacks are written only inside --out-dir")
        if is_stack_file(row.path):
            raise FormatError(f"{args.manifest}: row {row.utt_id!r} ({manifest.resolve(row)}) is a stored stack; "
                              "upstream-export reads WAV rows only")
    upstream, rows = MockUpstream(cfg.upstream), []  # drawn once the names are accepted
    for row in manifest.rows:
        path = manifest.resolve(row)
        stack = upstream.stack(read_wav(path), f"{row.utt_id} ({path})")
        rel = f"{row.utt_id}.svhs"
        save_stack(stack, out_dir / rel)
        rows.append(ManifestRow(row.utt_id, row.speaker_id, rel))
    save_manifest(Manifest(tuple(rows), base_dir=out_dir), out_dir / "manifest.tsv")
    return [("stacks", len(rows)), ("layers", cfg.upstream.n_layers + 1), ("dim", cfg.upstream.dim)]


def _cmd_train(args, cfg: RunConfig):
    manifest = load_manifest(args.manifest, check_paths=True)
    banks = AugmentBanks(
        noises=load_bank(cfg.paths.noise_dir) if cfg.paths.noise_dir else (),
        rirs=load_bank(cfg.paths.rir_dir) if cfg.paths.rir_dir else (),
    )
    out_dir = Path(args.out_dir)
    write_lines(out_dir / "config.txt", dump_config(cfg).splitlines())  # first: an unwritable out-dir fails fast
    result = train(
        manifest,
        cfg.schedule,
        upstream_cfg=cfg.upstream,
        ecapa_cfg=cfg.ecapa,
        aam=cfg.aam,
        augment_cfg=cfg.augment,
        banks=banks,
        plant=cfg.plant,
        seed=cfg.seed,
    )
    save_checkpoint(result.checkpoint_tensors(), out_dir / "checkpoint.svck")
    log_lines = ["epoch,stage,loss,lr"] + [f"{e},{s},{l:.6f},{lr:g}" for e, s, l, lr in result.log]
    write_lines(out_dir / "train_log.csv", log_lines)
    final_loss = result.log[-1][2] if result.log else float("nan")
    return [("epochs", len(result.log)), ("speakers", len(result.speakers)), ("final_loss", f"{final_loss:.6f}")]


def _cmd_embed(args, cfg: RunConfig):
    tensors = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest, check_paths=True)
    try:
        system = System.from_checkpoint(tensors, cfg.upstream, cfg.ecapa, plant=cfg.plant)
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
    applying = {"apply-scores": args.apply_scores, "apply-trials": args.apply_trials, "out": args.out}
    if any(applying.values()):  # all or none, refused before anything is fitted or written
        for key, value in applying.items():
            _require(value, f"{key} (--apply-scores, --apply-trials and --out go together)")
    durations = utterance_durations(load_manifest(args.manifest, check_paths=True)) if args.manifest else {}

    def load(trials_path, scores_path):
        """A trial list, its scores and their quality rows: duration features with --manifest, else (n, 0)."""
        trials = scoring.load_trials(trials_path)
        scores = scoring.load_scores(scores_path, trials)
        quality = [scoring.quality_features(t, durations) if args.manifest else () for t in trials]
        return trials, scores, np.array(quality)

    trials, scores, quality = load(args.trials, args.scores)
    model = scoring.fit_calibration(scores, scoring.trial_labels(trials), quality)
    _save_calibration(model, args.model_out)
    summary = [("a", f"{model.score_weight:.6f}"), ("bias", f"{model.bias:.6f}")]
    if args.apply_scores:
        apply_trials, apply_scores, apply_quality = load(args.apply_trials, args.apply_scores)
        calibrated = scoring.apply_calibration(model, apply_scores, apply_quality)
        scoring.save_scores(apply_trials, calibrated, args.out)
        summary.append(("applied", len(apply_trials)))
    return summary


def _save_calibration(model, path):
    quality = ",".join(repr(w) for w in model.quality_weights)
    lines = [f"score_weight = {model.score_weight!r}", f"quality_weights = {quality}", f"bias = {model.bias!r}"]
    write_lines(path, lines)


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
    _log_worst_trials(trials, scores, labels)
    return [("eer", f"{value:.6f}"), ("threshold", f"{threshold:.6f}")]


WORST_TRIALS = 5  # how many target and how many non-target trials `eval --verbose` names


def _log_worst_trials(trials, scores, labels):
    """At --verbose, log the WORST_TRIALS lowest-scoring target trials and highest-scoring non-target trials,
    worst first (ties in trial order), with their ids and scores."""
    if not logger.isEnabledFor(logging.INFO):
        return
    for kind, label, sign in (("target", 1, 1.0), ("non-target", 0, -1.0)):
        picks = np.flatnonzero(labels == label)
        for i in picks[np.argsort(sign * scores[picks], kind="stable")[:WORST_TRIALS]]:
            t = trials[i]
            logger.info("worst %s trial: %s %s score %.6f", kind, t.enroll_id, t.test_id, scores[i])


def _cmd_export_weights(args, cfg: RunConfig):
    tensors = load_checkpoint(args.checkpoint)
    if "agg.logits" not in tensors:
        raise FormatError(f"{args.checkpoint}: checkpoint has no aggregator logits")
    logits = tensors["agg.logits"]
    if logits.ndim != 1 or logits.size < 2:
        raise FormatError(f"{args.checkpoint}: agg.logits must be a vector of at least 2 layer logits, "
                          f"got shape {logits.shape}")
    weights = normalized_weights(logits)
    write_weights_csv(args.out, weights)
    return [("rows", weights.size)]


if __name__ == "__main__":
    sys.exit(main())
