"""tools/bench.py: folding perfbench run records and comparing two BENCH files."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

ENV = {"nproc": 2, "blas": "scipy-openblas", "blas_version": "0.3.31", "blas_threads": 1,
       "python": "3.12.3", "numpy": "2.4.6", "scipy": "1.17.1", "src_loc": 3013}


def record(workload, seed, trace, metrics, digests, failed=0):
    return {"workload": workload, "seed": seed, "trace": trace, "environment": {**ENV, "seed": seed},
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
            "digests": digests, "failed": failed, "attempted": 10}


def bench_file(path, wall_ref, peak_rss, planted_weight, digest, src_loc):
    doc = {
        "environment": {k: v for k, v in ENV.items() if k != "src_loc"},
        "src_loc": src_loc,
        "workloads": {
            "train_desk": {
                "end_to_end": {"wall_ref": {"unit": "ref", "per_seed": {"1": wall_ref}, "median": wall_ref},
                               "peak_rss_mb": {"unit": "MiB", "per_seed": {"1": peak_rss}, "median": peak_rss}},
                "per_layer": {"training.planted_weight": {"unit": "ratio", "per_seed": {"1": planted_weight},
                                                          "median": planted_weight}},
                "digests": {"1": {"checkpoint.svck": digest, "scores.txt": "same"}},
                "failed": {"1": 0}, "attempted": {"1": 10},
            },
        },
    }
    path.write_text(json.dumps(doc))
    return path


def test_compare_marks_numbers_over_10_percent_worse_and_changed_digests(tmp_path, capsys):
    old = bench_file(tmp_path / "BENCH_old.json", 1000.0, 200.0, 0.12, "aaaa", 3013)
    new = bench_file(tmp_path / "BENCH_new.json", 1050.0, 230.0, 0.10, "bbbb", 3000)
    assert bench.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    marked = {line.split()[1] for line in lines if line.endswith("WORSE")}
    # wall_ref is 5% worse, peak RSS 15% worse, the planted weight (higher is better) 17% lower
    assert marked == {"peak_rss_mb", "training.planted_weight"}
    assert lines[-1] == "digest changed: train_desk seed 1 checkpoint.svck"
    assert lines[0].split()[:3] == ["src_loc", "3013", "3000"]


def test_compare_of_a_file_with_itself_passes(tmp_path, capsys):
    old = bench_file(tmp_path / "BENCH_old.json", 1000.0, 200.0, 0.12, "aaaa", 3013)
    assert bench.main(["--compare", str(old), str(old)]) == 0
    assert "WORSE" not in capsys.readouterr().out


def test_fold_keeps_each_seed_its_median_and_the_environment_once(tmp_path):
    paths = []
    for seed, wall in ((1, 10.0), (2, 30.0), (3, 20.0)):
        paths.append(tmp_path / f"train_desk-seed{seed}-trace0.json")
        paths[-1].write_text(json.dumps(record("train_desk", seed, 0, {"wall_ref": wall}, {"a": str(seed)})))
    paths.append(tmp_path / "train_desk-seed1-trace1.json")
    paths[-1].write_text(json.dumps(record("train_desk", 1, 1, {"autodiff.nodes_per_utt": 242.5}, {"a": "1"})))
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out), *map(str, paths)]) == 0
    doc = json.loads(out.read_text())
    assert doc["src_loc"] == 3013 and "src_loc" not in doc["environment"] and "seed" not in doc["environment"]
    w = doc["workloads"]["train_desk"]
    assert w["end_to_end"]["wall_ref"]["per_seed"] == {"1": 10.0, "2": 30.0, "3": 20.0}
    assert w["end_to_end"]["wall_ref"]["median"] == 20.0
    assert w["per_layer"]["autodiff.nodes_per_utt"]["median"] == 242.5
    assert w["digests"] == {"1": {"a": "1"}, "2": {"a": "2"}, "3": {"a": "3"}}
    assert w["attempted"] == {"1": 20, "2": 10, "3": 10}


def test_fold_refuses_records_from_two_checkouts():
    a = record("score_bulk", 1, 0, {"wall_ref": 1.0}, {})
    b = record("score_bulk", 2, 0, {"wall_ref": 1.0}, {})
    b["environment"]["src_loc"] = 3100
    with pytest.raises(ValueError, match="environment differs"):
        bench.fold([a, b])


@pytest.mark.parametrize("case", ["no_records", "two_environments"])
def test_fold_refusals_are_one_usage_line_and_exit_2(tmp_path, capsys, case):
    paths = []
    if case == "two_environments":
        for seed, nproc in ((1, 2), (2, 4)):
            rec = record("score_bulk", seed, 0, {"wall_ref": 1.0}, {})
            rec["environment"]["nproc"] = nproc
            paths.append(tmp_path / f"score_bulk-seed{seed}-trace0.json")
            paths[-1].write_text(json.dumps(rec))
    with pytest.raises(SystemExit) as info:
        bench.main(["--out", str(tmp_path / "BENCH.json"), *map(str, paths)])
    assert info.value.code == 2
    message = {"no_records": "no run records to fold",
               "two_environments": "score_bulk seed 2: environment differs from the first record's"}[case]
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("modes, second", [(["--compare", "old.json", "new.json", "--out", "x.json"], "--out"),
                                           (["--probe-ecapa", "--probe-train"], "--probe-train"),
                                           (["--probe-train", "--probe-embed"], "--probe-embed")],
                         ids=["compare_and_out", "two_probes", "train_and_embed_probes"])
def test_a_second_mode_is_a_usage_error(tmp_path, capsys, monkeypatch, modes, second):
    # a second mode was dropped: `--compare` ran and ignored `--out`, `--probe-ecapa` ran and `--probe-train` not
    monkeypatch.chdir(tmp_path)
    old = bench_file(tmp_path / "old.json", 1000.0, 200.0, 0.12, "aaaa", 3013)
    bench_file(tmp_path / "new.json", 1050.0, 230.0, 0.10, "bbbb", 3000)
    with pytest.raises(SystemExit) as info:
        bench.main([*modes, str(old)])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: argument {second}: not allowed with argument {modes[0]}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.json"]


@pytest.mark.parametrize("case", ["not_json", "missing_field"])
def test_fold_names_a_record_that_is_not_one_and_exits_2(tmp_path, capsys, case):
    good = tmp_path / "score_bulk-seed1-trace0.json"
    good.write_text(json.dumps(record("score_bulk", 1, 0, {"wall_ref": 1.0}, {})))
    bad = tmp_path / "bad.json"
    if case == "not_json":
        bad.write_text("nope\n")
    else:
        rec = record("score_bulk", 2, 0, {"wall_ref": 1.0}, {})
        del rec["digests"]
        bad.write_text(json.dumps(rec))
    with pytest.raises(SystemExit) as info:
        bench.main(["--out", str(tmp_path / "BENCH.json"), str(good), str(bad)])
    assert info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"error: {bad}: not a perfbench run record: " in last
    if case == "missing_field":
        assert last.endswith("no field 'digests'")
    assert not (tmp_path / "BENCH.json").exists()


def test_ecapa_probe_times_each_size_in_a_child(capsys):
    from svkit.ecapa import EcapaConfig

    tiny = EcapaConfig(in_dim=6, channels=16, se_bottleneck=8, attention_channels=8, embed_dim=8)
    scale4 = EcapaConfig(in_dim=6, channels=8, res2_scale=4, se_bottleneck=4, attention_channels=4, embed_dim=4)
    results = bench.probe_ecapa([(tiny, 5), (scale4, 3)])
    lines = capsys.readouterr().out.splitlines()
    assert [(r["channels"], r["frames"], r["op_nodes"], r["crop_op_nodes"]) for r in results] == [(16, 5, 32, 64),
                                                                                                   (8, 3, 32, 64)]
    for res, line in zip(results, lines, strict=True):
        assert 0 < res["forward_ms"] and 0 < res["backward_ms"]
        assert res["forward_ms"] + res["backward_ms"] <= res["step_ms"] * (1 + 1e-9)
        assert line == (f"ecapa forward+backward C={res['channels']} T={res['frames']} "
                        f"step_ms={res['step_ms']:.2f} forward_ms={res['forward_ms']:.2f} "
                        f"backward_ms={res['backward_ms']:.2f} op_nodes=32 crop_op_nodes=64")


def test_train_probe_runs_one_epoch_in_a_child_per_batch_size(capsys):
    from svkit.ecapa import EcapaConfig

    tiny = EcapaConfig(channels=16, se_bottleneck=8, attention_channels=8, embed_dim=8)
    results = bench.probe_train((3, 6, 8), tiny, (1, 4))
    lines = capsys.readouterr().out.splitlines()
    assert [r["batch_size"] for r in results] == [1, 4]
    for res, line in zip(results, lines, strict=True):
        assert res["train_s"] > 0 and res["rss_growth_mib"] >= 0
        assert line == (f"train epoch rows=4 stack=3x6x8 C=16 batch_size={res['batch_size']} "
                        f"train_s={res['train_s']:.2f} rss_growth_mib={res['rss_growth_mib']:.1f}")


def test_embed_probe_embeds_one_row_in_a_child(capsys):
    from svkit.ecapa import EcapaConfig

    tiny = EcapaConfig(channels=16, se_bottleneck=8, attention_channels=8, embed_dim=8)
    res = bench.probe_embed((3, 6, 8), tiny)
    assert res["load_mix_ms"] > 0 and res["ecapa_ms"] > 0 and res["rss_growth_mib"] >= 0 and res["minflt"] >= 0
    assert capsys.readouterr().out.splitlines() == [
        f"embed row stack=3x6x8 C=16 load_mix_ms={res['load_mix_ms']:.1f} ecapa_ms={res['ecapa_ms']:.1f} "
        f"rss_growth_mib={res['rss_growth_mib']:.1f} minflt={res['minflt']}"]


def test_scoring_probe_runs_the_chain_in_a_child_at_each_size(capsys):
    results = bench.probe_scoring([600, 1200])
    lines = capsys.readouterr().out.splitlines()
    assert [(r["trials"], r["ids"]) for r in results] == [(600, 40), (1200, 70)]  # ~33 trial sides per id
    for res, line in zip(results, lines):
        assert line.startswith(f"scoring chain trials={res['trials']} ids={res['ids']} ")
        assert res["chain_s"] > 0 and res["ms_per_1k_trials"] > 0 and res["rss_growth_mib"] >= 0
        assert 0 <= res["eer_pct"] <= 50
    assert len(lines) == 3 and lines[-1].startswith("scaling ms_per_1k_trials at 1200 / at 600 = ")


def test_scoring_probe_keeps_score_bulk_at_its_size():
    bulk = bench.score_bulk(20000)
    assert (bulk.n_trials, bulk.n_speakers, bulk.utts_per_speaker) == (20000, 120, 10)
