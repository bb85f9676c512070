"""Experiment drivers: scheme dispatch, output integrity, benchmarking."""
import json
from dataclasses import replace

import numpy as np
import pytest

from fedtext import experiments
from fedtext.config import ConfigError, parse_config
from fedtext.evaluation import EvalReport, TypeScore

CONFIG = """\
[experiment]
task = ner
scheme = {scheme}
repeats = 2
base_seed = 0
output_dir = unused

[data]
synthetic = true
types = GENE
lexicon_size = 6
sentences = 60
data_seed = 4

[model]
kind = window_tagger
embed_dim = 4

[federation]
clients = 2
rounds = 2
batch_size = 16
optimizer = adam
base_lr = 0.02
"""


def cfg_for(scheme):
    return parse_config(CONFIG.format(scheme=scheme))


def test_build_data_pools_dev_and_test():
    from fedtext.corpus import dedup, generate_synthetic, make_profile, split_80_10_10

    cfg = cfg_for("fedavg")
    two = replace(cfg, data=replace(cfg.data, sources=2, sentences=(60, 40),
                                    partition="by_source"),
                  federation=replace(cfg.federation, clients=2))
    bundle = experiments.build_data(two)
    assert bundle.source_names == ["source0", "source1"]

    # mirror the pipeline: generate, dedup per source, split with seed+index
    profile = make_profile(two.data.types, two.data.lexicon_size, (60, 40),
                           sources=2, heterogeneity=0.0, cue_rate=0.5)
    expect_dev = expect_test = 0
    for i, (_, sents) in enumerate(generate_synthetic(profile, two.data.data_seed)):
        split = split_80_10_10(dedup(sents), two.data.data_seed + i)
        assert bundle.source_trains[i] == split.train
        expect_dev += len(split.dev)
        expect_test += len(split.test)
    assert len(bundle.train) == sum(len(t) for t in bundle.source_trains)
    assert len(bundle.dev) == expect_dev
    assert len(bundle.test) == expect_test


def test_single_scheme_writes_per_client_reports(tmp_path):
    out = experiments.run_experiment(cfg_for("single"), tmp_path / "single")
    rep0 = out / "repeat_0"
    assert (rep0 / "client_0_report.json").exists()
    assert (rep0 / "client_1_report.json").exists()
    assert not (rep0 / "weights.npz").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "single"


def test_single_scheme_report_averages_the_clients(tmp_path):
    cfg = cfg_for("single")
    cfg = replace(cfg, repeats=1, data=replace(cfg.data, types=("GENE", "DIS")),
                  federation=replace(cfg.federation, rounds=6, base_lr=0.2))
    rep0 = experiments.run_experiment(cfg, tmp_path / "single") / "repeat_0"
    report = json.loads((rep0 / "report.json").read_text())
    clients = [json.loads((rep0 / f"client_{k}_report.json").read_text()) for k in (0, 1)]
    assert clients[0]["strict"] != clients[1]["strict"]
    for half in ("strict", "lenient"):
        assert set(report[half]) == {"GENE", "DIS"}
        for label, scores in report[half].items():
            mean = [(clients[0][half][label][j] + clients[1][half][label][j]) / 2 for j in range(3)]
            assert scores == pytest.approx(mean, abs=1e-12)
        macro = (clients[0][f"{half}_macro_f1"] + clients[1][f"{half}_macro_f1"]) / 2
        assert report[f"{half}_macro_f1"] == pytest.approx(macro, abs=1e-12)


def test_mean_reports_counts_a_missing_type_as_zero():
    a = EvalReport({"A": TypeScore(1.0, 0.5, 0.6)}, {"A": TypeScore(1.0, 1.0, 1.0)}, 0.6, 1.0)
    b = EvalReport({"B": TypeScore(0.2, 0.4, 0.3)}, {"B": TypeScore(0.2, 0.2, 0.2)}, 0.3, 0.2)
    mean = experiments._mean_reports([a, b])
    assert mean.strict == {"A": (0.5, 0.25, 0.3), "B": (0.1, 0.2, 0.15)}
    assert mean.lenient == {"A": (0.5, 0.5, 0.5), "B": (0.1, 0.1, 0.1)}
    assert mean.strict_macro_f1 == pytest.approx(0.45)
    assert mean.lenient_macro_f1 == pytest.approx(0.6)


def test_centralized_scheme_runs(tmp_path):
    out = experiments.run_experiment(cfg_for("centralized"), tmp_path / "cent")
    assert (out / "repeat_0" / "weights.npz").exists()
    rounds = (out / "repeat_0" / "rounds.jsonl").read_text().strip().splitlines()
    assert len(rounds) == 2  # one record per round
    first = json.loads(rounds[0])
    assert first["round"] == 1
    assert len(first["client_loss"]) == 1
    assert len(first["weights_sha256"]) == 64


def test_a_write_that_fails_partway_leaves_no_partial_file(tmp_path, monkeypatch):
    cfg = replace(cfg_for("fedavg"), repeats=1)
    out = experiments.run_experiment(cfg, tmp_path / "run")
    rep0 = out / "repeat_0"
    complete = (rep0 / "weights.npz").read_bytes()
    (out / "manifest.json").unlink()

    def half_a_bundle(file, task, w):
        np.savez(file, values=w.values[: w.size // 2])
        raise RuntimeError("disk full")

    monkeypatch.setattr(experiments.tasks, "save_bundle", half_a_bundle)
    with pytest.raises(RuntimeError, match="disk full"):
        experiments.run_experiment(cfg, out)
    # the earlier complete file is untouched, no temporary file is left and
    # the manifest, written last, is not there
    assert (rep0 / "weights.npz").read_bytes() == complete
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
    assert not (out / "manifest.json").exists()

    with pytest.raises(RuntimeError, match="disk full"):
        experiments.run_experiment(cfg, tmp_path / "fresh")
    assert not (tmp_path / "fresh" / "repeat_0" / "weights.npz").exists()
    assert (tmp_path / "fresh" / "repeat_0" / "rounds.jsonl").exists()


def test_render_report_flags_tampered_summaries(tmp_path):
    out = experiments.run_experiment(cfg_for("fedavg"), tmp_path / "run")
    clean = experiments.render_report([out])
    assert "!" not in clean
    assert "ner/fedavg" in clean

    summary_path = out / "summary.json"
    payload = json.loads(summary_path.read_text())
    payload["metrics"]["strict_f1"]["mean"] += 0.25
    summary_path.write_text(json.dumps(payload))
    flagged = experiments.render_report([out])
    assert "! " in flagged
    assert "does not match" in flagged


def test_render_report_notes_missing_runs(tmp_path):
    report = experiments.render_report([tmp_path / "nowhere"])
    assert "no manifest.json" in report


def test_render_report_marks_incomplete_runs(tmp_path):
    out = experiments.run_experiment(cfg_for("fedavg"), tmp_path / "run")
    (out / "repeat_1" / "report.json").unlink()
    report = experiments.render_report([out])
    assert "incomplete" in report
    assert "missing repeat file" in report


def test_bench_inference_stats(tmp_path):
    cfg = cfg_for("fedavg")
    out = experiments.run_experiment(cfg, tmp_path / "run")
    data_path = tmp_path / "bench.conll"
    from fedtext.corpus import generate_synthetic, make_profile, serialize_conll

    profile = make_profile(["GENE"], lexicon_size=6, sentences=30)
    sents = generate_synthetic(profile, 4)[0][1]
    data_path.write_text(serialize_conll(sents))
    stats = experiments.bench_inference(out / "repeat_0" / "weights.npz", data_path,
                                        limit=25)
    assert stats["instances"] == 25
    assert stats["total_seconds"] > 0
    assert stats["seconds_per_instance"] == pytest.approx(
        stats["total_seconds"] / 25
    )


def test_sweep_mu_rejects_negative_and_warns_on_duplicates(tmp_path, capsys):
    cfg = cfg_for("fedavg")
    with pytest.raises(ConfigError):
        experiments.sweep_mu(cfg, [-0.5], tmp_path / "mu.csv")
    experiments.sweep_mu(cfg, [0.1, 0.1], tmp_path / "mu.csv")
    assert "duplicate mu" in capsys.readouterr().err
    lines = (tmp_path / "mu.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the single deduplicated row
