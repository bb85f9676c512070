"""Experiment drivers: scheme dispatch, output integrity, benchmarking."""
import json
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fedtext import experiments, federation, tasks
from fedtext.cli import main
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


@pytest.mark.parametrize("scheme", ["fedavg", "single", "centralized"])
def test_run_experiment_sets_up_once_for_all_repeats(tmp_path, monkeypatch, scheme):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "build_task", counted("build_task", experiments.build_task))
    monkeypatch.setattr(tasks.Task, "prepare", counted("prepare", tasks.Task.prepare))
    per_repeats = {}
    for repeats in (1, 3):
        calls.clear()
        experiments.run_experiment(replace(cfg_for(scheme), repeats=repeats), tmp_path / str(repeats))
        per_repeats[repeats] = dict(calls)
    assert per_repeats[3]["build_task"] == 1
    assert per_repeats[3] == per_repeats[1]


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


@pytest.mark.parametrize("scheme", ["fedavg", "single"])
def test_rounds_jsonl_streams_the_records_of_each_round_loop(tmp_path, scheme):
    cfg = cfg_for(scheme)
    out = experiments.run_experiment(cfg, tmp_path / "run")
    s = experiments._setup(cfg)
    parts = experiments.partition_train(cfg, s.bundle, s.task, cfg.federation.clients)
    runs = [[part] for part in parts] if scheme == "single" else [parts]
    assert len(runs) == (2 if scheme == "single" else 1)
    for i in range(cfg.repeats):
        seed = cfg.base_seed + i
        expect = [{"run": k, **record} for k, run in enumerate(runs)
                  for record, _ in federation.rounds(s.task, cfg.federation, run, s.dev, seed)]
        lines = (out / f"repeat_{i}" / "rounds.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == expect


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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    return experiments.run_experiment(cfg_for("fedavg"), tmp_path_factory.mktemp("done") / "run")


@pytest.mark.parametrize("key", ["strict_f1", "macro_f1"],
                         ids=["edited values entry", "extra metric key"])
def test_render_report_compares_every_key_of_the_summary(tmp_path, finished_run, key):
    run = shutil.copytree(finished_run, tmp_path / "run")
    payload = json.loads((run / "summary.json").read_text())
    metrics = payload["metrics"]
    if key == "strict_f1":
        metrics["strict_f1"]["values"][0] += 0.25  # its mean and std left as they were
    else:
        metrics["macro_f1"] = metrics["strict_f1"]  # a metric no NER repeat file gives
    (run / "summary.json").write_text(json.dumps(payload))
    lines = experiments.render_report([run]).splitlines()
    assert lines[1:] == [f"! {run}: summary does not match repeat files for {key}"]


@pytest.mark.parametrize("name, content, message", [
    ("summary.json", None, "cannot read summary.json: [Errno 2]"),
    ("summary.json", "{not json", "cannot read summary.json: Expecting property name"),
    ("manifest.json", '{"config_hash": "x"}', "cannot read manifest.json: "),
    ("repeat_1/report.json", "[1, 2", "cannot read repeat_1/report.json: "),
    ("repeat_1/report.json", '{"seed": 1}', "cannot read repeat_1/report.json: 'strict_macro_f1'"),
], ids=["no summary", "unparseable summary", "manifest without fields", "unparseable repeat",
        "repeat without metrics"])
def test_report_lists_an_unreadable_run_and_prints_the_others(tmp_path, capsys, finished_run,
                                                              name, content, message):
    bad = shutil.copytree(finished_run, tmp_path / "bad")
    if content is None:
        (bad / name).unlink()
    else:
        (bad / name).write_text(content)
    good_row = experiments.render_report([finished_run]).splitlines()[0]
    assert main(["report", str(finished_run), str(bad)]) == 0
    *rows, problem = capsys.readouterr().out.splitlines()
    assert problem.startswith(f"! {bad}: {message}")
    # a run with an unreadable repeat file is listed as incomplete, others not at all
    assert rows == [good_row] + (["ner/fedavg  incomplete"] if name.startswith("repeat_") else [])


def test_render_report_marks_a_run_without_repeat_files_incomplete(tmp_path, finished_run):
    run = shutil.copytree(finished_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["repeat_files"] = []
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert experiments.render_report([run]) == "ner/fedavg  incomplete\n"


def _write_run(run_dir, task, metrics_by_seed):
    """A finished run directory by hand: one report.json per seed with the
    given report keys, its summary, and a manifest."""
    run_dir.mkdir()
    reports = [{"seed": seed, "strict": {}, "lenient": {}, **values}
               for seed, values in metrics_by_seed.items()]
    names = []
    for i, report in enumerate(reports):
        (run_dir / f"repeat_{i}").mkdir()
        (run_dir / f"repeat_{i}" / "report.json").write_text(json.dumps(report))
        names.append(f"repeat_{i}/report.json")
    metrics = experiments._summary_metrics(tasks.KINDS[task], reports)
    (run_dir / "summary.json").write_text(json.dumps({"metrics": metrics}))
    manifest = {"config_hash": "x", "seeds": list(metrics_by_seed), "package_version": "0",
                "scheme": "fedavg", "task": task, "repeat_files": names,
                "summary_file": "summary.json", "wall_times": [0.0] * len(names)}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return run_dir


def test_render_report_cells_read_lenient_strict_for_ner_and_macro_for_re(tmp_path):
    ner = _write_run(tmp_path / "ner", "ner", {
        0: {"strict_macro_f1": 0.75, "lenient_macro_f1": 0.875},
        1: {"strict_macro_f1": 0.85, "lenient_macro_f1": 0.925},
    })
    re_run = _write_run(tmp_path / "re", "re", {
        0: {"strict_macro_f1": 0.5, "lenient_macro_f1": 0.5},
        1: {"strict_macro_f1": 0.7, "lenient_macro_f1": 0.7},
    })
    assert experiments.render_report([ner, re_run]) == (
        "ner/fedavg  0.900±0.035 (0.800±0.071)\n"
        "re/fedavg   0.600±0.141\n"
    )


def test_render_report_flags_a_repeat_of_another_seed(tmp_path):
    run = _write_run(tmp_path / "run", "ner", {
        0: {"strict_macro_f1": 0.75, "lenient_macro_f1": 0.875},
        1: {"strict_macro_f1": 0.85, "lenient_macro_f1": 0.925},
    })
    report = json.loads((run / "repeat_0" / "report.json").read_text())
    (run / "repeat_0" / "report.json").write_text(json.dumps(dict(report, seed=7)))
    assert experiments.render_report([run]).splitlines() == [
        "ner/fedavg  incomplete",
        f"! {run}: repeat_0/report.json has seed 7, not the manifest's 0",
    ]


def test_an_interrupted_rerun_leaves_no_manifest_over_its_repeats(tmp_path, monkeypatch):
    out = experiments.run_experiment(cfg_for("fedavg"), tmp_path / "run")
    train = federation.rounds
    calls = []

    def stop_in_the_second_repeat(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("stopped")
        return train(*args, **kwargs)

    monkeypatch.setattr(federation, "rounds", stop_in_the_second_repeat)
    with pytest.raises(RuntimeError, match="stopped"):
        experiments.run_experiment(replace(cfg_for("fedavg"), base_seed=7), out)
    assert json.loads((out / "repeat_0" / "report.json").read_text())["seed"] == 7
    assert not (out / "manifest.json").exists()
    assert not (out / "summary.json").exists()
    assert experiments.render_report([out]) == f"\n! {out}: no manifest.json\n"


def test_a_repeat_stopped_in_training_leaves_no_rounds_file(tmp_path, monkeypatch):
    train = federation.rounds

    def stopped_after_one_round(*args, **kwargs):
        yield next(train(*args, **kwargs))
        raise RuntimeError("stopped")

    monkeypatch.setattr(federation, "rounds", stopped_after_one_round)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="stopped"):
        experiments.run_experiment(cfg_for("fedavg"), out)
    # the round already written goes with the temporary file, and the
    # directories the run made, now empty, go with it
    assert not out.exists()
    assert tmp_path.exists()


def test_render_report_notes_missing_runs(tmp_path):
    report = experiments.render_report([tmp_path / "nowhere"])
    assert "no manifest.json" in report


def test_render_report_marks_incomplete_runs(tmp_path):
    out = experiments.run_experiment(cfg_for("fedavg"), tmp_path / "run")
    (out / "repeat_1" / "report.json").unlink()
    report = experiments.render_report([out])
    assert "incomplete" in report
    assert "missing repeat file" in report


def test_bench_inference_stats(tmp_path, monkeypatch):
    cfg = cfg_for("fedavg")
    out = experiments.run_experiment(cfg, tmp_path / "run")
    data_path = tmp_path / "bench.conll"
    from fedtext.corpus import generate_synthetic, make_profile, serialize_conll

    profile = make_profile(["GENE"], lexicon_size=6, sentences=30)
    sents = generate_synthetic(profile, 4)[0][1]
    data_path.write_text(serialize_conll(sents))
    encoded = []
    prepare = tasks.Task.prepare

    def counting_prepare(self, items):
        encoded.append(len(items))
        return prepare(self, items)

    monkeypatch.setattr(tasks.Task, "prepare", counting_prepare)
    stats = experiments.bench_inference(out / "repeat_0" / "weights.npz", data_path,
                                        limit=25)
    assert stats["instances"] == 25
    assert encoded == [25]  # the items past the limit are never encoded
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


def test_sweep_clients_runs_each_distinct_count_once(tmp_path, capsys):
    cfg = replace(cfg_for("fedavg"), repeats=1)
    experiments.sweep_clients(cfg, [2, 3, 2, 2], tmp_path / "k.csv")
    err = capsys.readouterr().err
    assert err.count("warning: duplicate client count 2 dropped") == 2
    lines = (tmp_path / "k.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]

