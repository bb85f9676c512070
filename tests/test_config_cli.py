"""Config parsing/validation, hashing, and the command-line surface."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedtext import experiments, llm_bridge, tasks
from fedtext.cli import main
from fedtext.config import (
    ConfigError,
    RunManifest,
    config_hash,
    parse_config,
    validate_config,
)
from oracles import render_highlights, segment, write_responses

BASE_CONFIG = """\
[experiment]
task = ner
scheme = fedavg
repeats = 2
base_seed = 0
output_dir = {out}

[data]
synthetic = true
types = GENE,DIS
lexicon_size = 8
sentences = 80
sources = 1
data_seed = 5

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


def write_config(tmp_path, out="runs/x", text=None, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text if text is not None else BASE_CONFIG.format(out=out))
    return path


# ---------------------------------------------------------------------------
# parsing and validation

def test_parse_config_happy_path():
    cfg = parse_config(BASE_CONFIG.format(out="runs/x"))
    assert cfg.scheme == "fedavg"
    assert cfg.repeats == 2
    assert cfg.data.types == ("GENE", "DIS")
    assert cfg.data.sentences == (80,)
    assert cfg.data.synthetic is True
    assert cfg.model.kind == "window_tagger"
    assert cfg.federation.base_lr == pytest.approx(0.02)
    # untouched keys keep their defaults
    assert cfg.data.cue_rate == pytest.approx(0.5)
    assert cfg.federation.mu == 0.0


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[extras]\nfoo = 1\n")


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="whatever"):
        parse_config("[data]\nwhatever = 3\n")


def test_parse_config_rejects_bad_values_naming_the_field():
    with pytest.raises(ConfigError, match=r"\[federation\] rounds"):
        parse_config("[federation]\nrounds = soon\n")
    with pytest.raises(ConfigError, match=r"\[data\] synthetic"):
        parse_config("[data]\nsynthetic = maybe\n")


def test_validate_scheme_mu_combinations():
    base = parse_config(BASE_CONFIG.format(out="x"))
    from dataclasses import replace

    with pytest.raises(ConfigError, match="fedprox requires mu > 0"):
        validate_config(replace(base, scheme="fedprox"))
    with pytest.raises(ConfigError, match="fedavg"):
        validate_config(replace(base, federation=replace(base.federation, mu=0.5)))
    with pytest.raises(ConfigError, match="centralized"):
        validate_config(
            replace(base, scheme="centralized",
                    federation=replace(base.federation, mu=0.5))
        )
    with pytest.raises(ConfigError, match="single"):
        validate_config(
            replace(base, scheme="single",
                    federation=replace(base.federation, mu=0.5))
        )
    # fedprox with positive mu is fine
    validate_config(
        replace(base, scheme="fedprox", federation=replace(base.federation, mu=0.1))
    )


def test_validate_partition_and_task_consistency():
    base = parse_config(BASE_CONFIG.format(out="x"))
    from dataclasses import replace

    with pytest.raises(ConfigError, match="by_source"):
        validate_config(replace(base, data=replace(base.data, partition="by_source")))
    two_src = replace(base.data, partition="by_source", sources=2, sentences=(40, 40))
    with pytest.raises(ConfigError, match="clients must equal"):
        validate_config(
            replace(base, data=two_src,
                    federation=replace(base.federation, clients=3))
        )
    with pytest.raises(ConfigError, match="task = re"):
        validate_config(replace(base, task="re"))
    with pytest.raises(ConfigError, match="tagger"):
        validate_config(replace(base, model=replace(base.model, kind="relation_classifier")))
    with pytest.raises(ConfigError, match="files or synthetic"):
        validate_config(replace(base, data=replace(base.data, synthetic=False)))


def test_config_hash_masks_the_output_dir_only():
    a = parse_config(BASE_CONFIG.format(out="runs/a"))
    b = parse_config(BASE_CONFIG.format(out="runs/b"))
    assert config_hash(a) == config_hash(b)
    c = parse_config(BASE_CONFIG.format(out="runs/a").replace("lexicon_size = 8",
                                                              "lexicon_size = 9"))
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


def test_config_hash_of_the_base_config_is_pinned():
    # the hash covers every field, so a renamed, added or re-defaulted field shows here
    cfg = parse_config(BASE_CONFIG.format(out="runs/x"))
    assert config_hash(cfg) == "aab4bd33b074fff015b7217fa5f2e2c51c91613aa27f8cccb821c25a2b9e04df"


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "task", "pos"),
    ("experiment", "repeats", "0"),
    ("experiment", "base_seed", "-1"),
    ("data", "data_seed", "-1"),
    ("data", "types", "a b"),
    ("data", "types", "GENE,GENE"),
    ("data", "heterogeneity", "2"),
    ("data", "cue_rate", "-0.5"),
    ("data", "max_tokens", "0"),
    ("data", "lexicon_size", "0"),
    ("data", "sentences", "80,0"),
    ("data", "types", ","),
    ("data", "partition", "random"),
    ("model", "kind", "lstm"),
    ("model", "embed_dim", "0"),
    ("model", "window_radius", "-1"),
    ("federation", "batch_size", "0"),
    ("federation", "clients", "100"),  # more than the pooled train split's items
    ("federation", "base_lr", "0"),
    ("federation", "base_lr", "inf"),
])
def test_out_of_range_values_are_config_errors_naming_the_key(tmp_path, capsys,
                                                              section, key, value):
    text = BASE_CONFIG.format(out=str(tmp_path / "out"))
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# end-to-end CLI

def test_run_writes_reports_and_is_reproducible(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out_a"))
    assert main(["run", "-c", str(cfg_path)]) == 0
    out_a = tmp_path / "out_a"
    for rel in ("summary.json", "manifest.json", "repeat_0/report.json",
                "repeat_0/report.csv", "repeat_0/table.txt",
                "repeat_0/rounds.jsonl", "repeat_0/weights.npz",
                "repeat_1/report.json"):
        assert (out_a / rel).exists(), rel

    # identical config, different output dir: byte-identical metric files
    assert main(["run", "-c", str(cfg_path), "--output-dir", str(tmp_path / "out_b")]) == 0
    out_b = tmp_path / "out_b"
    for rel in ("summary.json", "repeat_0/report.json", "repeat_0/report.csv",
                "repeat_1/report.json", "repeat_0/rounds.jsonl"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    ma = RunManifest(**json.loads((out_a / "manifest.json").read_text()))
    mb = RunManifest(**json.loads((out_b / "manifest.json").read_text()))
    assert ma.config_hash == mb.config_hash
    assert ma.seeds == [0, 1]

    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["scheme"] == "fedavg"
    metrics = summary["metrics"]
    assert "strict_f1" in metrics and "lenient_f1" in metrics
    assert len(metrics["strict_f1"]["values"]) == 2
    capsys.readouterr()


def test_report_command_renders_finished_runs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    main(["run", "-c", str(cfg_path)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "fedavg" in out
    assert "±" in out


def test_report_works_from_another_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, out="runs/rel")
    assert main(["run", "-c", str(cfg_path)]) == 0
    manifest = RunManifest(**json.loads((tmp_path / "runs/rel/manifest.json").read_text()))
    assert manifest.repeat_files == ["repeat_0/report.json", "repeat_1/report.json"]
    assert manifest.summary_file == "summary.json"
    capsys.readouterr()

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["report", "../runs/rel"]) == 0
    out = capsys.readouterr().out
    assert "fedavg" in out and "!" not in out


def test_sweep_clients_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep-clients", "-c", str(cfg_path), "--clients", "2,3",
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "clients,repeats,lenient_mean,lenient_std,strict_mean,strict_std,error"
    assert len(lines) == 3
    assert lines[1].startswith("2,2,")
    assert lines[2].startswith("3,2,")
    capsys.readouterr()


def test_sweep_clients_rejects_k1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["sweep-clients", "-c", str(cfg_path), "--clients", "1,2",
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "centralized" in err


def test_sweep_mu_labels_zero_as_fedavg(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    csv_path = tmp_path / "mu.csv"
    assert main(["sweep-mu", "-c", str(cfg_path), "--mus", "0,0.5",
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("mu,label,repeats")
    assert "fedavg-equivalent" in lines[1]
    assert "fedprox" in lines[2]
    capsys.readouterr()


@pytest.mark.parametrize("mus, message", [
    ("inf", "mu must be finite and >= 0, got inf"),
    ("", "--mus is empty"),
], ids=["inf", "empty"])
def test_sweep_mu_rejects_an_infinite_or_empty_grid(tmp_path, capsys, mus, message):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    csv_path = tmp_path / "mu.csv"
    assert main(["sweep-mu", "-c", str(cfg_path), "--mus", mus, "--out", str(csv_path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not csv_path.exists()


def test_gen_synth_round_trips_through_the_parser(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    synth_dir = tmp_path / "synth"
    assert main(["gen-synth", "-c", str(cfg_path), "--out-dir", str(synth_dir)]) == 0
    from fedtext.corpus import parse_conll

    sents = parse_conll((synth_dir / "source0.conll").read_text())
    assert len(sents) == 80
    capsys.readouterr()


RE_CONFIG = """\
[experiment]
task = re
scheme = fedavg
repeats = 1
output_dir = {out}

[data]
synthetic = true
lexicon_size = 8
sentences = 70
data_seed = 5

[model]
kind = relation_classifier
embed_dim = 4
hidden_dim = 4

[federation]
clients = 2
rounds = 1
"""


def test_gen_synth_writes_relations_for_re(tmp_path, capsys):
    cfg_path = write_config(tmp_path, text=RE_CONFIG.format(out=tmp_path / "out"))
    synth_dir = tmp_path / "synth"
    assert main(["gen-synth", "-c", str(cfg_path), "--out-dir", str(synth_dir)]) == 0
    from fedtext.corpus import parse_relations

    assert [p.name for p in synth_dir.iterdir()] == ["relations.tsv"]
    instances = parse_relations((synth_dir / "relations.tsv").read_text())
    assert len(instances) == 70
    capsys.readouterr()


def test_re_lexicon_below_two_is_a_config_error(tmp_path, capsys):
    text = RE_CONFIG.format(out=tmp_path / "out").replace("lexicon_size = 8", "lexicon_size = 1")
    cfg_path = write_config(tmp_path, text=text)
    for command in (["gen-synth", "-c", str(cfg_path), "--out-dir", str(tmp_path / "s")],
                    ["run", "-c", str(cfg_path)]):
        assert main(command) == 1
        assert "[data] lexicon_size" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_an_re_max_tokens_that_cuts_a_span_is_a_config_error(tmp_path, capsys):
    # every synthetic relation ends on its second mention, 5 to 7 tokens in
    from fedtext.corpus import generate_synthetic_relations

    out = tmp_path / "out"
    text = RE_CONFIG.format(out=out).replace("data_seed = 5", "data_seed = 5\nmax_tokens = 3")
    cfg_path = write_config(tmp_path, text=text)
    for command in (["run", "-c", str(cfg_path)],
                    ["sweep-mu", "-c", str(cfg_path), "--out", str(out / "mu.csv")],
                    ["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", "5",
                     "--emit-prompts", str(out / "prompts.jsonl")]):
        assert main(command) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(r"config error: \[data\] max_tokens = 3 cuts the entity span "
                             r"\((\d+), (\d+)\) of the relation '(.+)'; it needs at least (\d+)\n", err)
        assert found, err
        start, end, tokens, need = found.groups()
        assert int(end) >= 3 and int(need) == int(end) + 1
        relations = generate_synthetic_relations(8, 70, 5)  # the config's corpus
        named = [inst for inst in relations if " ".join(inst.tokens) == tokens]
        assert any((int(start), int(end)) in (inst.span1, inst.span2) for inst in named)
    assert not out.exists()


def test_gen_synth_rejects_a_file_backed_config(tmp_path, capsys):
    text = BASE_CONFIG.format(out="x").replace("synthetic = true", "files = a.conll")
    cfg_path = write_config(tmp_path, text=text)
    assert main(["gen-synth", "-c", str(cfg_path), "--out-dir", str(tmp_path / "s")]) == 1
    assert "synthetic" in capsys.readouterr().err


def test_score_llm_one_shot_rejected_for_re(tmp_path, capsys):
    cfg_path = write_config(tmp_path, text=RE_CONFIG.format(out=tmp_path / "out"))
    prompts_path = tmp_path / "prompts.jsonl"
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", "5", "--shot", "one",
                 "--emit-prompts", str(prompts_path)]) == 1
    err = capsys.readouterr().err
    assert "--shot one" in err and "task = re" in err
    assert not prompts_path.exists()


def test_score_llm_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    prompts_path = tmp_path / "prompts.jsonl"
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", "5",
                 "--emit-prompts", str(prompts_path)]) == 0
    prompts = [json.loads(line) for line in prompts_path.read_text().splitlines()]
    assert [p["id"] for p in prompts] == list(range(5))
    assert all("HTML tags <m>" in p["prompt"] for p in prompts)

    # fabricate perfect responses by re-deriving the same subset
    cfg = parse_config(cfg_path.read_text())
    bundle = experiments.build_data(cfg)
    task = experiments.build_task(cfg, bundle.train)
    subset = llm_bridge.sample_test_subset(task.prepare(bundle.test), 5, 0)
    records = [
        llm_bridge.ResponseRecord(
            i, render_highlights(item.sentence.tokens, item.gold_spans, "m")
        )
        for i, item in enumerate(subset)
    ]
    resp_path = tmp_path / "responses.jsonl"
    resp_path.write_text(write_responses(records))

    out_dir = tmp_path / "llm_eval"
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", "5",
                 "--responses", str(resp_path), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "llm_report.json").read_text())
    assert report["strict_macro_f1"] == pytest.approx(1.0)
    assert (out_dir / "llm_report.csv").exists()
    diag = json.loads((out_dir / "llm_diagnostics.json").read_text())
    assert diag["dropped"] == 0
    capsys.readouterr()


def test_eval_command(tmp_path, capsys):
    pred_file = tmp_path / "preds.tsv"
    pred_file.write_text(
        "brca1\tB-GENE\tB-GENE\n"
        "gene\tO\tO\n"
        "\n"
        "wilson\tB-DIS\tB-GENE\n"
        "disease\tI-DIS\tO\n"
    )
    out_csv = tmp_path / "eval.csv"
    assert main(["eval", "--predictions", str(pred_file), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "MACRO" in out
    assert out_csv.exists()

    # with type-free lenient matching the mislabeled overlap starts counting
    assert main(["eval", "--predictions", str(pred_file), "--lenient-type-free"]) == 0
    free = capsys.readouterr().out
    assert free != out.split("wrote")[0]


def test_eval_command_refuses_an_empty_file(tmp_path, capsys):
    pred_file = tmp_path / "preds.tsv"
    pred_file.write_text("")
    assert main(["eval", "--predictions", str(pred_file)]) == 2
    assert capsys.readouterr().err == "error: no sentences to score\n"


def test_eval_command_on_a_file_without_entities(tmp_path, capsys):
    pred_file = tmp_path / "preds.tsv"
    pred_file.write_text("the\tO\tO\ncell\tO\tO\n")
    assert main(["eval", "--predictions", str(pred_file)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["MACRO", "0.000", "(0.000)"]


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_1_for_config_errors(tmp_path, capsys):
    bad = BASE_CONFIG.format(out="x")
    bad_path = tmp_path / "bad.ini"
    # fedprox with the default mu = 0 is inconsistent
    bad_path.write_text(bad.replace("scheme = fedavg", "scheme = fedprox"))
    assert main(["run", "-c", str(bad_path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", "-c", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()


def test_exit_code_2_for_runtime_errors(tmp_path, capsys):
    assert main(["bench", "--weights", str(tmp_path / "no.npz"),
                 "--data", str(tmp_path / "no.conll")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["-3", "0"])
def test_bench_limit_below_one_is_a_config_error(tmp_path, capsys, limit):
    # checked before the files are read: a missing file would be exit 2
    assert main(["bench", "--weights", str(tmp_path / "no.npz"),
                 "--data", str(tmp_path / "no.conll"), "--limit", limit]) == 1
    assert capsys.readouterr().err == f"config error: --limit must be >= 1, got {limit}\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_score_llm_n_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, n):
    # checked before the corpus is built, which here would be a runtime error
    def no_data(cfg):
        raise RuntimeError("the corpus was built")

    monkeypatch.setattr(experiments, "build_data", no_data)
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", n,
                 "--emit-prompts", str(tmp_path / "prompts.jsonl")]) == 1
    assert capsys.readouterr().err == f"config error: --n must be >= 1, got {n}\n"


def _no_data(cfg):
    raise RuntimeError("the corpus was built")


@pytest.mark.parametrize("flags", [[], ["--emit-prompts", "p.jsonl", "--responses", "r.jsonl"]],
                         ids=["neither", "both"])
def test_score_llm_takes_exactly_one_of_emit_prompts_and_responses(tmp_path, capsys, monkeypatch,
                                                                   flags):
    monkeypatch.setattr(experiments, "build_data", _no_data)
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", *flags]) == 1
    assert capsys.readouterr().err == (
        "config error: score-llm takes exactly one of --emit-prompts and --responses\n")
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("mode", ["--emit-prompts", "--responses"])
@pytest.mark.parametrize("tag", ["", "m x", "1m"], ids=["empty", "space", "digit first"])
def test_score_llm_refuses_an_unusable_tag_as_a_config_error(tmp_path, capsys, monkeypatch,
                                                             mode, tag):
    # checked before the corpus is built, on either path; an empty tag's
    # pattern would match <> and </>
    monkeypatch.setattr(experiments, "build_data", _no_data)
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["score-llm", "-c", str(cfg_path), "--tag", tag, mode, str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"config error: --tag {tag!r} is not a usable HTML tag name\n"


def test_score_llm_encodes_only_the_test_split(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    test_size = len(experiments.build_data(parse_config(cfg_path.read_text())).test)
    encoded = []
    prepare = tasks.Task.prepare

    def counting_prepare(self, items):
        encoded.append(len(items))
        return prepare(self, items)

    monkeypatch.setattr(tasks.Task, "prepare", counting_prepare)
    assert main(["score-llm", "-c", str(cfg_path), "--tag", "m", "--n", "5",
                 "--emit-prompts", str(tmp_path / "prompts.jsonl")]) == 0
    assert encoded == [test_size]
    capsys.readouterr()


@pytest.mark.parametrize("task", ["ner", "re"])
def test_a_run_with_an_empty_test_split_stops_before_training(tmp_path, capsys, monkeypatch, task):
    # five items split 4/1/0: no run could be scored, so none is trained
    from fedtext import federation

    def no_training(*args, **kwargs):
        raise RuntimeError("a run was trained")

    monkeypatch.setattr(federation, "rounds", no_training)
    text = (BASE_CONFIG if task == "ner" else RE_CONFIG).format(out=tmp_path / "out")
    text = text.replace("sentences = 80", "sentences = 5").replace("sentences = 70", "sentences = 5")
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the pooled test split is empty")
    assert "split 4/1/0 into train/dev/test" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    (b"\x80\x81abc\n", "'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"),
    (b"BRCA1 B-GENE\nis X-GENE\n\n", "line 2: tag 'X-GENE' is not valid BIO"),
], ids=["not utf-8", "bad tag"])
def test_an_unreadable_data_file_is_named_in_the_error(tmp_path, capsys, content, message):
    data = tmp_path / "corpus.conll"
    data.write_bytes(content)
    text = BASE_CONFIG.format(out=tmp_path / "out").replace("synthetic = true", f"files = {data}")
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"


@pytest.mark.parametrize("source", ["synthetic", "file"])
def test_a_source_too_small_to_split_after_dedup_is_a_config_error(tmp_path, capsys, source):
    text = BASE_CONFIG.format(out=tmp_path / "out")
    if source == "synthetic":
        text = text.replace("sentences = 80", "sentences = 2")
        where, left = "sentences: source 'source0'", 2
    else:  # two copies of one sentence
        data = tmp_path / "one.conll"
        data.write_text("BRCA1 B-GENE\nis O\n\n" * 2)
        text = text.replace("synthetic = true", f"files = {data}")
        where, left = f"files: {data}", 1
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 1
    assert capsys.readouterr().err == (
        f"config error: [data] {where} is left with {left} after dedup, and a train/dev/test "
        "split needs at least 3 items\n")
    assert not (tmp_path / "out").exists()


def test_divergence_exits_2_naming_round_client_and_segment(tmp_path, capsys, monkeypatch):
    # every gradient after the first round's dev pass carries a NaN, so the
    # first client of round two diverges
    from fedtext import tasks

    armed = []
    loss_and_grad, dev_scores = tasks.Task.loss_and_grad, tasks.Task.dev_scores

    def poisoned(self, w, items):
        lg = loss_and_grad(self, w, items)
        if armed:
            segment(lg.grad, "out_b")[0] = float("nan")
        return lg

    def arming(self, w, items):
        armed.append(True)
        return dev_scores(self, w, items)

    monkeypatch.setattr(tasks.Task, "loss_and_grad", poisoned)
    monkeypatch.setattr(tasks.Task, "dev_scores", arming)
    cfg_path = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["run", "-c", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 2, client 0: non-finite gradient in segment 'out_b'\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_diverging_run_prints_only_the_named_error(tmp_path, capsys):
    # a real divergence, not an injected NaN: the CRF refuses the batch whose
    # score spread has left its range, and no numpy warning may come first
    # (any warning fails the suite)
    text = (BASE_CONFIG.format(out=str(tmp_path / "out"))
            .replace("kind = window_tagger", "kind = rnn_crf_tagger\nhidden_dim = 4")
            .replace("optimizer = adam", "optimizer = sgd")
            .replace("base_lr = 0.02", "base_lr = 1e30"))
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 1, client 0: CRF score spread 2.942e+31 reaches the limit 500\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_weights_that_overflow_in_a_step_are_named_with_round_and_client(tmp_path, capsys, optimizer):
    # the step's lr * update overflows while the gradient stays finite; the
    # step raises where it overflows, and no numpy warning may come first
    # (any warning fails the suite)
    text = (BASE_CONFIG.format(out=str(tmp_path / "out"))
            .replace("sentences = 80", "sentences = 40")
            .replace("rounds = 2", "rounds = 1")
            .replace("optimizer = adam", f"optimizer = {optimizer}")
            .replace("base_lr = 0.02", "base_lr = 1e308"))
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 1, client 0: overflow encountered in multiply\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("kind, optimizer", [
    ("window_tagger", "sgd"), ("window_tagger", "adam"), ("relation_classifier", "sgd"),
])
def test_a_saturated_softmax_stops_the_run_on_its_infinite_loss(tmp_path, capsys, kind, optimizer):
    # the softmax saturates, so the loss takes log(0) while the gradient
    # stays finite; the loss pass must stop the run before the step
    out = tmp_path / "out"
    if kind == "window_tagger":
        text = (BASE_CONFIG.format(out=out)
                .replace("optimizer = adam", f"optimizer = {optimizer}")
                .replace("base_lr = 0.02", "base_lr = 1e30"))
    else:
        text = RE_CONFIG.format(out=out) + f"optimizer = {optimizer}\nbase_lr = 1e30\n"
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 1, client 0: divide by zero encountered in log\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("model", ["kind = window_tagger", "kind = rnn_crf_tagger\nhidden_dim = 4"],
                         ids=["window_tagger", "rnn_crf_tagger"])
def test_logits_that_overflow_in_dev_scoring_stop_the_run(tmp_path, model):
    # the weights grow huge but stay finite, and so do the client losses,
    # while the dev pass overflows; the run must stop in round 1 by name, and
    # numpy must print no warning under the default filters (an RNN's tanh
    # would otherwise saturate the overflow into finite emissions)
    out = tmp_path / "out"
    text = (BASE_CONFIG.format(out=out)
            .replace("kind = window_tagger", model)
            .replace("repeats = 2", "repeats = 1")
            .replace("sentences = 80", "sentences = 40")
            .replace("rounds = 2", "rounds = 1")
            .replace("optimizer = adam", "optimizer = sgd")
            .replace("base_lr = 0.02", "base_lr = 1e200"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "fedtext.cli", "run", "-c", str(write_config(tmp_path, text=text))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr == "error: round 1: dev scores: overflow encountered in matmul\n"
    assert not (out / "manifest.json").exists()


def test_fedprox_with_an_infinite_mu_is_a_config_error(tmp_path, capsys):
    # otherwise numpy warns in the first step and the run ends on a non-finite loss
    text = (BASE_CONFIG.format(out=str(tmp_path / "out")).replace("fedavg", "fedprox")
            + "mu = inf\n")
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 1
    assert capsys.readouterr().err == "config error: [federation] mu must be finite and >= 0\n"


def test_a_huge_finite_mu_stops_the_run_before_adam_overflows(tmp_path, capsys):
    # mu = 1e300 is a valid config, but once the weights leave the anchor the
    # proximal gradient's square overflows Adam's second moment; the step must
    # raise before it writes, with no numpy warning (any warning fails the suite)
    text = (BASE_CONFIG.format(out=str(tmp_path / "out"))
            .replace("kind = window_tagger", "kind = rnn_crf_tagger\nhidden_dim = 4")
            .replace("sentences = 80", "sentences = 300")
            .replace("fedavg", "fedprox") + "mu = 1e300\n")
    assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 2
    err = capsys.readouterr().err
    assert err == "error: round 1, client 0: overflow encountered in square of the gradient in segment 'embed'\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_a_warmup_covering_every_step_is_a_config_error(tmp_path, capsys):
    # 100 sentences leave 80 training items: one step of 100 in the only
    # round for each client, and round(0.8 * 1) makes it a warmup step at
    # rate 0; the shards are checked where they are made, before the run
    # directory is
    for scheme in ("fedavg", "single", "centralized"):
        out = tmp_path / scheme
        text = (BASE_CONFIG.format(out=str(out))
                .replace("scheme = fedavg", f"scheme = {scheme}")
                .replace("sentences = 80", "sentences = 100")
                .replace("batch_size = 16", "batch_size = 100\nwarmup_frac = 0.8")
                .replace("rounds = 2", "rounds = 1"))
        assert main(["run", "-c", str(write_config(tmp_path, text=text))]) == 1
        assert capsys.readouterr().err == (
            "config error: [federation] warmup_frac = 0.8 leaves client 0 no step after"
            " warmup (it takes 1 in all); lower it or give the client more steps\n"
        )
        assert not out.exists()


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])
