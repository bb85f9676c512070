"""The benchmark's per-layer trace names must exist in ``fedtext``.

``bench/layertrace.py`` reports zero calls for a name it cannot find, so
that a later change never breaks the trace; a renamed function would then
read as an idle layer.  This test turns such a rename into a failure.
"""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from fedtext import corpus, experiments, llm_bridge, models, tasks
from fedtext.config import FederationConfig
from fedtext.federation import ClientState, client_rng, local_update
from fedtext.models import ModelSpec, TagExample
from fedtext.optim import OptimizerState, Schedule
from oracles import render_highlights


def load_layertrace():
    path = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_fedtext():
    layertrace = load_layertrace()
    for name in layertrace.LAYERS:
        layer, *path = name.split(".")
        target = importlib.import_module(f"fedtext.{layer}")
        for part in path:
            target = getattr(target, part, None)
        assert callable(target), f"{name} does not resolve to a function"
    with layertrace.Tracer() as tracer:
        assert tracer.missing == []


def test_batched_training_step_is_traced():
    spec = ModelSpec(kind="rnn_crf_tagger", vocab_size=10, label_count=3, embed_dim=3, hidden_dim=3)
    w = models.init_params(spec, 0)
    batch = [TagExample(np.array([1, 2, 3]), np.array([0, 1, 2])),
             TagExample(np.array([4]), np.array([1]))]
    with load_layertrace().Tracer() as tracer:
        models.loss_and_grad(spec, w, batch)
    assert tracer.calls["models.loss_and_grad"] == 1
    assert tracer.calls["crf.nll_and_grads"] == 1


def test_a_dev_pass_is_one_batched_prediction():
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=20)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_task(sents, kind="rnn_crf_tagger", embed_dim=3, hidden_dim=3)
    items = task.prepare(sents)
    assert 1 < len(items) < tasks.PREDICT_CHUNK
    w = task.init_params(0)
    with load_layertrace().Tracer() as tracer:
        task.dev_scores(w, items)
    assert tracer.calls["tasks.Task.dev_scores"] == 1
    assert tracer.calls["models.predict_tags"] == 1
    assert tracer.calls["crf.viterbi"] == 1


def test_a_dev_pass_scores_and_decodes_through_evaluation():
    # the task kind's scorer and predictor reach evaluation.score_ner and
    # evaluation.decode_bio through the module, where the tracer rebinds them
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=20)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_task(sents, kind="window_tagger", embed_dim=3)
    items = task.prepare(sents)
    with load_layertrace().Tracer() as tracer:
        task.dev_scores(task.init_params(0), items)
    assert tracer.calls["evaluation.score_ner"] == 1
    assert tracer.calls["evaluation.decode_bio"] == len(items)


def test_bench_inference_on_a_conll_file_parses_it_with_parse_conll(tmp_path):
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=20)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_task(sents, kind="window_tagger", embed_dim=3)
    tasks.save_bundle(tmp_path / "model.npz", task, task.init_params(0))
    (tmp_path / "data.conll").write_text(corpus.serialize_conll(sents))
    with load_layertrace().Tracer() as tracer:
        experiments.bench_inference(tmp_path / "model.npz", tmp_path / "data.conll", limit=3)
    assert tracer.calls["tasks.load_bundle"] == 1
    assert tracer.calls["corpus.parse_conll"] == 1
    assert tracer.calls["tasks.Task.prepare"] == 1


def test_a_fedprox_local_step_allocates_only_its_gradient():
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=40)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_task(sents, kind="window_tagger", embed_dim=4)
    data = task.prepare(sents)
    cfg = FederationConfig(clients=1, rounds=1, batch_size=8, local_epochs=2,
                           mu=0.1, optimizer="adam")
    server = task.init_params(0)
    shard = task.shard(data)
    client = ClientState(0, shard, OptimizerState("adam", shard.entries.size),
                         Schedule(base_lr=0.01, warmup_steps=0, total_steps=100))
    with load_layertrace().Tracer() as tracer:
        local_update(client, server, cfg, client_rng(0, 0, 0))
    steps = 2 * math.ceil(len(data) / 8)
    assert tracer.calls["models.loss_and_grad"] == steps
    assert tracer.calls["optim.apply_step"] == steps
    assert tracer.calls["optim.proximal_augment"] == steps
    assert tracer.calls["optim.lr_at"] == steps
    # the client's compact weights and their anchor copy, one gradient per
    # step, and the copy of the server weights its entries go back into
    assert tracer.vectors_allocated == 2 + steps + 1


def test_a_fedprox_step_on_a_partial_support_allocates_a_support_sized_gradient():
    # a by_source client reaches its own source's tokens only; each step's
    # gradient holds the support's count of values, not the whole vector's
    profile = corpus.make_profile(["GENE"], lexicon_size=12, sentences=30, sources=2,
                                  heterogeneity=1.0, cue_rate=1.0)
    sources = corpus.generate_synthetic(profile, 4)
    task = tasks.build_task([s for _, sents in sources for s in sents], kind="window_tagger", embed_dim=4)
    data = corpus.partition_by_source([(name, task.prepare(sents)) for name, sents in sources])[0]
    shard = task.shard(data)
    count = shard.entries.size
    cfg = FederationConfig(clients=2, rounds=1, batch_size=8, local_epochs=2,
                           mu=0.1, optimizer="adam")
    server = task.init_params(0)
    assert count < server.size
    client = ClientState(0, shard, OptimizerState("adam", count),
                         Schedule(base_lr=0.01, warmup_steps=0, total_steps=100))
    with load_layertrace().Tracer() as tracer:
        local_update(client, server, cfg, client_rng(0, 0, 0))
    steps = 2 * math.ceil(len(data) / 8)
    assert tracer.calls["optim.proximal_augment"] == steps
    # the compact weights, their anchor and one gradient per step are
    # support-sized; only the copy of the server weights they go back into is not
    assert tracer.vectors_allocated == 2 + steps + 1
    assert tracer.bytes_allocated == (2 + steps) * count * 8 + server.values.nbytes


def test_scoring_responses_parses_each_one_and_scores_once():
    # each response goes through parse_highlights and the corpus through one
    # score_ner, so the trace shows the parser's share of scoring
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=20)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_task(sents, kind="window_tagger", embed_dim=3)
    items = task.prepare(sents)
    records = [
        llm_bridge.ResponseRecord(i, render_highlights(item.sentence.tokens, item.gold_spans, "m"))
        for i, item in enumerate(items)
    ]
    with load_layertrace().Tracer() as tracer:
        llm_bridge.score_ner_responses(items, records, "GENE", "m")
    assert tracer.calls["llm_bridge.score_ner_responses"] == 1
    assert tracer.calls["llm_bridge.parse_highlights"] == len(items)
    assert tracer.calls["evaluation.score_ner"] == 1
