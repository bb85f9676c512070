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

from fedtext import corpus, models, tasks
from fedtext.config import FederationConfig
from fedtext.federation import ClientState, client_rng, local_update
from fedtext.models import ModelSpec, TagExample
from fedtext.optim import OptimizerState, Schedule


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


def test_a_fedprox_local_step_allocates_only_its_gradient():
    profile = corpus.make_profile(["GENE"], lexicon_size=8, sentences=40)
    sents = corpus.generate_synthetic(profile, 2)[0][1]
    task = tasks.build_ner_task(sents, kind="window_tagger", embed_dim=4)
    data = task.prepare(sents)
    cfg = FederationConfig(clients=1, rounds=1, batch_size=8, local_epochs=2,
                           mu=0.1, optimizer="adam")
    server = task.init_params(0)
    client = ClientState(0, data, OptimizerState("adam", server.size),
                         Schedule(base_lr=0.01, warmup_steps=0, total_steps=100))
    with load_layertrace().Tracer() as tracer:
        local_update(task, client, server, cfg, client_rng(0, 0, 0))
    steps = 2 * math.ceil(len(data) / 8)
    assert tracer.calls["optim.apply_step"] == steps
    assert tracer.calls["optim.proximal_augment"] == steps
    assert tracer.calls["optim.lr_at"] == steps
    # the client's copy of the server weights, then one gradient per step
    assert tracer.vectors_allocated == 1 + steps
