"""The benchmark's per-layer trace names must exist in ``fedtext``.

``bench/layertrace.py`` reports zero calls for a name it cannot find, so
that a later change never breaks the trace; a renamed function would then
read as an idle layer.  This test turns such a rename into a failure.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fedtext import models
from fedtext.models import ModelSpec, TagExample


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
