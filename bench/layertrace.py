"""Per-layer call counts and self time, recorded from outside the program.

The layers are the ``fedtext`` modules.  ``Tracer`` wraps the named public
functions and rebinds every name under which a ``fedtext`` module can reach
them, so a call counts whether it arrives as ``crf.nll_and_grads`` or as
``federation.apply_step`` after ``from .optim import apply_step``.  A span's
self time is its wall time minus the time of the wrapped calls it made.
Every patched attribute is restored on exit.  A name that no longer exists
reports zero calls instead of failing, so later changes to ``src/`` never
break the trace.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, function) pairs; a dotted function is a method looked up on its class
LAYERS = (
    "config.parse_config",
    "corpus.generate_synthetic",
    "corpus.dedup",
    "corpus.split_80_10_10",
    "corpus.partition_iid",
    "corpus.partition_by_source",
    "corpus.parse_conll",
    "experiments.run_experiment",
    "experiments.build_data",
    "experiments.build_task",
    "experiments.partition_train",
    "tasks.Task.prepare",
    "tasks.Task.dev_scores",
    "tasks.Task.predict_spans",
    "tasks.save_bundle",
    "tasks.load_bundle",
    "federation.local_update",
    "federation.aggregate",
    "models.loss_and_grad",
    "models.predict_tags",
    "crf.nll_and_grads",
    "crf.viterbi",
    "optim.apply_step",
    "optim.proximal_augment",
    "optim.lr_at",
    "evaluation.score_ner",
    "evaluation.decode_bio",
    "llm_bridge.read_responses",
    "llm_bridge.parse_highlights",
    "llm_bridge.score_ner_responses",
)

_MISSING = object()


def _module(name: str):
    try:
        return importlib.import_module(f"fedtext.{name}")
    except ModuleNotFoundError:
        return None


class Tracer:
    """Context manager that counts calls and self time per wrapped name, and
    ParamVector allocations with their bytes."""

    def __init__(self):
        self.names = LAYERS
        self.calls = {n: 0 for n in self.names}
        self.self_s = {n: 0.0 for n in self.names}
        self.missing: list[str] = []
        self.vectors_allocated = 0
        self.bytes_allocated = 0
        self._open: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _patch_function(self, name: str, modules) -> None:
        layer, *path = name.split(".")
        owner = _module(layer)
        for part in path[:-1]:
            owner = getattr(owner, part, None) if owner is not None else None
        if owner is None:
            self.missing.append(name)
            return
        if len(path) > 1:  # method: rebind on the class that defines it
            original = vars(owner).get(path[-1])
            if not callable(original):
                self.missing.append(name)
                return
            self._set(owner, path[-1], self._span(name, original))
            return
        original = getattr(owner, path[-1], None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapper = self._span(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _patch_params(self) -> None:
        params = _module("params")
        cls = getattr(params, "ParamVector", None)
        original = vars(cls).get("__post_init__") if cls is not None else None
        if original is None:
            self.missing.append("params.ParamVector.__post_init__")
            return

        @functools.wraps(original)
        def post_init(vec, *args, **kwargs):
            original(vec, *args, **kwargs)
            self.vectors_allocated += 1
            self.bytes_allocated += int(getattr(vec.values, "nbytes", 0))

        self._set(cls, "__post_init__", post_init)

    def __enter__(self) -> "Tracer":
        importlib.import_module("fedtext")
        for layer in {n.split(".")[0] for n in self.names} | {"params"}:
            _module(layer)
        modules = [m for n, m in sys.modules.items() if n.startswith("fedtext.") and m is not None]
        try:
            for name in self.names:
                self._patch_function(name, modules)
            self._patch_params()
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["params.vectors_allocated"] = self.vectors_allocated
        out["params.bytes_allocated"] = self.bytes_allocated
        return out

