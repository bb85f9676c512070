"""Glue between corpora, models, and scoring.

A Task owns the model spec plus the vocabularies built from the training
split, pre-encodes items once, and exposes the loss/predict/score calls the
federation loop needs without knowing about tags or spans itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evaluation, models
from .corpus import (
    RelationInstance,
    TaggedSentence,
    Vocab,
    build_relation_index,
    build_tag_index,
    truncate,
)
from .evaluation import EvalReport, decode_bio
from .models import ModelSpec, RelationExample, TagExample
from .params import ParamVector

# Items Task.evaluate predicts per padded pass: enough to spread each pass's
# fixed cost thin, few enough that a chunk of 512-token sentences takes tens
# of MB, not hundreds.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class NerItem:
    sentence: TaggedSentence
    enc: TagExample
    gold_spans: tuple[evaluation.EntitySpan, ...]


@dataclass(frozen=True)
class ReItem:
    instance: RelationInstance
    enc: RelationExample


@dataclass
class Task:
    spec: ModelSpec
    vocab: Vocab
    label_names: list[str]
    max_tokens: int = 512

    @property
    def kind(self) -> str:
        """Task family: "re" for the relation classifier, "ner" for the taggers."""
        return "re" if self.spec.kind == "relation_classifier" else "ner"

    @property
    def selection_metric(self) -> str:
        """Dev metric used to pick the best round."""
        return "strict_f1" if self.kind == "ner" else "macro_f1"

    # -- encoding ----------------------------------------------------------
    def prepare(self, items: Sequence[TaggedSentence] | Sequence[RelationInstance]) -> list:
        if self.kind == "ner":
            return [self._prepare_sentence(s) for s in items]
        return [self._prepare_instance(r) for r in items]

    def _prepare_sentence(self, sent: TaggedSentence) -> NerItem:
        sent = truncate(sent, self.max_tokens)
        label_ids = np.array(
            [self._label_id(tag) for tag in sent.labels], dtype=np.intp
        )
        enc = TagExample(self.vocab.encode(sent.tokens), label_ids)
        return NerItem(sent, enc, tuple(decode_bio(sent.labels)))

    def _prepare_instance(self, inst: RelationInstance) -> ReItem:
        if max(inst.span1[1], inst.span2[1]) >= self.max_tokens:
            raise ValueError("entity span falls outside the token limit")
        kept = RelationInstance(
            inst.tokens[: self.max_tokens], inst.span1, inst.span2, inst.label
        )
        enc = RelationExample(
            self.vocab.encode(kept.tokens), kept.span1, kept.span2, self._label_id(kept.label)
        )
        return ReItem(kept, enc)

    def _label_id(self, name: str) -> int:
        try:
            return self.label_names.index(name)
        except ValueError:
            raise ValueError(f"label {name!r} not present in the training split") from None

    # -- training and scoring ---------------------------------------------
    def init_params(self, seed: int) -> ParamVector:
        return models.init_params(self.spec, seed)

    def loss_and_grad(self, w: ParamVector, items: Sequence) -> models.LossGrad:
        return models.loss_and_grad(self.spec, w, [it.enc for it in items])

    def predict_spans(self, w: ParamVector, item: NerItem) -> list[evaluation.EntitySpan]:
        return decode_bio(self.predict_tag_names(w, item))

    def predict_label(self, w: ParamVector, item: ReItem) -> str:
        return self._labels(w, [item])[0]

    def predict_tag_names(self, w: ParamVector, item: NerItem) -> list[str]:
        return self._tag_names(w, [item])[0]

    def _tag_names(self, w: ParamVector, items: Sequence[NerItem]) -> list[list[str]]:
        tags = models.predict_tags(self.spec, w, [it.enc.token_ids for it in items])
        return [[self.label_names[i] for i in ids.tolist()] for ids in tags]

    def _labels(self, w: ParamVector, items: Sequence[ReItem]) -> list[str]:
        ids = models.predict_relations(self.spec, w, [it.enc for it in items])
        return [self.label_names[i] for i in ids.tolist()]

    def evaluate(self, w: ParamVector, items: Sequence) -> EvalReport:
        """Scores of the predictions for ``items``, made PREDICT_CHUNK items
        per padded pass; they equal predict_spans/predict_label per item."""
        chunks = [items[i : i + PREDICT_CHUNK] for i in range(0, len(items), PREDICT_CHUNK)]
        if self.kind == "ner":
            gold = [list(it.gold_spans) for it in items]
            pred = [decode_bio(names) for chunk in chunks for names in self._tag_names(w, chunk)]
            return evaluation.score_ner(gold, pred)
        gold = [it.instance.label for it in items]
        pred = [label for chunk in chunks for label in self._labels(w, chunk)]
        return evaluation.re_report(gold, pred)

    def dev_scores(self, w: ParamVector, items: Sequence) -> dict[str, float]:
        report = self.evaluate(w, items)
        return evaluation.headline(self.kind, report.as_dict())


def build_ner_task(
    train: Sequence[TaggedSentence],
    kind: str = "rnn_crf_tagger",
    embed_dim: int = 16,
    hidden_dim: int = 24,
    window_radius: int = 0,
    max_tokens: int = 512,
) -> Task:
    if not train:
        raise ValueError("cannot build a task from an empty training split")
    vocab = Vocab.build(s.tokens for s in train)
    labels = build_tag_index(train)
    spec = ModelSpec(
        kind=kind,
        vocab_size=len(vocab),
        label_count=len(labels),
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        window_radius=window_radius,
    )
    return Task(spec=spec, vocab=vocab, label_names=labels, max_tokens=max_tokens)


def build_re_task(
    train: Sequence[RelationInstance],
    embed_dim: int = 16,
    hidden_dim: int = 16,
    max_tokens: int = 512,
) -> Task:
    if not train:
        raise ValueError("cannot build a task from an empty training split")
    vocab = Vocab.build(r.tokens for r in train)
    labels = build_relation_index(train)
    spec = ModelSpec(
        kind="relation_classifier",
        vocab_size=len(vocab),
        label_count=len(labels),
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
    )
    return Task(spec=spec, vocab=vocab, label_names=labels, max_tokens=max_tokens)


# ---------------------------------------------------------------------------
# model bundles: weights plus everything needed to run them elsewhere

def save_bundle(path, task: Task, w: ParamVector) -> None:
    """Write the bundle to ``path``, a file name or an open binary file; the
    layout follows from the spec, so it is not stored."""
    models._check_weights(task.spec, w)
    meta = {"spec": task.spec.__dict__, "labels": task.label_names, "max_tokens": task.max_tokens}
    tokens = np.array(task.vocab.tokens[1:], dtype=str)
    np.savez(path, values=w.values, tokens=tokens, meta=np.array(json.dumps(meta, sort_keys=True)))


def load_bundle(path) -> tuple[Task, ParamVector]:
    """Read a bundle written by save_bundle; object (pickled) arrays are
    refused with ValueError, so loading a file never runs code from it, and
    so is a spec that disagrees with the stored tokens, labels or values.
    Older bundles' ``kind`` and ``layout`` keys are ignored."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        values = data["values"]
        tokens = [str(t) for t in data["tokens"]]
    spec = ModelSpec(**meta["spec"])
    task = Task(spec, Vocab(tokens), list(meta["labels"]), int(meta["max_tokens"]))
    for name, n in (("vocab_size", len(task.vocab)), ("label_count", len(task.label_names))):
        if getattr(spec, name) != n:
            raise ValueError(f"bundle spec has {name} = {getattr(spec, name)}, but its tokens and labels give {n}")
    return task, ParamVector(values, models.param_layout(spec))
