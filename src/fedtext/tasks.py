"""Glue between corpora, models, and scoring.

One ``Kind`` record per task family, tagging (NER) and relation
classification (RE), states everything that differs between the two; other
modules read it instead of testing a name.  A Task owns the model spec plus
the vocabularies built from the training split, pre-encodes items once, and
exposes the loss/predict/score calls the federation loop needs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from . import corpus, evaluation, llm_bridge, models
from .corpus import RelationInstance, TaggedSentence, Vocab
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


@dataclass(frozen=True)
class Kind:
    """What differs between the task families.  A field that calls another
    module's function does so through a lambda, which looks the function up
    when it runs, so rebinding the module's attribute reaches the call."""

    models: tuple[str, ...]  # the model kinds that serve this family
    suffix: str  # corpus file suffix
    parse: Callable[[str], list]
    serialize: Callable[[Sequence], str]
    synthetic: Callable  # [data] config -> [(source name, items)]
    min_lexicon: int  # smallest [data] lexicon_size the synthetic source draws from
    label_index: Callable[[Sequence], list[str]]  # train split -> label names, by id
    encode: Callable  # (task, corpus item) -> its NerItem or ReItem
    predict: Callable  # (task, weights, items) -> one prediction per item, from one pass
    gold: Callable  # item -> the value its prediction is scored against
    score: Callable[[list, list], EvalReport]  # (gold values, predictions)
    headline: Mapping[str, str]  # {metric: report.json key}; the first selects the best round
    template: str  # the prompt's task lines
    prompt_input: Callable  # item -> the prompt's query input
    exemplar: Callable[[str], tuple[str, str]] | None  # tag -> one-shot (input, output)
    score_responses: Callable  # (task, subset, records, entity label, tag, casefold) -> LlmScore

    def scores(self, report: Mapping) -> dict[str, float]:
        """The headline metrics of a report in its as_dict (report.json) form."""
        return {metric: report[key] for metric, key in self.headline.items()}


@dataclass
class Task:
    spec: ModelSpec
    vocab: Vocab
    label_names: list[str]
    max_tokens: int = 512

    @property
    def kind(self) -> Kind:
        """The task family the model kind serves."""
        return _KIND_OF_MODEL[self.spec.kind]

    @property
    def selection_metric(self) -> str:
        """Dev metric used to pick the best round."""
        return next(iter(self.kind.headline))

    def prepare(self, items: Sequence[TaggedSentence] | Sequence[RelationInstance]) -> list:
        encode = self.kind.encode
        return [encode(self, item) for item in items]

    def _label_id(self, name: str) -> int:
        try:
            return self.label_names.index(name)
        except ValueError:
            raise ValueError(f"label {name!r} not present in the training split") from None

    # -- training and scoring ---------------------------------------------
    def init_params(self, seed: int) -> ParamVector:
        return models.init_params(self.spec, seed)

    def shard(self, items: Sequence) -> models.Shard:
        """``items`` as a client trains on them, in its compact parameter space."""
        return models.shard(self.spec, [it.enc for it in items])

    def predict(self, w: ParamVector, items: Sequence) -> list:
        """Each item's prediction in the form the kind scores (a span list
        or a label), from one padded pass."""
        return self.kind.predict(self, w, items)

    def predict_spans(self, w: ParamVector, item: NerItem) -> list[evaluation.EntitySpan]:
        return _predict_spans(self, w, [item])[0]

    def evaluate(self, w: ParamVector, items: Sequence) -> EvalReport:
        """Scores of the predictions for ``items``, made PREDICT_CHUNK items
        per padded pass; they equal predict's per item."""
        kind = self.kind
        chunks = (items[i : i + PREDICT_CHUNK] for i in range(0, len(items), PREDICT_CHUNK))
        pred = [p for chunk in chunks for p in kind.predict(self, w, chunk)]
        return kind.score(list(map(kind.gold, items)), pred)

    def dev_scores(self, w: ParamVector, items: Sequence) -> dict[str, float]:
        return self.kind.scores(self.evaluate(w, items).as_dict())


def build_task(train: Sequence, kind: str = "rnn_crf_tagger", embed_dim: int = 16, hidden_dim: int = 24,
               window_radius: int = 0, max_tokens: int = 512) -> Task:
    """A task for the model ``kind``, with the vocabulary and the label index
    of the training split ``train`` (tagged sentences or relation instances)."""
    if not train:
        raise ValueError("cannot build a task from an empty training split")
    if kind not in _KIND_OF_MODEL:
        raise ValueError(f"unknown model kind {kind!r}")
    family = _KIND_OF_MODEL[kind]
    vocab = Vocab.build(item.tokens for item in train)
    labels = family.label_index(train)
    # the relation classifier has no window: its spec keeps radius 0
    radius = 0 if family is RE else window_radius
    spec = ModelSpec(kind, len(vocab), len(labels), embed_dim, hidden_dim, radius)
    return Task(spec=spec, vocab=vocab, label_names=labels, max_tokens=max_tokens)


# ---------------------------------------------------------------------------
# the two families

def _encode_sentence(task: Task, sent: TaggedSentence) -> NerItem:
    if len(sent.tokens) > task.max_tokens:
        sent = TaggedSentence(sent.tokens[: task.max_tokens], sent.labels[: task.max_tokens])
    label_ids = np.array([task._label_id(tag) for tag in sent.labels], dtype=np.intp)
    enc = TagExample(task.vocab.encode(sent.tokens), label_ids)
    return NerItem(sent, enc, tuple(decode_bio(sent.labels)))


def _encode_instance(task: Task, inst: RelationInstance) -> ReItem:
    for span in (inst.span1, inst.span2):
        if span[1] >= task.max_tokens:
            from .config import ConfigError  # config imports this module
            raise ConfigError(f"[data] max_tokens = {task.max_tokens} cuts the entity span {span} "
                              f"of the relation {' '.join(inst.tokens)!r}; it needs at least {span[1] + 1}")
    kept = RelationInstance(inst.tokens[: task.max_tokens], inst.span1, inst.span2, inst.label)
    ids = task.vocab.encode(kept.tokens)
    return ReItem(kept, RelationExample(ids, kept.span1, kept.span2, task._label_id(kept.label)))


def _predict_spans(task: Task, w: ParamVector, items: Sequence[NerItem]) -> list:
    tags = models.predict_tags(task.spec, w, [it.enc.token_ids for it in items])
    names = task.label_names
    return [decode_bio([names[i] for i in ids.tolist()]) for ids in tags]


def _predict_labels(task: Task, w: ParamVector, items: Sequence[ReItem]) -> list[str]:
    ids = models.predict_relations(task.spec, w, [it.enc for it in items])
    return [task.label_names[i] for i in ids.tolist()]


def _synthetic_sentences(d) -> list[tuple[str, list[TaggedSentence]]]:
    counts = d.sentences if len(d.sentences) == d.sources else d.sentences * d.sources
    profile = corpus.make_profile(
        d.types, d.lexicon_size, counts, d.sources, d.heterogeneity, d.cue_rate
    )
    return corpus.generate_synthetic(profile, d.data_seed)


def _relation_prompt_input(item: ReItem) -> str:
    inst = item.instance
    m1 = " ".join(inst.tokens[inst.span1[0] : inst.span1[1] + 1])
    m2 = " ".join(inst.tokens[inst.span2[0] : inst.span2[1] + 1])
    return f"{' '.join(inst.tokens)}\nEntity 1: {m1}\nEntity 2: {m2}"


NER = Kind(
    models=("window_tagger", "rnn_crf_tagger"),
    suffix="conll",
    parse=lambda text: corpus.parse_conll(text),
    serialize=lambda items: corpus.serialize_conll(items),
    synthetic=_synthetic_sentences,
    min_lexicon=1,
    label_index=lambda items: ["O", *sorted({tag for s in items for tag in s.labels} - {"O"})],
    encode=_encode_sentence,
    predict=_predict_spans,
    gold=attrgetter("gold_spans"),
    score=lambda gold, pred: evaluation.score_ner(gold, pred),
    headline={"strict_f1": "strict_macro_f1", "lenient_f1": "lenient_macro_f1"},
    template=llm_bridge.NER_TEMPLATE,
    prompt_input=lambda item: " ".join(item.sentence.tokens),
    exemplar=lambda tag: llm_bridge.default_ner_exemplar(tag),
    score_responses=lambda task, subset, records, label, tag, casefold: (
        llm_bridge.score_ner_responses(subset, records, label, tag, casefold=casefold)),
)

RE = Kind(
    models=("relation_classifier",),
    suffix="tsv",
    parse=lambda text: corpus.parse_relations(text),
    serialize=lambda items: corpus.serialize_relations(items),
    synthetic=lambda d: [("relations", corpus.generate_synthetic_relations(
        d.lexicon_size, sum(d.sentences), d.data_seed))],
    min_lexicon=2,  # a relation's label depends on which half of a lexicon it draws from
    label_index=lambda items: sorted({inst.label for inst in items}),
    encode=_encode_instance,
    predict=_predict_labels,
    gold=attrgetter("instance.label"),
    score=lambda gold, pred: evaluation.re_report(gold, pred),
    headline={"macro_f1": "strict_macro_f1"},  # strict and lenient coincide
    template=llm_bridge.RE_TEMPLATE,
    prompt_input=_relation_prompt_input,
    exemplar=None,
    score_responses=lambda task, subset, records, *_: (
        llm_bridge.score_re_responses(subset, records, task.label_names)),
)

KINDS = {"ner": NER, "re": RE}  # by [experiment] task
_KIND_OF_MODEL = {model: kind for kind in KINDS.values() for model in kind.models}


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
    so are a spec that disagrees with the stored tokens, labels or values and
    values that are not finite.  Older bundles' ``kind`` and ``layout`` keys
    are ignored."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        values = data["values"]
        tokens = [str(t) for t in data["tokens"]]
    spec = ModelSpec(**meta["spec"])
    task = Task(spec, Vocab(tokens), list(meta["labels"]), int(meta["max_tokens"]))
    for name, n in (("vocab_size", len(task.vocab)), ("label_count", len(task.label_names))):
        if getattr(spec, name) != n:
            raise ValueError(f"bundle spec has {name} = {getattr(spec, name)}, but its tokens and labels give {n}")
    w = ParamVector(values, models.param_layout(spec))
    w.check_finite("bundle values")
    return task, w
