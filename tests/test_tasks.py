"""Task plumbing: encoding, prediction, evaluation, model bundles."""
import json
from dataclasses import replace

import numpy as np
import pytest

from fedtext import corpus, evaluation, models, tasks
from fedtext.cli import main
from fedtext.evaluation import decode_bio
from fedtext.models import param_layout
from fedtext.params import ParamVector
from fedtext.tasks import NER, RE, build_task, load_bundle, save_bundle
from oracles import segment

TRAIN = [
    corpus.TaggedSentence(("the", "brca1", "gene"), ("O", "B-GENE", "O")),
    corpus.TaggedSentence(("wilson", "disease", "seen"), ("B-DIS", "I-DIS", "O")),
    corpus.TaggedSentence(("plain", "words", "only"), ("O", "O", "O")),
]


def test_build_task_shapes():
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    assert task.kind is NER
    assert task.selection_metric == "strict_f1"
    assert task.label_names[0] == "O"
    assert set(task.label_names) == {"O", "B-GENE", "B-DIS", "I-DIS"}
    assert task.spec.vocab_size == len(task.vocab)
    assert task.spec.label_count == len(task.label_names)
    with pytest.raises(ValueError):
        build_task([])
    with pytest.raises(ValueError, match="unknown model kind 'lstm'"):
        build_task(TRAIN, kind="lstm")


def test_prepare_encodes_and_keeps_gold_spans():
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    items = task.prepare(TRAIN)
    assert [list(i.gold_spans) for i in items] == [
        decode_bio(list(s.labels)) for s in TRAIN
    ]
    # training tokens all map to non-unknown ids
    assert all(i.enc.token_ids.min() >= 1 for i in items)
    # unseen tokens map to the unknown id
    unseen = task.prepare([corpus.TaggedSentence(("zzz",), ("O",))])
    assert unseen[0].enc.token_ids.tolist() == [0]


def test_prepare_truncates_long_sentences():
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4, max_tokens=2)
    items = task.prepare(TRAIN)
    assert all(i.enc.token_ids.size == 2 for i in items)
    # gold spans re-derived from the truncated sentence
    assert items[1].gold_spans == (decode_bio(["B-DIS", "I-DIS"])[0],)


def test_predict_round_trip_names_and_spans():
    task = build_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
    w = task.init_params(0)
    item = task.prepare(TRAIN)[0]
    (ids,) = models.predict_tags(task.spec, w, [item.enc.token_ids])
    names = [task.label_names[i] for i in ids]
    assert len(names) == 3
    assert task.predict_spans(w, item) == decode_bio(names)
    assert task.predict(w, [item]) == [decode_bio(names)]


def test_evaluate_and_dev_scores_ner():
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    w = task.init_params(0)
    items = task.prepare(TRAIN)
    report = task.evaluate(w, items)
    scores = task.dev_scores(w, items)
    assert set(scores) == {"strict_f1", "lenient_f1"}
    assert scores["strict_f1"] == report.strict_macro_f1
    assert 0.0 <= scores["strict_f1"] <= scores["lenient_f1"] <= 1.0


@pytest.mark.parametrize("kind,radius", [("rnn_crf_tagger", 0), ("window_tagger", 3), ("re", 0)])
def test_evaluate_equals_per_item_prediction(kind, radius, monkeypatch):
    # more items than one chunk; NER adds a 1-token and a 2-token sentence,
    # shorter than the radius-3 window, and sentences of 33 tokens or more,
    # like those whose one-at-a-time prediction the benchmark checks against
    # batched evaluation, into both chunks
    n = tasks.PREDICT_CHUNK + 30
    if kind == "re":
        data = corpus.generate_synthetic_relations(lexicon_size=6, sentences=n, seed=0)
        task = build_task(data, "relation_classifier", embed_dim=4, hidden_dim=4)
    else:
        profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=8, sentences=n + 40)
        sents = corpus.generate_synthetic(profile, 3)[0][1]
        long = [corpus.TaggedSentence(sum((s.tokens for s in group), ()), sum((s.labels for s in group), ()))
                for group in zip(*[iter(sents[n:])] * 5)]
        assert len(long) == 8 and min(len(s.tokens) for s in long) >= 33
        data = long[:4] + sents[:n] + TRAIN[:1] + [
            corpus.TaggedSentence(("brca1",), ("B-GENE",)),
            corpus.TaggedSentence(("wilson", "disease"), ("B-DIS", "I-DIS")),
        ] + long[4:]
        task = build_task(data, kind=kind, embed_dim=4, hidden_dim=3, window_radius=radius)
    items = task.prepare(data)
    assert len(items) > tasks.PREDICT_CHUNK
    w = task.init_params(0)
    w.values[:] = np.random.default_rng(1).normal(size=w.size) * 2.0  # CRF transitions too

    scorer = "re_report" if task.kind is RE else "score_ner"
    seen = []
    score = getattr(evaluation, scorer)

    def recording(gold, pred):
        seen.append(pred)
        return score(gold, pred)

    monkeypatch.setattr(evaluation, scorer, recording)
    report = task.evaluate(w, items)
    expect = [task.predict(w, [it])[0] for it in items]
    if task.kind is NER:
        assert expect == [task.predict_spans(w, it) for it in items]
    assert seen == [expect]
    assert len(set(map(str, expect))) > 1
    gold = [it.instance.label for it in items] if task.kind is RE else [list(it.gold_spans) for it in items]
    assert report == score(gold, expect)


def test_re_task_end_to_end():
    insts = corpus.generate_synthetic_relations(lexicon_size=6, sentences=30, seed=0)
    task = build_task(insts, "relation_classifier", embed_dim=4, hidden_dim=4, window_radius=2)
    assert task.kind is RE
    assert task.spec.window_radius == 0  # the classifier has no window; bundles keep saying 0
    assert task.selection_metric == "macro_f1"
    assert task.label_names == ["assoc", "none"]
    items = task.prepare(insts)
    w = task.init_params(1)
    (label,) = task.predict(w, items[:1])
    assert label in task.label_names
    scores = task.dev_scores(w, items)
    assert set(scores) == {"macro_f1"}


def test_bundle_round_trip(tmp_path):
    task = build_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
    w = task.init_params(3)
    path = tmp_path / "model.npz"
    save_bundle(path, task, w)
    task2, w2 = load_bundle(path)
    assert np.array_equal(w.values, w2.values)
    assert task2.label_names == task.label_names
    assert task2.vocab.tokens == task.vocab.tokens
    assert task2.spec == task.spec
    item = task.prepare(TRAIN)[1]
    item2 = task2.prepare(TRAIN)[1]
    assert task.predict(w, [item]) == task2.predict(w2, [item2])


def test_bundle_with_an_object_array_is_refused(tmp_path):
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    path = tmp_path / "model.npz"
    save_bundle(path, task, task.init_params(0))
    with np.load(path) as data:
        arrays = dict(data)
    arrays["tokens"] = arrays["tokens"].astype(object)
    crafted = tmp_path / "crafted.npz"
    np.savez(crafted, **arrays)
    with pytest.raises(ValueError):
        load_bundle(crafted)

    data_path = tmp_path / "data.conll"
    data_path.write_text(corpus.serialize_conll(TRAIN))
    assert main(["bench", "--weights", str(crafted), "--data", str(data_path)]) == 2
    assert main(["bench", "--weights", str(path), "--data", str(data_path)]) == 0


def _rewrite_bundle(src, dst, **changes):
    """Copy a bundle, replacing top-level meta keys (None deletes one)."""
    with np.load(src) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    for key, value in changes.items():
        if value is None:
            meta.pop(key)
        else:
            meta[key] = value
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(dst, **arrays)
    return dst


@pytest.mark.parametrize("field, delta", [("vocab_size", 1), ("label_count", -1)])
def test_bundle_whose_spec_disagrees_with_its_contents_is_refused(tmp_path, field, delta):
    task = build_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
    path = tmp_path / "model.npz"
    save_bundle(path, task, task.init_params(0))
    spec = dict(task.spec.__dict__, **{field: getattr(task.spec, field) + delta})
    crafted = _rewrite_bundle(path, tmp_path / "crafted.npz", spec=spec)
    with pytest.raises(ValueError, match=field):
        load_bundle(crafted)

    data_path = tmp_path / "data.conll"
    data_path.write_text(corpus.serialize_conll(TRAIN))
    assert main(["bench", "--weights", str(crafted), "--data", str(data_path)]) == 2


def test_bundle_with_the_wrong_number_of_values_is_refused(tmp_path):
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    path = tmp_path / "model.npz"
    save_bundle(path, task, task.init_params(0))
    with np.load(path) as data:
        arrays = dict(data)
    n = arrays["values"].size
    arrays["values"] = arrays["values"][:-1]
    np.savez(tmp_path / "short.npz", **arrays)
    with pytest.raises(ValueError, match=f"covers {n} values but vector has {n - 1}"):
        load_bundle(tmp_path / "short.npz")


def test_bundle_with_a_non_finite_value_is_refused(tmp_path):
    # prediction would otherwise argmax over NaN logits and tag every token
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    w = task.init_params(0)
    segment(w, "out_b")[1] = np.nan
    save_bundle(tmp_path / "model.npz", task, w)
    with pytest.raises(ValueError, match="^non-finite bundle values in segment 'out_b'$"):
        load_bundle(tmp_path / "model.npz")


def test_save_bundle_refuses_weights_of_another_layout(tmp_path):
    task = build_task(TRAIN, kind="window_tagger", embed_dim=4)
    other = replace(task.spec, embed_dim=5)
    w = ParamVector(np.zeros(sum(n for _, n in param_layout(other).values())), param_layout(other))
    with pytest.raises(ValueError, match="layout"):
        save_bundle(tmp_path / "model.npz", task, w)
    assert not (tmp_path / "model.npz").exists()


def test_bundle_in_the_older_format_still_loads(tmp_path):
    # earlier bundles also stored the task kind and the (key-sorted) layout
    task = build_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
    w = task.init_params(5)
    path = tmp_path / "model.npz"
    save_bundle(path, task, w)
    old = _rewrite_bundle(path, tmp_path / "old.npz", kind="ner",
                          layout={k: list(v) for k, v in w.layout.items()})
    with np.load(old) as data:
        assert set(json.loads(str(data["meta"]))) == {"kind", "layout", "labels", "max_tokens", "spec"}
    task2, w2 = load_bundle(old)
    assert task2.kind is NER
    assert np.array_equal(w2.values, w.values)
    for a, b in zip(task.prepare(TRAIN), task2.prepare(TRAIN)):
        assert task.predict_spans(w, a) == task2.predict_spans(w2, b)
