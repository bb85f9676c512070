"""Task plumbing: encoding, prediction, evaluation, model bundles."""
import numpy as np
import pytest

from fedtext import corpus
from fedtext.cli import main
from fedtext.evaluation import decode_bio
from fedtext.tasks import build_ner_task, build_re_task, load_bundle, save_bundle

TRAIN = [
    corpus.TaggedSentence(("the", "brca1", "gene"), ("O", "B-GENE", "O")),
    corpus.TaggedSentence(("wilson", "disease", "seen"), ("B-DIS", "I-DIS", "O")),
    corpus.TaggedSentence(("plain", "words", "only"), ("O", "O", "O")),
]


def test_build_ner_task_shapes():
    task = build_ner_task(TRAIN, kind="window_tagger", embed_dim=4)
    assert task.kind == "ner"
    assert task.selection_metric == "strict_f1"
    assert task.label_names[0] == "O"
    assert set(task.label_names) == {"O", "B-GENE", "B-DIS", "I-DIS"}
    assert task.spec.vocab_size == len(task.vocab)
    assert task.spec.label_count == len(task.label_names)
    with pytest.raises(ValueError):
        build_ner_task([])


def test_prepare_encodes_and_keeps_gold_spans():
    task = build_ner_task(TRAIN, kind="window_tagger", embed_dim=4)
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
    task = build_ner_task(TRAIN, kind="window_tagger", embed_dim=4, max_tokens=2)
    items = task.prepare(TRAIN)
    assert all(i.enc.token_ids.size == 2 for i in items)
    # gold spans re-derived from the truncated sentence
    assert items[1].gold_spans == (decode_bio(["B-DIS", "I-DIS"])[0],)


def test_predict_round_trip_names_and_spans():
    task = build_ner_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
    w = task.init_params(0)
    item = task.prepare(TRAIN)[0]
    names = task.predict_tag_names(w, item)
    assert len(names) == 3
    assert all(n in task.label_names for n in names)
    assert task.predict_spans(w, item) == decode_bio(names)


def test_evaluate_and_dev_scores_ner():
    task = build_ner_task(TRAIN, kind="window_tagger", embed_dim=4)
    w = task.init_params(0)
    items = task.prepare(TRAIN)
    report = task.evaluate(w, items)
    scores = task.dev_scores(w, items)
    assert set(scores) == {"strict_f1", "lenient_f1"}
    assert scores["strict_f1"] == report.strict_macro_f1
    assert 0.0 <= scores["strict_f1"] <= scores["lenient_f1"] <= 1.0


def test_re_task_end_to_end():
    insts = corpus.generate_synthetic_relations(lexicon_size=6, sentences=30, seed=0)
    task = build_re_task(insts, embed_dim=4, hidden_dim=4)
    assert task.selection_metric == "macro_f1"
    assert task.label_names == ["assoc", "none"]
    items = task.prepare(insts)
    w = task.init_params(1)
    label = task.predict_label(w, items[0])
    assert label in task.label_names
    scores = task.dev_scores(w, items)
    assert set(scores) == {"macro_f1"}


def test_bundle_round_trip(tmp_path):
    task = build_ner_task(TRAIN, kind="rnn_crf_tagger", embed_dim=4, hidden_dim=3)
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
    assert task.predict_tag_names(w, item) == task2.predict_tag_names(w2, item2)


def test_bundle_with_an_object_array_is_refused(tmp_path):
    task = build_ner_task(TRAIN, kind="window_tagger", embed_dim=4)
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
