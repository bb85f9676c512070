"""Model forward/backward passes against finite differences and hand math."""
import dataclasses
import math

import numpy as np
import pytest

from fedtext import crf, models
from fedtext.models import (
    MODEL_KINDS,
    ModelSpec,
    RelationExample,
    TagExample,
    init_params,
    loss_and_grad,
    param_count,
    param_layout,
    predict_relations,
    predict_tags,
    segment_shapes,
    support,
)
from fedtext.params import validate_layout
import oracles
from oracles import segment

WINDOW = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3, embed_dim=3, window_radius=1)
RNN = ModelSpec(kind="rnn_crf_tagger", vocab_size=10, label_count=3, embed_dim=3, hidden_dim=3)
REL = ModelSpec(kind="relation_classifier", vocab_size=10, label_count=2, embed_dim=3, hidden_dim=3)


def random_tag_item(spec, rng, T=None):
    T = int(rng.integers(1, 7)) if T is None else T
    return TagExample(
        token_ids=rng.integers(0, spec.vocab_size, size=T),
        label_ids=rng.integers(0, spec.label_count, size=T),
    )


def random_rel_item(spec, rng, T=None):
    T = int(rng.integers(2, 8)) if T is None else T
    s1 = sorted(rng.integers(0, T, size=2))
    s2 = sorted(rng.integers(0, T, size=2))
    return RelationExample(
        token_ids=rng.integers(0, spec.vocab_size, size=T),
        span1=(int(s1[0]), int(s1[1])),
        span2=(int(s2[0]), int(s2[1])),
        label_id=int(rng.integers(0, spec.label_count)),
    )


def one_item(make_item):
    return lambda spec, rng: [make_item(spec, rng)]


def mixed_batch(make_item):
    """Batches of 2 to 5 items of mixed lengths, the first one token long,
    so every batch has padding."""
    def make(spec, rng):
        n = int(rng.integers(1, 5))
        return [make_item(spec, rng, T=1)] + [make_item(spec, rng) for _ in range(n)]
    return make


def finite_difference_check(spec, make_batch, n_instances=20, h=1e-4, tol=1e-4):
    rng = np.random.default_rng(318)
    for _ in range(n_instances):
        w = init_params(spec, int(rng.integers(1_000_000)))
        batch = make_batch(spec, rng)
        lg = loss_and_grad(spec, w, batch)
        for i in range(w.size):
            wp, wn = w.copy(), w.copy()
            wp.values[i] += h
            wn.values[i] -= h
            fd = (
                loss_and_grad(spec, wp, batch).loss
                - loss_and_grad(spec, wn, batch).loss
            ) / (2 * h)
            a = lg.grad.values[i]
            denom = max(abs(a), abs(fd))
            if denom < 1e-8:
                continue
            assert abs(a - fd) / denom < tol, f"coord {i}: analytic {a} vs fd {fd}"


def test_window_gradients_match_finite_differences():
    finite_difference_check(WINDOW, one_item(random_tag_item))


def test_rnn_crf_gradients_match_finite_differences():
    finite_difference_check(RNN, one_item(random_tag_item))


def test_relation_gradients_match_finite_differences():
    finite_difference_check(REL, one_item(random_rel_item))


def test_padded_batch_gradients_match_finite_differences():
    for spec, maker in ((WINDOW, random_tag_item), (RNN, random_tag_item), (REL, random_rel_item)):
        finite_difference_check(spec, mixed_batch(maker), n_instances=10)


def test_batched_pass_matches_per_item_oracle():
    rng = np.random.default_rng(319)
    wide_window = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3,
                            embed_dim=3, window_radius=3)
    for spec, maker in ((WINDOW, random_tag_item), (wide_window, random_tag_item),
                        (RNN, random_tag_item), (REL, random_rel_item)):
        for _ in range(30):
            w = init_params(spec, int(rng.integers(1_000_000)))
            w.values += rng.normal(size=w.size)
            batch = mixed_batch(maker)(spec, rng)
            lg = loss_and_grad(spec, w, batch)
            loss, grad = oracles.loss_and_grad(spec, w, batch)
            assert abs(lg.loss - loss) < 1e-10
            assert np.abs(lg.grad.values - grad.values).max() < 1e-10


# ---------------------------------------------------------------------------
# hand-computable losses

def test_zero_weights_give_uniform_tagging_loss():
    # all-zero weights make every label equally likely: NLL = T * log(L)
    for spec in (WINDOW, RNN):
        w = init_params(spec, 0)
        w.values[:] = 0.0
        for T in (1, 3, 5):
            item = TagExample(token_ids=np.arange(T) % spec.vocab_size,
                              label_ids=np.zeros(T, dtype=int))
            lg = loss_and_grad(spec, w, [item])
            assert lg.loss == pytest.approx(T * math.log(spec.label_count), abs=1e-10)


def test_zero_weights_give_uniform_relation_loss():
    w = init_params(REL, 0)
    w.values[:] = 0.0
    item = RelationExample(np.array([1, 2, 3]), (0, 0), (2, 2), label_id=1)
    lg = loss_and_grad(REL, w, [item])
    assert lg.loss == pytest.approx(math.log(REL.label_count), abs=1e-12)


def test_batch_loss_is_mean_of_item_losses():
    rng = np.random.default_rng(5)
    w = init_params(RNN, 3)
    items = [random_tag_item(RNN, rng) for _ in range(4)]
    whole = loss_and_grad(RNN, w, items)
    singles = [loss_and_grad(RNN, w, [it]) for it in items]
    assert whole.loss == pytest.approx(np.mean([s.loss for s in singles]), abs=1e-12)
    mean_grad = np.mean([s.grad.values for s in singles], axis=0)
    assert np.allclose(whole.grad.values, mean_grad, atol=1e-12)


def test_relation_forward_matches_independent_computation():
    rng = np.random.default_rng(11)
    w = init_params(REL, 21)
    item = RelationExample(np.array([4, 1, 7, 2]), (1, 2), (3, 3), label_id=0)

    shapes = segment_shapes(REL)
    embed = segment(w, "embed", shapes["embed"])
    pooled = embed[item.token_ids].sum(axis=0)
    pooled = (pooled + 2 * segment(w, "marker1") + 1 * segment(w, "marker2")) / 4
    hidden = np.tanh(pooled @ segment(w, "hidden_w", shapes["hidden_w"]) + segment(w, "hidden_b"))
    logits = hidden @ segment(w, "out_w", shapes["out_w"]) + segment(w, "out_b")

    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    lg = loss_and_grad(REL, w, [item])
    assert lg.loss == pytest.approx(-math.log(probs[0]), abs=1e-12)
    assert predict_relations(REL, w, [item])[0] == int(logits.argmax())


def test_relation_markers_distinguish_argument_order():
    # swapping the two spans changes the pooled vector via the marker terms
    rng = np.random.default_rng(2)
    w = init_params(REL, 9)
    a = RelationExample(np.array([1, 2, 3, 4]), (0, 1), (3, 3), label_id=0)
    b = RelationExample(np.array([1, 2, 3, 4]), (3, 3), (0, 1), label_id=0)
    la = loss_and_grad(REL, w, [a]).loss
    lb = loss_and_grad(REL, w, [b]).loss
    assert la != pytest.approx(lb, abs=1e-12)


def test_window_features_pad_out_of_range_context_with_zeros():
    # single token with radius 1: features are [zeros, embed(tok), zeros]
    spec = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3,
                     embed_dim=3, window_radius=1)
    w = init_params(spec, 7)
    shapes = segment_shapes(spec)
    embed = segment(w, "embed", shapes["embed"])
    out_w = segment(w, "out_w", shapes["out_w"])
    out_b = segment(w, "out_b")

    tok = 5
    feats = np.concatenate([np.zeros(3), embed[tok], np.zeros(3)])
    logits = feats @ out_w + out_b
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    for gold in range(3):
        item = TagExample(np.array([tok]), np.array([gold]))
        lg = loss_and_grad(spec, w, [item])
        assert lg.loss == pytest.approx(-math.log(probs[gold]), abs=1e-12)


def test_window_radius_longer_than_the_sentence():
    # radius 3 over 2 tokens: every window reaches past both ends
    spec = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3,
                     embed_dim=3, window_radius=3)
    w = init_params(spec, 7)
    shapes = segment_shapes(spec)
    embed = segment(w, "embed", shapes["embed"])
    tokens = np.array([4, 9])
    feats = np.zeros((2, 7, 3))
    feats[0, 3:5] = embed[tokens]
    feats[1, 2:4] = embed[tokens]
    logits = feats.reshape(2, 21) @ segment(w, "out_w", shapes["out_w"]) + segment(w, "out_b")
    assert predict_tags(spec, w, [tokens])[0].tolist() == logits.argmax(axis=1).tolist()
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    lg = loss_and_grad(spec, w, [TagExample(tokens, np.array([2, 0]))])
    assert lg.loss == pytest.approx(-math.log(probs[0, 2]) - math.log(probs[1, 0]), abs=1e-12)


def test_window_r0_predictions_ignore_neighbors():
    spec = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3,
                     embed_dim=3, window_radius=0)
    w = init_params(spec, 7)
    p0 = predict_tags(spec, w, [np.array([3, 4, 5])])[0]
    p1 = predict_tags(spec, w, [np.array([3, 9, 8])])[0]
    assert p0[0] == p1[0]


# ---------------------------------------------------------------------------
# parameter plumbing

def test_param_layout_tiles_the_vector():
    for spec in (WINDOW, RNN, REL):
        layout = param_layout(spec)
        validate_layout(layout, param_count(spec))
        shapes = segment_shapes(spec)
        assert list(layout) == list(shapes)
        for name, shape in shapes.items():
            assert layout[name][1] == int(np.prod(shape))


def test_param_layout_is_where_a_layout_is_checked(monkeypatch):
    # shapes with an empty segment: param_layout must refuse them, since a
    # vector built on its layout checks only its size
    from fedtext import models

    spec = ModelSpec(kind="window_tagger", vocab_size=13, label_count=2, embed_dim=3)
    monkeypatch.setattr(models, "segment_shapes", lambda spec: {"embed": (13, 3), "out_b": (0,)})
    with pytest.raises(ValueError, match="'out_b' has non-positive length 0"):
        param_layout(spec)


def test_layout_is_built_once_per_spec():
    for spec in (WINDOW, RNN, REL):
        assert param_layout(spec) is param_layout(spec)
        assert segment_shapes(spec) is segment_shapes(spec)
        # an equal spec built separately shares the same layout
        assert param_layout(ModelSpec(**spec.__dict__)) is param_layout(spec)
        assert init_params(spec, 0).layout is param_layout(spec)


def test_init_is_deterministic_and_seed_sensitive():
    a = init_params(RNN, 4)
    b = init_params(RNN, 4)
    c = init_params(RNN, 5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_init_respects_fan_based_bounds():
    w = init_params(RNN, 1)
    for name, shape in segment_shapes(RNN).items():
        seg = segment(w, name)
        if name == "crf_trans":
            assert np.all(seg == 0.0)
            continue
        if len(shape) == 2:
            fan_in, fan_out = shape
        else:
            fan_in = fan_out = shape[0]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(seg) <= bound)
        assert seg.std() > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="transformer", vocab_size=10, label_count=3, embed_dim=4)
    with pytest.raises(ValueError):
        ModelSpec(kind="window_tagger", vocab_size=0, label_count=3, embed_dim=4)
    with pytest.raises(ValueError):
        ModelSpec(kind="window_tagger", vocab_size=10, label_count=0, embed_dim=4)
    with pytest.raises(ValueError):
        ModelSpec(kind="window_tagger", vocab_size=10, label_count=3, embed_dim=4,
                  window_radius=-1)
    assert set(MODEL_KINDS) == {"window_tagger", "rnn_crf_tagger", "relation_classifier"}


def test_loss_and_grad_validates_inputs():
    w = init_params(WINDOW, 0)
    with pytest.raises(ValueError):
        loss_and_grad(WINDOW, w, [])
    bad_token = TagExample(np.array([99]), np.array([0]))
    with pytest.raises(ValueError):
        loss_and_grad(WINDOW, w, [bad_token])
    bad_label = TagExample(np.array([1]), np.array([7]))
    with pytest.raises(ValueError):
        loss_and_grad(WINDOW, w, [bad_label])
    rel_item = RelationExample(np.array([1, 2]), (0, 0), (1, 1), 0)
    with pytest.raises(ValueError):
        loss_and_grad(WINDOW, w, [rel_item])
    wrong_w = init_params(RNN, 0)
    with pytest.raises(ValueError):
        loss_and_grad(WINDOW, wrong_w, [TagExample(np.array([1]), np.array([0]))])


def _tag(tokens, labels):
    return TagExample(np.asarray(tokens), np.asarray(labels))


def _rel(tokens, label_id=0):
    return RelationExample(np.asarray(tokens), (0, 0), (0, 0), label_id)


_EMPTY = np.array([], dtype=np.intp)
_RANGE = r"out of range \[0, {limit}\)"

# token id arrays every model kind refuses, in training and in prediction
_BAD_TOKEN_IDS = {
    "empty batch": ([], "no items given"),
    "2-D ids": ([np.array([[1, 2]])], "each item's token ids must be a non-empty 1-D array"),
    "empty ids": ([np.array([1]), _EMPTY], "each item's token ids must be a non-empty 1-D array"),
    "id past the vocabulary": ([np.array([1, 99])], "token id " + _RANGE.format(limit="{V}")),
    "negative id": ([np.array([-1, 1])], "token id " + _RANGE.format(limit="{V}")),
}


@pytest.mark.parametrize("case", list(_BAD_TOKEN_IDS))
@pytest.mark.parametrize("entry", ["loss_and_grad", "predict"])
@pytest.mark.parametrize("spec", [WINDOW, RNN, REL], ids=lambda spec: spec.kind)
def test_every_model_kind_names_bad_token_ids(spec, entry, case):
    token_ids, message = _BAD_TOKEN_IDS[case]
    w = init_params(spec, 0)
    if spec.kind == "relation_classifier":
        items = [_rel(ids) for ids in token_ids]
    else:
        items = [_tag(ids, np.zeros(ids.shape, dtype=np.intp)) for ids in token_ids]
    with pytest.raises(ValueError, match=message.format(V=spec.vocab_size)):
        if entry == "loss_and_grad":
            loss_and_grad(spec, w, items)
        elif spec.kind == "relation_classifier":
            predict_relations(spec, w, items)
        else:
            predict_tags(spec, w, token_ids)


# tagger batches with well-formed token ids that break one other rule
_BAD_TAGGER_BATCHES = {
    "wrong item type": ([_rel([1, 2])], "{kind} expects TagExample items"),
    "2-D label ids": ([_tag([1, 2], [[0, 1]])], "each item's label ids must be a non-empty 1-D array"),
    "empty label ids": ([_tag([1], [0]), _tag([2], _EMPTY)],
                        "each item's label ids must be a non-empty 1-D array"),
    "label id past the labels": ([_tag([1, 2], [0, 3])], "label id " + _RANGE.format(limit=3)),
    "negative label id": ([_tag([1, 2], [-1, 0])], "label id " + _RANGE.format(limit=3)),
    "fewer labels than tokens": ([_tag([1, 2], [0])], "token and label arrays differ in length"),
    # the same totals, split differently between the items
    "lengths swapped between items": ([_tag([1, 2], [0]), _tag([3], [0, 1])],
                                      "token and label arrays differ in length"),
}


@pytest.mark.parametrize("case", list(_BAD_TAGGER_BATCHES))
@pytest.mark.parametrize("spec", [WINDOW, RNN], ids=lambda spec: spec.kind)
def test_a_tagger_batch_names_the_rule_it_breaks(spec, case):
    batch, message = _BAD_TAGGER_BATCHES[case]
    with pytest.raises(ValueError, match=message.format(kind=spec.kind)):
        loss_and_grad(spec, init_params(spec, 0), batch)


@pytest.mark.parametrize("batch, message", [
    ([_tag([1, 2], [0, 1])], "relation_classifier expects RelationExample items"),
    ([_rel([1, 2]), _rel([3], label_id=2)], "label id " + _RANGE.format(limit=2)),
    ([_rel([1, 2], label_id=-1)], "label id " + _RANGE.format(limit=2)),
], ids=["wrong item type", "label id past the labels", "negative label id"])
def test_a_relation_batch_names_the_rule_it_breaks(batch, message):
    with pytest.raises(ValueError, match=message):
        loss_and_grad(REL, init_params(REL, 0), batch)


def test_predict_relations_names_a_wrong_item_type():
    with pytest.raises(ValueError, match="relation_classifier expects RelationExample items"):
        predict_relations(REL, init_params(REL, 0), [_tag([1, 2], [0, 1])])


def test_relation_span_bounds_checked():
    w = init_params(REL, 0)
    bad = RelationExample(np.array([1, 2, 3]), (2, 1), (0, 0), 0)
    with pytest.raises(ValueError):
        loss_and_grad(REL, w, [bad])
    out = RelationExample(np.array([1, 2, 3]), (0, 0), (1, 5), 0)
    with pytest.raises(ValueError):
        loss_and_grad(REL, w, [out])


def test_predict_tags_tie_breaks_to_lowest_label():
    for spec in (WINDOW, RNN):
        w = init_params(spec, 0)
        w.values[:] = 0.0
        tags = predict_tags(spec, w, [np.array([1, 2, 3])])[0]
        assert tags.tolist() == [0, 0, 0]


def test_predict_wrong_kind_raises():
    w = init_params(REL, 0)
    with pytest.raises(ValueError):
        predict_tags(REL, w, [np.array([1, 2])])
    w2 = init_params(WINDOW, 0)
    with pytest.raises(ValueError):
        predict_relations(WINDOW, w2, [RelationExample(np.array([1]), (0, 0), (0, 0), 0)])


def test_prediction_names_logits_that_overflow():
    # finite weights whose scores overflow: the pass must raise where numpy
    # overflows, with no numpy warning (any warning fails the suite)
    w = init_params(WINDOW, 0)
    w.values *= 1e300
    for sentences in ([np.array([1, 2, 3])], [np.array([1, 2, 3]), np.array([4])]):
        with pytest.raises(FloatingPointError, match="^overflow encountered in matmul$"):
            predict_tags(WINDOW, w, sentences)
    w = init_params(REL, 0)
    segment(w, "embed")[:] = 1e308  # the pooled sum overflows
    with pytest.raises(FloatingPointError, match="^overflow encountered in reduce$"):
        predict_relations(REL, w, [RelationExample(np.array([1, 2, 3]), (0, 0), (2, 2), 0)])


def test_a_training_batch_builds_its_reversal_once(monkeypatch):
    # the RNN and the CRF share the index that reverses each sentence
    calls = []
    reversal = crf.reversal
    monkeypatch.setattr(crf, "reversal", lambda mask: calls.append(mask) or reversal(mask))
    batch = mixed_batch(random_tag_item)(RNN, np.random.default_rng(5))
    loss_and_grad(RNN, init_params(RNN, 0), batch)
    assert len(calls) == 1


def test_predict_tags_on_a_padded_batch_matches_the_per_sentence_oracle():
    # mixed lengths with a 1-token sentence, plus a radius-3 window over
    # sentences shorter than the radius; then an unpadded batch of one length
    rng = np.random.default_rng(13)
    wide = ModelSpec(kind="window_tagger", vocab_size=12, label_count=3, embed_dim=3, window_radius=3)
    for spec in (WINDOW, RNN, wide):
        for trial in range(20):
            w = init_params(spec, trial)
            w.values[:] = rng.normal(size=w.size) * 2.0  # CRF transitions too, which start at zero
            lengths = [1] + [int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 8)))]
            for batch_lengths in (lengths, [lengths[-1]] * 3):
                sentences = [rng.integers(0, spec.vocab_size, size=n) for n in batch_lengths]
                tags = predict_tags(spec, w, sentences)
                assert len(tags) == len(sentences)
                for sent, got in zip(sentences, tags):
                    expect = oracles.predict_tags(spec, w, sent).tolist()
                    assert got.tolist() == expect
                    assert predict_tags(spec, w, [sent])[0].tolist() == expect


@pytest.mark.parametrize("hidden_dim, lengths", [
    (3, [1]),  # a 1-token sentence
    (3, [40]),  # longer than the ~33-token sentences the benchmark tags
    (3, [9, 1, 33, 4]),  # a padded batch with a 1-token row
    (3, [12, 12, 12]),  # an unpadded batch of equal lengths
    (1, [9, 1, 33, 4]),
    (1, [35]),
])
def test_one_loop_rnn_equals_the_two_loop_oracle_bit_for_bit(hidden_dim, lengths):
    # every way the package runs the recurrence: one sentence unbatched (as
    # prediction does), and (T, B, d) batches under training's per-row
    # reversal and, with no row padded, prediction's reversed slice
    spec = ModelSpec(kind="rnn_crf_tagger", vocab_size=20, label_count=4, embed_dim=5, hidden_dim=hidden_dim)
    rng = np.random.default_rng(hidden_dim)
    w = init_params(spec, 0)
    w.values[:] = rng.normal(size=w.size)
    seg = models._segments(spec, w)
    sentences = [rng.integers(0, spec.vocab_size, size=n) for n in lengths]
    ids, mask = models._pad(sentences, models._joined(sentences, spec.vocab_size, "token id"))
    X = seg["embed"][ids.T]
    runs = [(X, crf.reversal(mask), mask.T)]
    if len(set(lengths)) == 1:
        runs.append((X, slice(None, None, -1), mask.T))
    if len(lengths) == 1:
        runs.append((X[:, 0], slice(None, None, -1), mask[0]))
    for X, flip, real in runs:
        got = models._rnn_emissions(seg, X, flip)[0]
        expect = oracles.rnn_emissions_two_loops(seg, X, flip)
        assert got.shape == expect.shape
        assert np.array_equal(got[real], expect[real])
        assert np.unique(got[real]).size > 1


def test_short_training_reduces_loss():
    # a few plain gradient steps on a fixed batch must reduce the objective
    rng = np.random.default_rng(1)
    for spec, maker in ((WINDOW, random_tag_item), (RNN, random_tag_item), (REL, random_rel_item)):
        w = init_params(spec, 2)
        batch = [maker(spec, rng) for _ in range(6)]
        first = loss_and_grad(spec, w, batch)
        loss = first.loss
        for _ in range(40):
            lg = loss_and_grad(spec, w, batch)
            w.values -= 0.5 * lg.grad.values
            loss = lg.loss
        assert loss < first.loss


@pytest.mark.parametrize("spec, make_item", [
    (WINDOW, random_tag_item), (RNN, random_tag_item), (REL, random_rel_item),
], ids=["window_tagger", "rnn_crf_tagger", "relation_classifier"])
def test_a_gradient_is_positive_zero_outside_the_declared_support(spec, make_item):
    # a client's optimizer steps only the entries of its support, which is
    # exact only if every other entry of every batch gradient is +0.0: then
    # a dense step leaves it as it is, -0.0 weights included
    spec = dataclasses.replace(spec, vocab_size=40)  # so a batch reaches few embed rows
    rng = np.random.default_rng(7)
    for _ in range(20):
        batch = mixed_batch(make_item)(spec, rng)
        w = init_params(spec, int(rng.integers(1_000_000)))
        sup = support(spec, batch)
        inside = np.zeros(w.size)
        sup.scatter(np.ones(sup.count), inside)
        assert inside.sum() == sup.count < w.size
        outside = loss_and_grad(spec, w, batch).grad.values[inside == 0.0]
        assert np.all(outside == 0.0) and not np.signbit(outside).any()
        # the support is every entry after embed and the rows of the batch's tokens
        tokens = np.unique(np.concatenate([item.token_ids for item in batch]))
        assert np.array_equal(sup.rows, tokens)
        assert inside[param_layout(spec)["embed"][1]:].all()
