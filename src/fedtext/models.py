"""Desk-scale models over flat parameter vectors.

Three kinds share one interface:

* ``window_tagger``     per-token softmax over concatenated context-window
                        embeddings (out-of-range positions contribute zeros)
* ``rnn_crf_tagger``    bidirectional single-layer tanh RNN, concatenated
                        states projected to emissions, linear-chain CRF on top
* ``relation_classifier``  mean-pooled token embeddings with two learned
                        span-marker vectors added at the entity positions,
                        then a tanh hidden layer and a softmax head

Losses are mean-per-item negative log-likelihood and every gradient is exact
(checked against central finite differences in the test suite).

Training runs one padded, masked pass per mini-batch.  The B items are
padded to the longest one, T tokens, giving a (B, T) token array and a
(B, T) mask that is True on each item's real tokens (a prefix of its row).
Embeddings are gathered once into (B, T, d); one time loop steps all B
sentences in both RNN directions, and the CRF forward-backward runs over
(B, T, L) emissions; weight gradients are single matrix products over all
B*T positions, and the embedding gradient is scattered once per batch.
Padded positions carry zero gradient, so the result equals the per-item sum
(the per-item loops stay in the test suite as the reference).  Prediction
pads a chunk of sentences the same way and decodes the RNN's emissions with
one batched Viterbi; when no row is padded, as for a single sentence, the
backward direction reverses whole rows and the decode needs no mask.

Items are checked once, where they are joined end to end: each kind of id
must be non-empty, 1-D and in range, a tagger's token and label arrays must
agree in length, and a relation's spans must lie in its sentence.  One
function, ``_pad``, builds every (B, T) batch from such flat arrays and the
items' offsets into them, padded to that batch's own longest item: ``pad``'s,
a ``Shard``'s and ``predict_tags``'.  ``loss_and_grad`` pads the items it is
given, or takes a ``Padded`` batch as it is.  Training takes its batches
from a ``Shard``: one client's items stored flat once, so in memory in
proportion to their tokens, in the client's compact parameter space, the
entries of the whole vector its items can move (see ``shard``); a step pads
its rows of the shard and runs on the client's compact weights.  The three
public passes run under ``params.FLOAT_POLICY``: weights that overflow a
pass, or a saturated softmax's log(0), raise FloatingPointError there.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import crf
from .params import FLOAT_POLICY, Layout, ParamVector, validate_layout

MODEL_KINDS = ("window_tagger", "rnn_crf_tagger", "relation_classifier")


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to lay out and run one model; parameter count is a
    pure function of these fields."""

    kind: str
    vocab_size: int
    label_count: int
    embed_dim: int
    hidden_dim: int = 1
    window_radius: int = 0  # window_tagger only

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("vocab_size", "label_count", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.window_radius < 0:
            raise ValueError("window_radius must be >= 0")


@dataclass(frozen=True)
class TagExample:
    """One encoded sentence: parallel int arrays of token and label ids."""

    token_ids: np.ndarray
    label_ids: np.ndarray


@dataclass(frozen=True)
class RelationExample:
    """One encoded relation instance: token ids, two inclusive entity spans,
    and a gold label id."""

    token_ids: np.ndarray
    span1: tuple[int, int]
    span2: tuple[int, int]
    label_id: int


Batch = Sequence[TagExample] | Sequence[RelationExample]


@dataclass
class LossGrad:
    loss: float
    grad: ParamVector


@functools.cache
def segment_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Ordered segment name -> array shape for the given model kind.  This and
    param_layout are built once per (frozen, hashable) spec and shared."""
    V, L = spec.vocab_size, spec.label_count
    d, h, r = spec.embed_dim, spec.hidden_dim, spec.window_radius
    if spec.kind == "window_tagger":
        return {
            "embed": (V, d),
            "out_w": ((2 * r + 1) * d, L),
            "out_b": (L,),
        }
    if spec.kind == "rnn_crf_tagger":
        return {
            "embed": (V, d),
            "rnn_fw_x": (d, h),
            "rnn_fw_h": (h, h),
            "rnn_fw_b": (h,),
            "rnn_bw_x": (d, h),
            "rnn_bw_h": (h, h),
            "rnn_bw_b": (h,),
            "emit_w": (2 * h, L),
            "emit_b": (L,),
            "crf_trans": (L, L),
        }
    return {
        "embed": (V, d),
        "marker1": (d,),
        "marker2": (d,),
        "hidden_w": (d, h),
        "hidden_b": (h,),
        "out_w": (h, L),
        "out_b": (L,),
    }


@functools.cache
def _layout(spec: ModelSpec) -> tuple[Layout, tuple[tuple[str, slice, tuple[int, ...]], ...]]:
    """The spec's segments laid end to end: the layout, its tiling checked
    here once, and each segment's slice and shape."""
    layout: Layout = {}
    parts, offset = [], 0
    for name, shape in segment_shapes(spec).items():
        length = int(np.prod(shape))
        layout[name] = (offset, length)
        parts.append((name, slice(offset, offset + length), shape))
        offset += length
    validate_layout(layout, offset)
    return layout, tuple(parts)


def param_layout(spec: ModelSpec) -> Layout:
    """The layout of the spec's whole parameter vector, built once per spec."""
    return _layout(spec)[0]


def param_count(spec: ModelSpec) -> int:
    return sum(length for _, length in param_layout(spec).values())


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Deterministic init: each segment uniform(-s, s) with
    s = sqrt(6 / (fan_in + fan_out)); the CRF transition table starts at zero."""
    rng = np.random.default_rng(seed)
    w = ParamVector(np.zeros(param_count(spec)), param_layout(spec))
    for name, view in _segments(spec, w).items():
        if name == "crf_trans":
            continue
        fan_in, fan_out = view.shape if view.ndim == 2 else view.shape * 2
        s = np.sqrt(6.0 / (fan_in + fan_out))
        view[...] = rng.uniform(-s, s, size=view.shape)
    return w


Segments = dict[str, np.ndarray]
LossParts = tuple[float, np.ndarray, np.ndarray]  # summed loss; real positions' token ids and embed grads


def _segments(spec: ModelSpec, w: ParamVector) -> Segments:
    """Writable, shaped views of every segment of weights or a gradient laid
    out by ``spec``; slicing ``values`` directly keeps this cheap enough to
    run on every single-sentence prediction."""
    _, parts = _layout(spec)
    return {name: w.values[part].reshape(shape) for name, part, shape in parts}


def _check_weights(spec: ModelSpec, w: ParamVector) -> None:
    if w.layout != param_layout(spec):
        raise ValueError("weight layout does not match the model spec")


def _joined(arrays: Sequence[np.ndarray], limit: int, what: str) -> np.ndarray:
    """Check that there is at least one array and that each is a non-empty
    1-D array of ``what``s in [0, limit), and return them joined end to end."""
    if len(arrays) == 0:
        raise ValueError("no items given")
    for a in arrays:
        if a.ndim != 1 or a.size < 1:
            raise ValueError(f"each item's {what}s must be a non-empty 1-D array")
    flat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    # the ufuncs' own reductions: min() and max() cost a Python call more each
    if np.minimum.reduce(flat) < 0 or np.maximum.reduce(flat) >= limit:
        raise ValueError(f"{what} out of range [0, {limit})")
    return flat


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _pad(lengths: np.ndarray, starts: np.ndarray, *flats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Items whose values are ``flat[starts[b] : starts[b] + lengths[b]]``
    of each 1-D int array ``flat`` of ``flats``, padded to the longest item,
    T values: the (B, T) mask that is True on each item's values (a prefix
    of its row), then each of ``flats`` as a (B, T) array, zero where padded."""
    steps = np.arange(lengths.max())
    mask = steps < lengths[:, None]
    # past an item's end this reads the next item's values (or, clipped, the
    # last value), which the mask then zeroes
    at = starts[:, None] + steps
    padded = [mask]
    for flat in flats:
        values = flat.take(at, mode="clip")
        values *= mask
        padded.append(values)
    return tuple(padded)


@dataclass(frozen=True, eq=False)
class Padded:
    """B items padded to the longest of them, T tokens: (B, T) token ids,
    zero where padded, the (B, T) mask that is True on each item's tokens (a
    prefix of its row) and the B lengths; then a tagger's (B, T) label ids,
    zero where padded, or a relation's B gold label ids and (B, 2, 2) spans."""

    ids: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    spans: np.ndarray | None = None

    def __len__(self) -> int:
        return self.lengths.size


def _flatten(spec: ModelSpec, items: Batch) -> tuple[np.ndarray, ...]:
    """Check ``items`` for the spec's model and join them: their token ids
    end to end, each item's length and offset into them, then a tagger's
    label ids end to end and None, or a relation's gold label ids and
    (n, 2, 2) spans."""
    item_type = RelationExample if spec.kind == "relation_classifier" else TagExample
    if not all(isinstance(item, item_type) for item in items):
        raise ValueError(f"{spec.kind} expects {item_type.__name__} items")
    tokens = [item.token_ids for item in items]
    ids = _joined(tokens, spec.vocab_size, "token id")
    lengths = np.array([a.size for a in tokens])
    offsets = np.cumsum(lengths) - lengths
    if item_type is TagExample:
        label_ids = [item.label_ids for item in items]
        labels = _joined(label_ids, spec.label_count, "label id")
        if any(a.size != n for a, n in zip(label_ids, lengths.tolist())):
            raise ValueError("token and label arrays differ in length")
        return ids, lengths, offsets, labels, None
    for item, T in zip(items, lengths.tolist()):
        _check_span(item.span1, T, "span1")
        _check_span(item.span2, T, "span2")
    spans = np.array([(item.span1, item.span2) for item in items])
    gold = _joined([np.array([item.label_id for item in items])], spec.label_count, "label id")
    return ids, lengths, offsets, gold, spans


def pad(spec: ModelSpec, items: Batch) -> Padded:
    """Check ``items`` for the spec's model and pad them."""
    ids, lengths, offsets, labels, spans = _flatten(spec, items)
    if spans is None:
        mask, ids, labels = _pad(lengths, offsets, ids, labels)
        return Padded(ids, mask, lengths, labels)
    mask, ids = _pad(lengths, offsets, ids)
    return Padded(ids, mask, lengths, labels, spans)


def _check_span(span: tuple[int, int], T: int, which: str) -> None:
    s, e = span
    if not (0 <= s <= e < T):
        raise ValueError(f"{which} [{s}, {e}] out of range for a {T}-token sentence")


def _rows(A: np.ndarray) -> np.ndarray:
    """(..., n) -> (rows, n), for weight gradients summed over all positions."""
    return A.reshape(-1, A.shape[-1])


# ---------------------------------------------------------------------------
# window tagger

def _window_features(spec: ModelSpec, X: np.ndarray) -> np.ndarray:
    """(B, T, (2r+1)d) context windows over embeddings X (B, T, d) that are
    zero at padded positions, so context outside a sentence contributes zeros."""
    B, T, d = X.shape
    r = spec.window_radius
    Xp = np.zeros((B, T + 2 * r, d))
    Xp[:, r : r + T] = X
    return np.concatenate([Xp[:, k : k + T] for k in range(2 * r + 1)], axis=2)


def _window_logits(
    spec: ModelSpec, seg: Segments, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(B, T, L) logits from embeddings X (B, T, d) that are zero at padded
    positions, and the window features they came from."""
    F = _window_features(spec, X)
    return F @ seg["out_w"] + seg["out_b"], F


def _window_loss_grad(spec: ModelSpec, seg: Segments, batch: Padded, gs: Segments) -> LossParts:
    ids, mask, labels = batch.ids, batch.mask, batch.labels
    B, T = ids.shape
    d, r = spec.embed_dim, spec.window_radius
    logits, F = _window_logits(spec, seg, seg["embed"][ids] * mask[:, :, None])
    probs = _softmax_rows(logits)
    rows, steps = np.arange(B)[:, None], np.arange(T)
    loss = float(-np.log(probs[rows, steps, labels][mask]).sum())

    d_logits = probs
    d_logits[rows, steps, labels] -= 1.0
    d_logits *= mask[:, :, None]
    gs["out_b"] += d_logits.sum(axis=(0, 1))
    gs["out_w"] += _rows(F).T @ _rows(d_logits)
    dF = d_logits @ seg["out_w"].T
    dXp = np.zeros((B, T + 2 * r, d))
    for k in range(2 * r + 1):
        dXp[:, k : k + T] += dF[:, :, k * d : (k + 1) * d]
    return loss, ids[mask], dXp[:, r : r + T][mask]


# ---------------------------------------------------------------------------
# bidirectional RNN + CRF
#
# The recurrences run time-major, over (T, B, ·) arrays for a padded batch
# or (T, ·) arrays for one sentence, so each step reads and writes one
# contiguous slice.  The backward direction runs as a left-to-right
# recurrence over each sentence reversed within its own length.  Padding
# then always follows the real tokens, so every sentence starts from a zero
# state in both directions and padded steps never reach a real one.
# Both directions share one time loop over stacked (T, 2, [B,] h) arrays.

def _rnn_states(pre: np.ndarray, w_hh: np.ndarray) -> np.ndarray:
    """Both directions' tanh recurrences over stacked input projections
    (T, 2, [B,] h) and weights (2, h, h); each step's stacked product runs
    each direction's (B, h) @ (h, h), or one sentence's (1, h) @ (h, h)."""
    steps = pre.reshape(pre.shape[0], 2, -1, pre.shape[-1])
    states = np.empty_like(steps)
    prev = np.zeros(steps.shape[1:])
    for t in range(len(steps)):
        prev = np.tanh(steps[t] + prev @ w_hh)
        states[t] = prev
    return states.reshape(pre.shape)


def _rnn_backward(
    d_states: np.ndarray, states: np.ndarray, X: np.ndarray, w_hh: np.ndarray,
    gs: Segments, prefix: str,
) -> np.ndarray:
    """BPTT through one left-to-right recurrence over (T, B, ·) arrays: adds
    the gradients of the ``prefix`` weights to ``gs`` and returns
    d loss / d pre-activation.  Only the carry stays in the time loop; the
    weight gradients are single matrix products over all T*B steps.  Steps
    past a sentence's end get zero gradient, since d_states is zero there."""
    G = d_states.copy()
    dtanh = 1.0 - states**2
    carry = np.zeros(states.shape[1:])
    for t in range(states.shape[0] - 1, -1, -1):
        g = G[t]
        g += carry
        g *= dtanh[t]
        carry = g @ w_hh.T
    G_rows = _rows(G)
    gs[f"{prefix}_x"] += _rows(X).T @ G_rows
    # step 0 starts from a zero state; its zero rows stay in the product, as
    # states[:-1] against G[1:] rounds differently once T*B is large
    prev = np.concatenate([np.zeros((1, *states.shape[1:])), states[:-1]])
    gs[f"{prefix}_h"] += _rows(prev).T @ G_rows
    gs[f"{prefix}_b"] += G_rows.sum(axis=0)
    return G


def _rnn_emissions(
    seg: Segments, X: np.ndarray, flip
) -> tuple[np.ndarray, dict]:
    """Emissions (T, [B,] L) from time-major embeddings X (T, [B,] d).
    ``flip`` indexes X to reverse each sentence within its length: a
    reversed slice when no row is padded, ``crf.reversal(mask)`` otherwise.
    Positions past a sentence's end hold values no real position depends on."""
    X_rev = X[flip]
    pre = np.stack([X @ seg["rnn_fw_x"] + seg["rnn_fw_b"], X_rev @ seg["rnn_bw_x"] + seg["rnn_bw_b"]], axis=1)
    states = _rnn_states(pre, np.stack([seg["rnn_fw_h"], seg["rnn_bw_h"]]))
    fw, bw_rev = states[:, 0], states[:, 1]
    H = np.concatenate([fw, bw_rev[flip]], axis=-1)
    emissions = H @ seg["emit_w"] + seg["emit_b"]
    return emissions, {"X_rev": X_rev, "fw": fw, "bw_rev": bw_rev, "H": H}


def _rnn_crf_loss_grad(spec: ModelSpec, seg: Segments, batch: Padded, gs: Segments) -> LossParts:
    ids, mask, labels = batch.ids, batch.mask, batch.labels
    h = spec.hidden_dim
    flip = crf.reversal(mask)
    X = seg["embed"][ids.T]
    emissions, c = _rnn_emissions(seg, X, flip)
    nll, d_em, d_trans = crf.nll_and_grads(emissions.transpose(1, 0, 2), seg["crf_trans"], labels, mask, flip)

    d_em = d_em.transpose(1, 0, 2)
    gs["crf_trans"] += d_trans
    gs["emit_b"] += d_em.sum(axis=(0, 1))
    gs["emit_w"] += _rows(c["H"]).T @ _rows(d_em)
    dH = d_em @ seg["emit_w"].T
    d_pre_f = _rnn_backward(dH[:, :, :h], c["fw"], X, seg["rnn_fw_h"], gs, "rnn_fw")
    d_pre_b = _rnn_backward(dH[:, :, h:][flip], c["bw_rev"], c["X_rev"], seg["rnn_bw_h"], gs, "rnn_bw")
    dX = d_pre_f @ seg["rnn_fw_x"].T + (d_pre_b @ seg["rnn_bw_x"].T)[flip]
    return float(nll.sum()), ids.T[mask.T], dX[mask.T]


# ---------------------------------------------------------------------------
# relation classifier

def _relation_forward(seg: Segments, batch: Padded) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(B, L) logits for a padded batch of relation instances."""
    ids, mask, spans = batch.ids, batch.mask, batch.spans
    span_lens = spans[:, :, 1] - spans[:, :, 0] + 1
    n = batch.lengths[:, None]

    pooled = (seg["embed"][ids] * mask[:, :, None]).sum(axis=1)
    pooled = (
        pooled + span_lens[:, :1] * seg["marker1"] + span_lens[:, 1:] * seg["marker2"]
    ) / n
    hidden = np.tanh(pooled @ seg["hidden_w"] + seg["hidden_b"])
    logits = hidden @ seg["out_w"] + seg["out_b"]
    cache = {"ids": ids, "mask": mask, "n": n, "span_lens": span_lens, "pooled": pooled, "hidden": hidden}
    return logits, cache


def _relation_loss_grad(spec: ModelSpec, seg: Segments, batch: Padded, gs: Segments) -> LossParts:
    logits, c = _relation_forward(seg, batch)
    probs = _softmax_rows(logits)
    gold = (np.arange(len(batch)), batch.labels)
    loss = float(-np.log(probs[gold]).sum())

    d_logits = probs
    d_logits[gold] -= 1.0
    gs["out_b"] += d_logits.sum(axis=0)
    gs["out_w"] += c["hidden"].T @ d_logits
    d_hidden = (d_logits @ seg["out_w"].T) * (1.0 - c["hidden"] ** 2)
    gs["hidden_b"] += d_hidden.sum(axis=0)
    gs["hidden_w"] += c["pooled"].T @ d_hidden

    d_pooled = (d_hidden @ seg["hidden_w"].T) / c["n"]
    gs["marker1"] += c["span_lens"][:, 0] @ d_pooled
    gs["marker2"] += c["span_lens"][:, 1] @ d_pooled
    return loss, c["ids"][c["mask"]], np.repeat(d_pooled, c["n"][:, 0], axis=0)


# ---------------------------------------------------------------------------
# public interface

@dataclass(frozen=True, eq=False)
class Shard:
    """One client's items in its own compact parameter space, built once by
    ``shard``: ``spec``, the model over just the entries of the whole vector
    that training on them can move, and ``entries``, those entries' sorted
    indices in the whole vector, in the smallest unsigned integer type that
    holds every index; then the items stored flat: ``ids``, their token ids
    end to end, renumbered to the ``embed`` rows the entries hold, each
    item's ``lengths`` and ``offsets`` into ``ids``, and a tagger's label
    ids end to end, or a relation's gold label ids and (n, 2, 2) spans."""

    spec: ModelSpec
    entries: np.ndarray
    ids: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    spans: np.ndarray | None = None

    def __len__(self) -> int:
        return self.lengths.size

    def batch(self, rows: np.ndarray) -> Padded:
        """Items ``rows``, in that order, padded to the longest of them: the
        arrays ``pad`` gives for those items."""
        lengths, starts = self.lengths[rows], self.offsets[rows]
        if self.spans is None:
            mask, ids, labels = _pad(lengths, starts, self.ids, self.labels)
            return Padded(ids, mask, lengths, labels)
        mask, ids = _pad(lengths, starts, self.ids)
        return Padded(ids, mask, lengths, self.labels[rows], self.spans[rows])


def shard(spec: ModelSpec, items: Batch) -> Shard:
    """``items``, checked and stored flat once, in the compact space of the
    entries they can move.  ``loss_and_grad`` writes the ``embed`` gradient
    with one ``np.add.at`` at a batch's token ids and no other row, and may
    write any entry of the other segments: so the entries are the ``embed``
    rows of the items' token ids, sorted, and every entry after ``embed``,
    the first segment.  Off them, every gradient is +0.0, so a client that
    trains only those entries, gathered once from the server weights, and
    scatters them back takes the steps of the whole vector exactly."""
    ids, lengths, offsets, labels, spans = _flatten(spec, items)
    seen = np.zeros(spec.vocab_size, dtype=bool)
    seen[ids] = True  # np.unique would import numpy.ma
    rows = np.flatnonzero(seen)
    d = spec.embed_dim
    _, length = param_layout(spec)["embed"]  # at offset 0
    size = param_count(spec)
    entries = np.concatenate([(rows[:, None] * d + np.arange(d)).ravel(), np.arange(length, size)])
    entries = entries.astype(np.min_scalar_type(size - 1))  # uint16 up to 65,536 values
    renumbered = (np.cumsum(seen) - 1)[ids]  # each token id's row among ``rows``
    compact = dataclasses.replace(spec, vocab_size=rows.size)
    return Shard(compact, entries, renumbered, lengths, offsets, labels, spans)


_LOSS_GRAD = {"window_tagger": _window_loss_grad, "rnn_crf_tagger": _rnn_crf_loss_grad,
              "relation_classifier": _relation_loss_grad}


@np.errstate(**FLOAT_POLICY)
def loss_and_grad(spec: ModelSpec, w: ParamVector, batch: Batch | Padded) -> LossGrad:
    """Mean per-item NLL over the batch and the matching exact gradient,
    from one padded, masked pass over the whole batch.  ``batch`` is items,
    which ``pad`` checks and pads here, or a ``Padded`` batch, run as it is:
    one taken from a ``Shard`` runs on the shard's spec and compact weights."""
    _check_weights(spec, w)
    if not isinstance(batch, Padded):
        batch = pad(spec, batch)
    grad = ParamVector(np.zeros(w.size), w.layout)
    seg, gs = _segments(spec, w), _segments(spec, grad)
    total, tokens, d_embed = _LOSS_GRAD[spec.kind](spec, seg, batch, gs)
    np.add.at(gs["embed"], tokens, d_embed)  # the one write to an embed gradient
    grad.values /= len(batch)
    return LossGrad(loss=total / len(batch), grad=grad)


@np.errstate(**FLOAT_POLICY)
def predict_tags(spec: ModelSpec, w: ParamVector, sentences: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Label ids for each sentence's token ids, from one padded, masked pass
    over all of them; ties break toward the lowest label index."""
    _check_weights(spec, w)
    if spec.kind == "relation_classifier":
        raise ValueError(f"{spec.kind} does not tag sentences")
    flat = _joined(sentences, spec.vocab_size, "token id")
    lengths = [ids.size for ids in sentences]
    padded = min(lengths) < max(lengths)
    if padded:
        n = np.array(lengths)
        mask, ids = _pad(n, np.cumsum(n) - n, flat)
    else:
        ids, mask = flat.reshape(len(lengths), -1), None
    seg = _segments(spec, w)
    if spec.kind == "window_tagger":
        X = seg["embed"][ids]
        if padded:
            X *= mask[:, :, None]
        tags = _window_logits(spec, seg, X)[0].argmax(axis=2)
    else:
        # one sentence runs unbatched, as numpy's (T, d) products beat (T, 1, d)
        # ones; only its recurrence steps a (2, 1, h) view
        X = seg["embed"][ids.T if len(ids) > 1 else ids[0]]
        emissions, _ = _rnn_emissions(seg, X, crf.reversal(mask) if padded else slice(None, None, -1))
        tags = crf.viterbi(emissions.swapaxes(0, -2), seg["crf_trans"], mask)
    tags = tags.reshape(ids.shape)
    return [tags[b, :n] for b, n in enumerate(lengths)]


@np.errstate(**FLOAT_POLICY)
def predict_relations(spec: ModelSpec, w: ParamVector, items: Sequence[RelationExample]) -> np.ndarray:
    """Argmax relation label id of each item, from one batched pass; ties
    break toward the lowest index."""
    _check_weights(spec, w)
    if spec.kind != "relation_classifier":
        raise ValueError(f"{spec.kind} does not classify relations")
    logits, _ = _relation_forward(_segments(spec, w), pad(spec, items))
    return logits.argmax(axis=1)
