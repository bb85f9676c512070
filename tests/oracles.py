"""Reference implementations the package's faster code is checked against.

The per-sentence and per-item loops are the ones the batched passes in
``fedtext.crf`` and ``fedtext.models`` replaced: one sentence (or relation
instance) at a time, one timestep at a time.  The CRF ones are checked
against exhaustive path enumeration and finite differences in
``test_crf.py``; the batched code must match all of them to 1e-10, and
batched decoding must give exactly the per-sentence paths.  The two-loop
bidirectional RNN pass and the functional optimizer step are the ones the
one-loop pass in ``fedtext.models`` and the in-place ``fedtext.optim`` step
replaced, which must match them bit for bit.

The highlight parser is the one ``fedtext.llm_bridge`` replaced with one
regex split per response and a ``list.index`` search: a ``finditer`` walk
over the markers, a ``sub`` of the inner ones, and a slice comparison at
every start position.  The package's parser must give the same spans and
the same diagnostics.

The writers at the end make the files the package reads (highlighted
responses, response records, prediction files); only tests need them.
"""
from __future__ import annotations

import json
import re
from itertools import chain
from typing import Sequence

import numpy as np

from fedtext.corpus import _write_columns
from fedtext.crf import _check_scores
from fedtext.evaluation import EntitySpan
from fedtext.llm_bridge import TAG_NAME, HighlightDiagnostics
from fedtext.models import segment_shapes
from fedtext.params import ParamVector


def _lse(scores, axis):
    m = scores.max(axis=axis, keepdims=True)
    return m.squeeze(axis) + np.log(np.exp(scores - m).sum(axis=axis))


def path_score(emissions, transitions, labels):
    """Score of one label path: emission terms plus consecutive-pair transitions."""
    T = emissions.shape[0]
    score = float(emissions[np.arange(T), labels].sum())
    if T > 1:
        score += float(transitions[labels[:-1], labels[1:]].sum())
    return score


def log_partition(emissions, transitions):
    """Log of the sum of exp(path score) over all L**T label paths, by the
    forward recursion in log space."""
    _check_scores(emissions, transitions)
    alpha = emissions[0].astype(np.float64)
    for t in range(1, emissions.shape[0]):
        alpha = emissions[t] + _lse(alpha[:, None] + transitions, axis=0)
    return float(_lse(alpha, axis=0))


def viterbi(emissions, transitions):
    """Highest-scoring label path of one sentence; ties break toward the lowest label index."""
    _check_scores(emissions, transitions)
    T, L = emissions.shape
    delta = emissions[0].astype(np.float64)
    back = np.empty((T, L), dtype=np.intp)
    for t in range(1, T):
        cand = delta[:, None] + transitions  # cand[i, j]: best-so-far ending i, step to j
        back[t] = cand.argmax(axis=0)  # argmax takes the first maximum, i.e. lowest index
        delta = emissions[t] + cand[back[t], np.arange(L)]
    path = np.empty(T, dtype=np.intp)
    path[T - 1] = delta.argmax()
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def crf_nll_and_grads(emissions, transitions, labels):
    """Sentence NLL (logZ - gold score) and its gradients w.r.t. both score matrices.

    d nll / d emissions[t, j] = P(y_t = j) - [gold y_t = j]
    d nll / d transitions[i, j] = E[# i -> j steps] - #gold i -> j steps
    with expectations under the CRF distribution, via forward-backward.
    """
    T, L = emissions.shape
    labels = np.asarray(labels)
    if labels.shape != (T,):
        raise ValueError(f"labels must be ({T},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= L:
        raise ValueError("label id out of range for CRF")

    alpha = np.empty((T, L))
    alpha[0] = emissions[0]
    for t in range(1, T):
        alpha[t] = emissions[t] + _lse(alpha[t - 1][:, None] + transitions, axis=0)
    log_z = float(_lse(alpha[T - 1], axis=0))

    beta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        beta[t] = _lse(transitions + (emissions[t + 1] + beta[t + 1])[None, :], axis=1)

    d_emissions = np.exp(alpha + beta - log_z)
    d_emissions[np.arange(T), labels] -= 1.0

    d_transitions = np.zeros((L, L))
    for t in range(1, T):
        d_transitions += np.exp(
            alpha[t - 1][:, None] + transitions + (emissions[t] + beta[t])[None, :] - log_z
        )
    if T > 1:
        np.subtract.at(d_transitions, (labels[:-1], labels[1:]), 1.0)

    nll = log_z - path_score(emissions, transitions, labels)
    return nll, d_emissions, d_transitions


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def segment(w, name, shape=None):
    """Writable view of the segment ``name`` of the parameter vector ``w``,
    reshaped to ``shape`` if given; read straight from ``w.layout``, not
    through the package's cached slices."""
    offset, length = w.layout[name]
    view = w.values[offset : offset + length]
    return view if shape is None else view.reshape(shape)


def _segments(spec, w):
    return {name: segment(w, name, shape) for name, shape in segment_shapes(spec).items()}


# ---------------------------------------------------------------------------
# window tagger

def _window_features(spec, X):
    T, d, r = X.shape[0], spec.embed_dim, spec.window_radius
    F = np.zeros((T, (2 * r + 1) * d))
    for k, off in enumerate(range(-r, r + 1)):
        lo = max(0, -off)
        hi = max(lo, min(T, T - off))
        F[lo:hi, k * d : (k + 1) * d] = X[lo + off : hi + off]
    return F


def _window_loss_grad(spec, w, item, grad):
    seg = _segments(spec, w)
    T, d, r = item.token_ids.size, spec.embed_dim, spec.window_radius
    F = _window_features(spec, seg["embed"][item.token_ids])
    probs = _softmax(F @ seg["out_w"] + seg["out_b"])
    loss = float(-np.log(probs[np.arange(T), item.label_ids]).sum())

    d_logits = probs
    d_logits[np.arange(T), item.label_ids] -= 1.0
    segment(grad, "out_b")[:] += d_logits.sum(axis=0)
    segment(grad, "out_w", seg["out_w"].shape)[:] += F.T @ d_logits
    dF = d_logits @ seg["out_w"].T
    dX = np.zeros((T, d))
    for k, off in enumerate(range(-r, r + 1)):
        lo = max(0, -off)
        hi = max(lo, min(T, T - off))
        dX[lo + off : hi + off] += dF[lo:hi, k * d : (k + 1) * d]
    np.add.at(segment(grad, "embed", seg["embed"].shape), item.token_ids, dX)
    return loss


# ---------------------------------------------------------------------------
# bidirectional RNN + CRF

def _rnn_states(pre, w_hh, reverse):
    T, h = pre.shape
    states = np.empty((T, h))
    prev = np.zeros(h)
    for t in range(T - 1, -1, -1) if reverse else range(T):
        prev = np.tanh(pre[t] + prev @ w_hh)
        states[t] = prev
    return states


def _rnn_backward(d_states, states, X, w_x, w_hh, reverse):
    """BPTT through one direction; returns (dX, d_w_x, d_w_hh, d_b)."""
    T, h = states.shape
    d_w_x = np.zeros_like(w_x)
    d_w_hh = np.zeros_like(w_hh)
    d_b = np.zeros(h)
    dX = np.zeros_like(X)
    carry = np.zeros(h)
    for t in range(T) if reverse else range(T - 1, -1, -1):
        g = (d_states[t] + carry) * (1.0 - states[t] ** 2)
        prev_idx = t + 1 if reverse else t - 1
        prev = states[prev_idx] if 0 <= prev_idx < T else np.zeros(h)
        d_w_x += np.outer(X[t], g)
        d_w_hh += np.outer(prev, g)
        d_b += g
        dX[t] = g @ w_x.T
        carry = g @ w_hh.T
    return dX, d_w_x, d_w_hh, d_b


def _rnn_forward(c, X):
    fw = _rnn_states(X @ c["rnn_fw_x"] + c["rnn_fw_b"], c["rnn_fw_h"], reverse=False)
    bw = _rnn_states(X @ c["rnn_bw_x"] + c["rnn_bw_b"], c["rnn_bw_h"], reverse=True)
    H = np.concatenate([fw, bw], axis=1)
    return fw, bw, H, H @ c["emit_w"] + c["emit_b"]


def _rnn_crf_loss_grad(spec, w, item, grad):
    h = spec.hidden_dim
    c = _segments(spec, w)
    X = c["embed"][item.token_ids]
    fw, bw, H, emissions = _rnn_forward(c, X)
    loss, d_em, d_trans = crf_nll_and_grads(emissions, c["crf_trans"], item.label_ids)

    segment(grad, "crf_trans", c["crf_trans"].shape)[:] += d_trans
    segment(grad, "emit_b")[:] += d_em.sum(axis=0)
    segment(grad, "emit_w", c["emit_w"].shape)[:] += H.T @ d_em
    dH = d_em @ c["emit_w"].T
    dX_f, d_wx_f, d_wh_f, d_b_f = _rnn_backward(
        dH[:, :h], fw, X, c["rnn_fw_x"], c["rnn_fw_h"], reverse=False
    )
    dX_b, d_wx_b, d_wh_b, d_b_b = _rnn_backward(
        dH[:, h:], bw, X, c["rnn_bw_x"], c["rnn_bw_h"], reverse=True
    )
    segment(grad, "rnn_fw_x", d_wx_f.shape)[:] += d_wx_f
    segment(grad, "rnn_fw_h", d_wh_f.shape)[:] += d_wh_f
    segment(grad, "rnn_fw_b")[:] += d_b_f
    segment(grad, "rnn_bw_x", d_wx_b.shape)[:] += d_wx_b
    segment(grad, "rnn_bw_h", d_wh_b.shape)[:] += d_wh_b
    segment(grad, "rnn_bw_b")[:] += d_b_b
    np.add.at(segment(grad, "embed", c["embed"].shape), item.token_ids, dX_f + dX_b)
    return loss


def _rnn_one_direction(pre, w_hh):
    """Left-to-right tanh recurrence over pre-computed input projections (T, [B,] h)."""
    states = np.empty_like(pre)
    prev = np.zeros(pre.shape[1:])
    for t in range(pre.shape[0]):
        prev = np.tanh(pre[t] + prev @ w_hh)
        states[t] = prev
    return states


def rnn_emissions_two_loops(seg, X, flip):
    """Emissions (T, [B,] L) from time-major embeddings X (T, [B,] d), with
    one time loop per direction; ``flip`` reverses each sentence within its
    length, as in ``fedtext.models._rnn_emissions``, whose one-loop pass must
    equal this one bit for bit at every real position."""
    X_rev = X[flip]
    fw = _rnn_one_direction(X @ seg["rnn_fw_x"] + seg["rnn_fw_b"], seg["rnn_fw_h"])
    bw_rev = _rnn_one_direction(X_rev @ seg["rnn_bw_x"] + seg["rnn_bw_b"], seg["rnn_bw_h"])
    H = np.concatenate([fw, bw_rev[flip]], axis=-1)
    return H @ seg["emit_w"] + seg["emit_b"]


# ---------------------------------------------------------------------------
# relation classifier

def _relation_loss_grad(spec, w, item, grad):
    c = _segments(spec, w)
    T = item.token_ids.size
    len1 = item.span1[1] - item.span1[0] + 1
    len2 = item.span2[1] - item.span2[0] + 1
    pooled = c["embed"][item.token_ids].sum(axis=0)
    pooled = (pooled + len1 * c["marker1"] + len2 * c["marker2"]) / T
    hidden = np.tanh(pooled @ c["hidden_w"] + c["hidden_b"])
    probs = _softmax(hidden @ c["out_w"] + c["out_b"])
    loss = float(-np.log(probs[item.label_id]))

    d_logits = probs
    d_logits[item.label_id] -= 1.0
    segment(grad, "out_b")[:] += d_logits
    segment(grad, "out_w", c["out_w"].shape)[:] += np.outer(hidden, d_logits)
    d_hidden = (d_logits @ c["out_w"].T) * (1.0 - hidden**2)
    segment(grad, "hidden_b")[:] += d_hidden
    segment(grad, "hidden_w", c["hidden_w"].shape)[:] += np.outer(pooled, d_hidden)
    d_pooled = (d_hidden @ c["hidden_w"].T) / T
    segment(grad, "marker1")[:] += len1 * d_pooled
    segment(grad, "marker2")[:] += len2 * d_pooled
    np.add.at(
        segment(grad, "embed", c["embed"].shape),
        item.token_ids,
        np.broadcast_to(d_pooled, (T, spec.embed_dim)),
    )
    return loss


def loss_and_grad(spec, w, batch):
    """Mean per-item NLL and gradient, one item at a time; inputs are
    assumed valid (the batched code under test validates them)."""
    grad = ParamVector(np.zeros(w.size), w.layout)
    total = 0.0
    for item in batch:
        if spec.kind == "relation_classifier":
            total += _relation_loss_grad(spec, w, item, grad)
        elif spec.kind == "window_tagger":
            total += _window_loss_grad(spec, w, item, grad)
        else:
            total += _rnn_crf_loss_grad(spec, w, item, grad)
    grad.values /= len(batch)
    return total / len(batch), grad


def predict_tags(spec, w, token_ids):
    """One sentence's label ids, from its own unpadded forward pass."""
    c = _segments(spec, w)
    X = c["embed"][token_ids]
    if spec.kind == "window_tagger":
        return (_window_features(spec, X) @ c["out_w"] + c["out_b"]).argmax(axis=1)
    return viterbi(_rnn_forward(c, X)[3], c["crf_trans"])


def optimizer_step(kind, m, v, step_count, w, grad, lr, mu=0.0, anchor=None):
    """One functional sgd/adam step on plain arrays, with the proximal
    gradient mu * (w - anchor) added first; returns new (m, v, step_count, w)
    and the penalty (mu / 2) * ||w - anchor||^2, leaving the inputs untouched."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    penalty = 0.0
    if mu != 0.0:
        diff = w - anchor
        penalty = 0.5 * mu * float(diff @ diff)
        grad = grad + mu * diff
    t = step_count + 1
    if kind == "sgd":
        return m, v, t, w - lr * grad, penalty
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return m, v, t, w - lr * m_hat / (np.sqrt(v_hat) + eps), penalty


# ---------------------------------------------------------------------------
# highlight parsing

def _highlight_regions(response: str, marker: re.Pattern, diag: HighlightDiagnostics) -> list[str]:
    """Text between the open and close tags ``marker`` matches.  Nested opens
    flatten into the enclosing region, stray closes are ignored, an unclosed
    open runs to the end of the response."""
    regions: list[str] = []
    depth = 0
    start = 0
    for m in marker.finditer(response):
        is_close = m.group(0).startswith("</")
        if not is_close:
            if depth == 0:
                start = m.end()
            else:
                diag.nested += 1
            depth += 1
        else:
            if depth == 0:
                diag.stray_close += 1
                continue
            depth -= 1
            if depth == 0:
                regions.append(response[start : m.start()])
    if depth > 0:
        diag.unclosed += 1
        regions.append(response[start:])
    # drop any flattened inner markers left inside a region
    return [marker.sub(" ", r) for r in regions]


def _find_subsequence(haystack: list[str], needle: list[str], cursor: int) -> int:
    """First position of ``needle`` in ``haystack`` at or after ``cursor``,
    else the first one before it; -1 if there is none."""
    n = len(needle)
    end = len(haystack) - n + 1
    for i in chain(range(cursor, end), range(min(cursor, end))):
        if haystack[i : i + n] == needle:
            return i
    return -1


def parse_highlights(
    response: str,
    tokens: Sequence[str],
    entity_label: str,
    tag: str,
    diagnostics: HighlightDiagnostics | None = None,
    casefold: bool = False,
) -> list[EntitySpan]:
    """Spans for the highlighted regions of one response.

    Each region is whitespace-tokenized and aligned to the original sentence
    by its longest contiguous token run that appears there, searching left to
    right past the previous match; regions with no token match are dropped
    and counted.  ``casefold`` switches to case-insensitive alignment (off by
    default; kept for sensitivity checks).  A ``tag`` TAG_NAME does not match
    is refused: an empty one would read ``<>`` and ``</>`` as highlights.
    """
    if not TAG_NAME.fullmatch(tag):
        raise ValueError(f"tag {tag!r} is not a usable HTML tag name")
    diag = diagnostics if diagnostics is not None else HighlightDiagnostics()
    haystack = [t.casefold() for t in tokens] if casefold else list(tokens)
    marker = re.compile(rf"</?{re.escape(tag)}>")
    spans: list[EntitySpan] = []
    cursor = 0
    for region in _highlight_regions(response, marker, diag):
        words = region.split()
        if casefold:
            words = [w.casefold() for w in words]
        placed = False
        for n in range(len(words), 0, -1):
            for off in range(0, len(words) - n + 1):
                needle = words[off : off + n]
                at = _find_subsequence(haystack, needle, cursor)
                if at >= 0:
                    spans.append(EntitySpan(entity_label, at, at + n - 1))
                    cursor = at + n
                    placed = True
                    break
            if placed:
                break
        if not placed:
            diag.dropped += 1
    return spans


# ---------------------------------------------------------------------------
# writers of the files the package reads

def render_highlights(tokens, spans, tag):
    """Echo the sentence with span tokens wrapped in <tag>...</tag>."""
    opens = {s.start: s for s in spans}
    closes = {s.end for s in spans}
    parts = []
    for i, tok in enumerate(tokens):
        piece = tok
        if i in opens:
            piece = f"<{tag}>{piece}"
        if i in closes:
            piece = f"{piece}</{tag}>"
        parts.append(piece)
    return " ".join(parts)


def write_responses(records):
    """Response records as the JSON lines llm_bridge.read_responses reads."""
    return "".join(
        json.dumps({"id": r.id, "response": r.response}, sort_keys=True) + "\n"
        for r in records
    )


def serialize_predictions(pairs):
    """(gold sentence, predicted tags) pairs as the three-column file
    corpus.parse_predictions reads."""
    return _write_columns((sent.tokens, sent.labels, pred) for sent, pred in pairs)
