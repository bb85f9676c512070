"""Linear-chain CRF recursions over dense score matrices.

A path y_1..y_T scores sum_t emissions[t, y_t] + sum_{t>=1} transitions[y_{t-1}, y_t].
The sentence negative log-likelihood and its gradients come from
forward-backward marginals, computed for a whole padded mini-batch at once.
Scores must be finite.

The forward-backward runs in probability space with Rabiner's scaling
(Rabiner 1989, "A tutorial on hidden Markov models", Proc. IEEE 77(2)).
Each position's emissions are shifted by their own maximum and the
transitions by theirs, and exponentiated once.  The forward message and the
backward one, which runs over each sentence reversed within its length
(``reversal``), then share one left-to-right loop over a stacked (T, 2, B, L)
array, each normalised to sum 1 at every step; one stacked product per step
gives both messages and their sums.  log Z is the sum of the log normalisers
and the shifts.  The score spread is ``ptp(transitions)`` plus the largest
max - min of one real position's emissions; trained models sit at 10-20.
Against an extended-precision reference, the marginals were within 2e-12
up to a spread of 700; the first failures, from about 700, were non-finite
results, never finite wrong ones.  A batch whose spread reaches
``SCALED_SPREAD_LIMIT`` (500) is refused with a ValueError naming the
spread: only a diverging run gets there.

Viterbi decodes one sentence, or a whole padded batch in one pass.
"""
from __future__ import annotations

import numpy as np

# the score spread from which nll_and_grads refuses a batch, well inside the
# scaled recursion's accurate range; no valid run passes 21, and tests pin
# both sides of it
SCALED_SPREAD_LIMIT = 500.0


def _check_scores(emissions: np.ndarray, transitions: np.ndarray, axes: str = "TL") -> None:
    if emissions.ndim != len(axes) or min(emissions.shape) < 1:
        raise ValueError(
            f"emissions must be ({', '.join(axes)}) with every size >= 1, got {emissions.shape}"
        )
    L = emissions.shape[-1]
    if transitions.shape != (L, L):
        raise ValueError(
            f"transitions must be ({L}, {L}) to match emissions, got {transitions.shape}"
        )
    if not (np.isfinite(emissions).all() and np.isfinite(transitions).all()):
        raise ValueError("CRF scores must be finite")


def _check_mask(mask: np.ndarray, B: int, T: int) -> None:
    if mask.shape != (B, T) or mask.dtype != bool:
        raise ValueError(f"mask must be a boolean ({B}, {T}) array")
    if not mask[:, 0].all() or (mask[:, 1:] > mask[:, :-1]).any():
        raise ValueError("mask must mark a non-empty prefix of every row")


def reversal(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index for time-major (T, B, ...) arrays that reverses each sentence's
    real prefix and leaves its padding in place; it is its own inverse."""
    B, T = mask.shape
    t = np.arange(T)[:, None]
    return np.where(mask.T, mask.sum(axis=1) - 1 - t, t), np.arange(B)


def nll_and_grads(
    emissions: np.ndarray, transitions: np.ndarray, labels: np.ndarray, mask: np.ndarray,
    flip: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sentence NLL (logZ - gold score) of a padded batch, and its gradients.

    ``emissions`` is (B, T, L); ``labels`` and ``mask`` are (B, T), and
    ``mask[b]`` is True on sentence b's tokens, a non-empty prefix of the row.
    A caller that has built ``reversal(mask)`` already passes it as ``flip``.
    Padded positions take no part in any sentence's score.  Returns the (B,)
    NLLs, d NLL-sum / d emissions (zero at padded positions) and
    d NLL-sum / d transitions:

    d nll / d emissions[b, t, j] = P(y_t = j) - [gold y_t = j]
    d nll / d transitions[i, j] = E[# i -> j steps] - #gold i -> j steps
    with expectations under the CRF distribution, via forward-backward.
    """
    _check_scores(emissions, transitions, "BTL")
    B, T, L = emissions.shape
    labels = np.asarray(labels)
    mask = np.asarray(mask)
    if labels.shape != (B, T):
        raise ValueError(f"labels must be ({B}, {T}), got {labels.shape}")
    _check_mask(mask, B, T)
    real = labels[mask]
    if real.min() < 0 or real.max() >= L:
        raise ValueError("label id out of range for CRF")
    labels = np.where(mask, labels, 0)

    em = emissions.transpose(1, 0, 2)  # time-major view
    shift = em.max(axis=2)
    # padded positions score 0 for every label, which keeps every scale
    # factor positive there whatever the padding holds
    shifted = np.where(mask.T[:, :, None], em - shift[:, :, None], 0.0)
    # -shifted.min() is the largest max - min of one real position, as
    # rounding is monotone and symmetric
    spread = np.ptp(transitions) - shifted.min()
    if spread >= SCALED_SPREAD_LIMIT:
        raise ValueError(f"CRF score spread {spread:.4g} reaches the limit {SCALED_SPREAD_LIMIT:g}")
    flip = reversal(mask) if flip is None else flip
    log_z, d_emissions, d_transitions = _scaled_expectations(shifted, shift, transitions, mask, flip)

    rows, steps = np.arange(B)[:, None], np.arange(T)
    d_emissions[rows, steps, labels] -= mask
    moves = mask[:, 1:]
    gold = (emissions[rows, steps, labels] * mask).sum(axis=1)
    gold += (transitions[labels[:, :-1], labels[:, 1:]] * moves).sum(axis=1)
    pairs = (labels[:, :-1] * L + labels[:, 1:])[moves]
    d_transitions -= np.bincount(pairs, minlength=L * L).reshape(L, L)
    return log_z - gold, d_emissions, d_transitions


def _scaled_expectations(
    shifted: np.ndarray, shift: np.ndarray, transitions: np.ndarray, mask: np.ndarray,
    flip: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log Z (B,), unary marginals (B, T, L) and expected transition counts
    (L, L) by the scaled recursion, from time-major emissions less their
    per-position maxima ``shift`` (``shifted``, 0 at padding) and the
    index ``flip`` = ``reversal(mask)``."""
    T, B, L = shifted.shape
    real = mask.T
    top = transitions.max()
    step_scores = np.exp(transitions - top)
    emit = np.empty((T, 2, B, L))  # forward, and each sentence reversed within its length
    emit[:, 0] = shifted
    emit[:, 1] = shifted[flip]
    np.exp(emit, out=emit)
    # x[t] is the message into step t, before its emission, normalised by
    # c[t]: raw[t] = (x[t-1] * emit[t-1]) @ into, whose last column is c[t]
    into = np.empty((2, L, L + 1))
    into[:, :, :L] = step_scores, step_scores.T
    into[:, :, L] = into[:, :, :L].sum(axis=2)
    raw = np.empty((T, 2, B, L + 1))
    raw[0] = 1.0
    x = np.empty_like(emit)
    x[0] = 1.0
    for t in range(1, T):
        np.matmul(x[t - 1] * emit[t - 1], into, out=raw[t])
        np.divide(raw[t, :, :, :L], raw[t, :, :, L:], out=x[t])

    c = raw[:, 0, :, L]  # the forward normalisers, 1 at step 0
    fw = x[:, 0] * emit[:, 0]  # forward message times emission, at each position
    bw = x[:, 1][flip]  # backward message, back in sentence order
    unary = fw * bw
    z = unary.sum(axis=2)
    norm = np.divide(1.0, z, out=np.zeros_like(z), where=real)
    unary *= norm[:, :, None]
    # P(y_{t-1} = i, y_t = j) = fw[t-1, i] step_scores[i, j] emit[t, j] bw[t, j] / (c[t] z[t])
    ahead = emit[1:, 0] * bw[1:] * (norm[1:] / c[1:])[:, :, None]
    d_transitions = step_scores * (fw[:-1].reshape(-1, L).T @ ahead.reshape(-1, L))

    last = mask.sum(axis=1) - 1
    log_z = np.where(real, np.log(c) + shift, 0.0).sum(axis=0)
    log_z += np.log(z[last, np.arange(B)]) + last * top
    return log_z, unary.transpose(1, 0, 2), d_transitions


def viterbi(
    emissions: np.ndarray, transitions: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Highest-scoring label path of each sentence; ties break toward the
    lowest label index.

    ``emissions`` is (T, L) for one sentence or (B, T, L) for a batch, and
    the result is (T,) or (B, T) label ids.  A padded batch passes its (B, T)
    ``mask``, True on each sentence's tokens (a non-empty prefix of its row);
    a padded position then repeats its sentence's last real label, and the
    scores there take no part in any path.
    """
    batched = emissions.ndim == 3
    _check_scores(emissions, transitions, "BTL" if batched else "TL")
    if mask is not None:
        if not batched:
            raise ValueError("a mask needs (B, T, L) emissions")
        mask = np.asarray(mask)
        _check_mask(mask, *emissions.shape[:2])
    T, L = emissions.shape[-2:]
    em = emissions.swapaxes(-2, 0)  # time-major, so each step is one slice
    back = np.empty(em.shape, dtype=np.intp)
    into = transitions.T
    rows = np.arange(0, em[0].size * L, L).reshape(em[0].shape)  # cand[..., j, :] in cand.ravel()
    delta = em[0]
    deltas = [delta]
    # every row runs every step; padding is resolved once, after the loop
    for t in range(1, T):
        cand = delta[..., None, :] + into  # cand[..., j, i]: best-so-far ending i, step to j
        best = cand.argmax(axis=-1, out=back[t])  # the first maximum, i.e. lowest index
        delta = em[t] + cand.take(rows + best)
        deltas.append(delta)
    if mask is not None:
        # a padded step passes every label back unchanged, and each sentence
        # ends at its own last real step
        back = np.where(np.transpose(mask)[:, :, None], back, np.arange(L))
        delta = np.stack(deltas)[mask.sum(axis=1) - 1, np.arange(len(mask))]
    flat = back.reshape(T, -1)
    offsets = np.arange(em.shape[1]) * L if batched else 0
    path = np.empty(em.shape[:-1], dtype=np.intp)
    path[-1] = delta.argmax(axis=-1)
    for t in range(T - 1, 0, -1):
        path[t - 1] = flat[t, offsets + path[t]]
    return path.T
