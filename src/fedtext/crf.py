"""Linear-chain CRF recursions over dense score matrices.

A path y_1..y_T scores sum_t emissions[t, y_t] + sum_{t>=1} transitions[y_{t-1}, y_t].
The log-partition runs the forward recursion in log space with a per-step max
subtraction, so it stays finite for any finite inputs.  Gradients of the
sentence negative log-likelihood come from forward-backward marginals,
computed for a whole padded mini-batch at once; decoding is per sentence.
"""
from __future__ import annotations

import numpy as np


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


def _lse(scores: np.ndarray, axis: int) -> np.ndarray:
    # log-sum-exp with max subtraction; inputs are finite by contract
    m = scores.max(axis=axis, keepdims=True)
    out = m.squeeze(axis) + np.log(np.exp(scores - m).sum(axis=axis))
    return out


def path_score(emissions: np.ndarray, transitions: np.ndarray, labels: np.ndarray) -> float:
    """Score of one label path: emission terms plus consecutive-pair transitions."""
    T = emissions.shape[0]
    score = float(emissions[np.arange(T), labels].sum())
    if T > 1:
        score += float(transitions[labels[:-1], labels[1:]].sum())
    return score


def log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """Log of the sum of exp(path score) over all L**T label paths."""
    _check_scores(emissions, transitions)
    alpha = emissions[0].astype(np.float64)
    for t in range(1, emissions.shape[0]):
        alpha = emissions[t] + _lse(alpha[:, None] + transitions, axis=0)
    return float(_lse(alpha, axis=0))


def nll_and_grads(
    emissions: np.ndarray, transitions: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sentence NLL (logZ - gold score) of a padded batch, and its gradients.

    ``emissions`` is (B, T, L); ``labels`` and ``mask`` are (B, T), and
    ``mask[b]`` is True on sentence b's tokens, a non-empty prefix of the row.
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
    if labels.shape != (B, T) or mask.shape != (B, T) or mask.dtype != bool:
        raise ValueError(f"labels and a boolean mask must be ({B}, {T})")
    if not mask[:, 0].all() or (mask[:, 1:] > mask[:, :-1]).any():
        raise ValueError("mask must mark a non-empty prefix of every row")
    real = labels[mask]
    if real.min() < 0 or real.max() >= L:
        raise ValueError("label id out of range for CRF")
    labels = np.where(mask, labels, 0)

    # alpha carries through padding, so alpha[:, -1] holds each sentence's last real step
    alpha = np.empty((B, T, L))
    alpha[:, 0] = emissions[:, 0]
    for t in range(1, T):
        step = emissions[:, t] + _lse(alpha[:, t - 1, :, None] + transitions, axis=1)
        alpha[:, t] = np.where(mask[:, t, None], step, alpha[:, t - 1])
    log_z = _lse(alpha[:, -1], axis=1)

    # beta is zero at each sentence's last real step and beyond
    beta = np.zeros((B, T, L))
    for t in range(T - 2, -1, -1):
        step = _lse(transitions + (emissions[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(mask[:, t + 1, None], step, 0.0)

    d_emissions = np.exp(alpha + beta - log_z[:, None, None]) * mask[:, :, None]
    pair = (
        alpha[:, :-1, :, None]
        + transitions
        + (emissions[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None]
    )
    d_transitions = np.exp(np.where(mask[:, 1:, None, None], pair, -np.inf)).sum(axis=(0, 1))

    rows, steps = np.arange(B)[:, None], np.arange(T)
    d_emissions[rows, steps, labels] -= mask
    moves = mask[:, 1:]
    gold = (emissions[rows, steps, labels] * mask).sum(axis=1)
    gold += (transitions[labels[:, :-1], labels[:, 1:]] * moves).sum(axis=1)
    pairs = (labels[:, :-1] * L + labels[:, 1:])[moves]
    d_transitions -= np.bincount(pairs, minlength=L * L).reshape(L, L)
    return log_z - gold, d_emissions, d_transitions


def viterbi(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Highest-scoring label path; ties break toward the lowest label index."""
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
