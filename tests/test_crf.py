"""Linear-chain CRF against exhaustive path enumeration.

The enumeration oracle scores every label sequence directly, so the
log-partition, the per-sentence forward-backward oracle in ``oracles`` and
the Viterbi decode can all be checked without trusting any part of the
implementation under test; the batched ``nll_and_grads`` is then checked
against that per-sentence oracle on both sides of its scaled/log-space
switch, and the batched ``viterbi`` against the per-sentence one.
"""
import itertools
import math

import numpy as np
import pytest

from fedtext import crf
from fedtext.crf import nll_and_grads, viterbi
import oracles
from oracles import crf_nll_and_grads, log_partition, path_score


def enumerate_paths(emissions, transitions):
    """(path, score) for every label sequence, in lexicographic order."""
    T, L = emissions.shape
    for path in itertools.product(range(L), repeat=T):
        s = emissions[0, path[0]]
        for t in range(1, T):
            s += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        yield path, float(s)


def brute_log_partition(emissions, transitions):
    scores = [s for _, s in enumerate_paths(emissions, transitions)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(emissions, transitions):
    best_path, best_score = None, -math.inf
    for path, s in enumerate_paths(emissions, transitions):
        if s > best_score:  # strict: lexicographic first max wins ties
            best_path, best_score = path, s
    return np.array(best_path)


def random_instance(rng):
    T = int(rng.integers(1, 6))
    L = int(rng.integers(2, 5))
    em = rng.normal(size=(T, L)) * 2.0
    tr = rng.normal(size=(L, L)) * 2.0
    return em, tr


def decode_in_padded_batch(em, tr):
    """``em``'s path, decoded as the middle row of a padded batch whose other
    rows are one token shorter and two tokens longer; its own padding and the
    shorter row's hold large junk scores."""
    T, L = em.shape
    lengths = np.array([max(T - 1, 1), T, T + 2])
    mask = np.arange(T + 2) < lengths[:, None]
    junk = np.random.default_rng(T).normal(size=(3, T + 2, L)) * 50.0
    batch = np.where(mask[:, :, None], junk / 25.0, junk)
    batch[1, :T] = em
    return viterbi(batch, tr, mask)[1, :T]


def test_hand_example_t2_l2():
    em = np.array([[1.0, 2.0], [0.5, 1.5]])
    tr = np.array([[0.2, -0.3], [0.4, 0.1]])
    # path scores: 00 -> 1.7, 01 -> 2.2, 10 -> 2.9, 11 -> 3.6
    assert path_score(em, tr, np.array([0, 0])) == pytest.approx(1.7)
    assert path_score(em, tr, np.array([0, 1])) == pytest.approx(2.2)
    assert path_score(em, tr, np.array([1, 0])) == pytest.approx(2.9)
    assert path_score(em, tr, np.array([1, 1])) == pytest.approx(3.6)
    assert log_partition(em, tr) == pytest.approx(4.238031266608038, abs=1e-12)
    assert viterbi(em, tr).tolist() == [1, 1]


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        em, tr = random_instance(rng)
        assert log_partition(em, tr) == pytest.approx(
            brute_log_partition(em, tr), abs=1e-8
        )


def test_viterbi_matches_enumeration_argmax():
    rng = np.random.default_rng(8)
    for _ in range(200):
        em, tr = random_instance(rng)
        for decode in (viterbi, decode_in_padded_batch):
            assert decode(em, tr).tolist() == brute_viterbi(em, tr).tolist()


def test_viterbi_tie_breaks_to_lowest_labels():
    # all-zero scores tie every path; the decode must pick label 0 throughout
    em = np.zeros((4, 3))
    tr = np.zeros((3, 3))
    for decode in (viterbi, decode_in_padded_batch):
        assert decode(em, tr).tolist() == [0, 0, 0, 0]


def test_batched_viterbi_matches_per_sentence_oracle():
    # small integer scores tie often, so every argmax tie-break is exercised
    rng = np.random.default_rng(12)
    for _ in range(500):
        lengths = np.concatenate([[1], rng.integers(1, 9, size=6)])
        T = lengths.max()
        mask = np.arange(T) < lengths[:, None]
        em = rng.integers(-2, 3, size=(7, T, 4))
        em[~mask] = rng.integers(-50, 50, size=((~mask).sum(), 4))  # junk at padding
        tr = rng.integers(-2, 3, size=(4, 4))
        paths = viterbi(em, tr, mask)
        for b, n in enumerate(lengths):
            expect = oracles.viterbi(em[b, :n], tr).tolist()
            assert paths[b, :n].tolist() == expect
            assert viterbi(em[b, :n], tr).tolist() == expect
        # rows cut to one length: a batch without a mask
        cut = em[1:, : lengths[1:].min()]
        for row, path in zip(cut, viterbi(cut, tr)):
            assert path.tolist() == oracles.viterbi(row, tr).tolist()


def test_single_token_sequence():
    em = np.array([[0.3, 1.1, -0.2]])
    tr = np.zeros((3, 3))
    assert log_partition(em, tr) == pytest.approx(brute_log_partition(em, tr))
    assert viterbi(em, tr).tolist() == [1]
    assert path_score(em, tr, np.array([2])) == pytest.approx(-0.2)


def test_nll_is_logz_minus_path_score():
    rng = np.random.default_rng(9)
    for _ in range(50):
        em, tr = random_instance(rng)
        T, L = em.shape
        labels = rng.integers(0, L, size=T)
        nll, _, _ = crf_nll_and_grads(em, tr, labels)
        expect = brute_log_partition(em, tr) - path_score(em, tr, labels)
        assert nll == pytest.approx(expect, abs=1e-8)


def test_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(20):
        em, tr = random_instance(rng)
        T, L = em.shape
        labels = rng.integers(0, L, size=T)
        _, d_em, d_tr = crf_nll_and_grads(em, tr, labels)

        def nll_of(e, t):
            return crf_nll_and_grads(e, t, labels)[0]

        for idx in np.ndindex(em.shape):
            ep, en = em.copy(), em.copy()
            ep[idx] += h
            en[idx] -= h
            fd = (nll_of(ep, tr) - nll_of(en, tr)) / (2 * h)
            assert d_em[idx] == pytest.approx(fd, abs=1e-5)
        for idx in np.ndindex(tr.shape):
            tp, tn = tr.copy(), tr.copy()
            tp[idx] += h
            tn[idx] -= h
            fd = (nll_of(em, tp) - nll_of(em, tn)) / (2 * h)
            assert d_tr[idx] == pytest.approx(fd, abs=1e-5)


def random_batch(rng, L, lengths):
    """Padded (B, T, L) emissions, (B, T) labels and prefix mask; padded
    positions hold large junk scores and out-of-range labels, which must not
    matter."""
    T = max(lengths)
    mask = np.arange(T) < np.array(lengths)[:, None]
    em = np.where(mask[:, :, None], rng.normal(size=(len(lengths), T, L)) * 2.0, 400.0)
    labels = np.where(mask, rng.integers(0, L, size=mask.shape), L + 3)
    return em, labels, mask


def spread(em, tr, mask):
    """The score spread ``nll_and_grads`` refuses from the limit on: ptp(tr)
    plus the largest max - min of one real position's emissions."""
    return np.ptp(tr) + np.ptp(em[mask], axis=1).max()


def assert_matches_oracle(em, tr, labels, mask, tol=1e-10):
    nll, d_em, d_tr = nll_and_grads(em, tr, labels, mask)
    assert np.all(d_em[~mask] == 0.0)
    expect_tr = np.zeros_like(tr)
    for b, n in enumerate(mask.sum(axis=1)):
        o_nll, o_em, o_tr = crf_nll_and_grads(em[b, :n], tr, labels[b, :n])
        assert abs(nll[b] - o_nll) <= tol * max(1.0, abs(o_nll))
        assert np.abs(d_em[b, :n] - o_em).max() <= tol
        expect_tr += o_tr
    assert np.abs(d_tr - expect_tr).max() <= tol


def test_batched_nll_matches_per_sentence_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 6))
        lengths = [1] + [int(n) for n in rng.integers(1, 12, size=int(rng.integers(0, 8)))]
        em, labels, mask = random_batch(rng, L, lengths)
        tr = rng.normal(size=(L, L)) * 2.0
        nll, d_em, d_tr = nll_and_grads(em, tr, labels, mask)
        assert nll.shape == (len(lengths),)
        assert np.all(d_em[~mask] == 0.0)
        expect_tr = np.zeros((L, L))
        for b, n in enumerate(lengths):
            o_nll, o_em, o_tr = crf_nll_and_grads(em[b, :n], tr, labels[b, :n])
            worst = max(worst, abs(nll[b] - o_nll), np.abs(d_em[b, :n] - o_em).max())
            expect_tr += o_tr
        worst = max(worst, np.abs(d_tr - expect_tr).max())
    assert worst < 1e-10


def spread_batch(rng, target):
    """A mixed-length batch with a 1-token row and wild junk at padding, its
    real scores scaled so their spread is ``target``."""
    L = int(rng.integers(2, 7))
    lengths = [1] + [int(n) for n in rng.integers(1, 15, size=int(rng.integers(1, 8)))]
    em, labels, mask = random_batch(rng, L, lengths)
    tr = rng.normal(size=(L, L)) * 2.0
    k = target / spread(em, tr, mask)
    em = np.where(mask[:, :, None], em * k, rng.normal(size=em.shape) * 1e4)
    return em, tr * k, labels, mask


@pytest.mark.parametrize("fraction", [0.02, 0.5, 1 - 1e-9])
def test_scaled_path_matches_the_oracle_below_the_spread_limit(fraction):
    rng = np.random.default_rng(13)
    for _ in range(100):
        em, tr, labels, mask = spread_batch(rng, fraction * crf.SCALED_SPREAD_LIMIT)
        assert spread(em, tr, mask) < crf.SCALED_SPREAD_LIMIT
        assert_matches_oracle(em, tr, labels, mask)


def test_log_path_runs_from_the_spread_limit():
    # from the limit on, a batch is refused naming its spread; only a
    # diverging run gets there
    rng = np.random.default_rng(14)
    for _ in range(20):
        em, tr, labels, mask = spread_batch(rng, (1 + 1e-9) * crf.SCALED_SPREAD_LIMIT)
        gap = spread(em, tr, mask)
        assert gap >= crf.SCALED_SPREAD_LIMIT
        with pytest.raises(ValueError, match=f"^CRF score spread {gap:.4g} reaches the limit 500$"):
            nll_and_grads(em, tr, labels, mask)


def test_large_scores_stay_finite():
    em = np.full((6, 4), 500.0)
    tr = np.full((4, 4), 300.0)
    z = log_partition(em, tr)
    assert math.isfinite(z)
    mask = np.arange(6) < np.array([[6], [2]])
    results = [
        crf_nll_and_grads(em, tr, np.zeros(6, dtype=int)),
        nll_and_grads(np.stack([em, em]), tr, np.zeros((2, 6), dtype=int), mask),
    ]
    for nll, d_em, d_tr in results:
        assert np.all(np.isfinite(nll))
        assert np.all(np.isfinite(d_em)) and np.all(np.isfinite(d_tr))


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        log_partition(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        log_partition(np.zeros((0, 2)), np.zeros((2, 2)))


def test_rejects_non_finite_scores():
    em = np.zeros((2, 2))
    em[1, 1] = np.inf
    with pytest.raises(ValueError):
        log_partition(em, np.zeros((2, 2)))


def test_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        crf_nll_and_grads(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0, 5]))
    full = np.ones((1, 2), dtype=bool)
    with pytest.raises(ValueError):
        nll_and_grads(np.zeros((1, 2, 2)), np.zeros((2, 2)), np.array([[0, 5]]), full)


def test_batched_rejects_bad_masks_and_shapes():
    em, tr, labels = np.zeros((2, 3, 2)), np.zeros((2, 2)), np.zeros((2, 3), dtype=int)
    bad_masks = [
        np.array([[True, False, True], [True, True, True]]),  # not a prefix
        np.array([[False, False, False], [True, True, True]]),  # empty row
        np.ones((2, 3)),  # not boolean
        np.ones((2, 2), dtype=bool),  # wrong shape
    ]
    for mask in bad_masks:
        with pytest.raises(ValueError):
            nll_and_grads(em, tr, labels, mask)
        with pytest.raises(ValueError):
            viterbi(em, tr, mask)
    with pytest.raises(ValueError):
        nll_and_grads(np.zeros((3, 2)), tr, labels[0], np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        viterbi(np.zeros((3, 2)), tr, np.ones((1, 3), dtype=bool))
