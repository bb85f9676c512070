"""Optimizers, the warmup/decay schedule, and the proximal penalty."""
import tracemalloc

import numpy as np
import pytest

import oracles
from fedtext.optim import (
    OptimizerState,
    Schedule,
    apply_step,
    lr_at,
    proximal_augment,
)
from fedtext.params import ParamVector

LAYOUT = {"a": (0, 2), "b": (2, 1)}


def vec(values):
    return ParamVector(np.asarray(values, dtype=float), LAYOUT)


# ---------------------------------------------------------------------------
# sgd / adam updates

def test_sgd_step_is_exact():
    state = OptimizerState("sgd", 3)
    w = vec([1.0, 2.0, 3.0])
    g = vec([0.5, -1.0, 0.0])
    apply_step(state, w, g, 0.1)
    assert np.allclose(w.values, [0.95, 2.1, 3.0], atol=1e-15)
    assert state.step_count == 1


def test_adam_first_step_moves_lr_times_sign():
    # from zero state: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
    w = vec([0.0, 0.0, 0.0])
    g = vec([0.3, -0.2, 0.0])
    state = OptimizerState("adam", w.size)
    apply_step(state, w, g, 0.1)
    eps = 1e-8
    expect = -0.1 * np.array([0.3, -0.2, 0.0]) / (np.abs([0.3, -0.2, 0.0]) + eps)
    assert np.allclose(w.values, expect, atol=1e-15)
    # zero-gradient coordinate does not move
    assert w.values[2] == 0.0


def test_adam_is_scale_invariant_for_large_gradients():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=3) for _ in range(5)]
    trajs = []
    for scale in (1.0, 100.0):
        w = vec([0.0, 0.0, 0.0])
        state = OptimizerState("adam", w.size)
        for g in grads:
            apply_step(state, w, vec(scale * g), 0.05)
        trajs.append(w.values.copy())
    assert np.allclose(trajs[0], trajs[1], atol=1e-6)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_in_place_step_matches_the_functional_reference(kind):
    # 50 proximal steps with a varying rate against the functional update
    # in oracles, compared bit for bit; the reference never shares a buffer
    rng = np.random.default_rng(3)
    layout = {"a": (0, 40), "b": (40, 17)}
    w = ParamVector(rng.normal(size=57), layout)
    anchor = w.copy()
    state = OptimizerState(kind, w.size)
    m, v = (np.zeros(w.size), np.zeros(w.size)) if kind == "adam" else (None, None)
    ref_w, t = w.values.copy(), 0
    for step in range(50):
        g = rng.normal(size=57) * 10.0 ** rng.integers(-3, 3)
        lr, mu = 0.01 * (1 + step % 7), 0.3
        m, v, t, ref_w, ref_penalty = oracles.optimizer_step(
            kind, m, v, t, ref_w, g.copy(), lr, mu, anchor.values
        )
        grad = ParamVector(g, layout)
        penalty = proximal_augment(state, w, grad, anchor, mu)
        apply_step(state, w, grad, lr)
        assert penalty == ref_penalty
        assert np.array_equal(w.values, ref_w)
        assert state.step_count == t
        if kind == "adam":
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert not np.array_equal(w.values, anchor.values)


@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_step_on_a_partial_support_equals_the_dense_step(kind, mu):
    # gradients that are +0.0 off the support, as every model's are, and
    # weights that start at the anchor: stepping only the support's entries,
    # gathered once as a client's round does and scattered back at its end,
    # gives the dense reference's weights and moments bit for bit, and leaves
    # every other weight, -0.0 included, as it was
    rng = np.random.default_rng(11)
    V, d, tail = 9, 4, 5
    size, rows = V * d + tail, np.array([0, 2, 3, 7])
    # the rows' embed entries, then the tail, as models.shard lists them
    entries = np.concatenate([(rows[:, None] * d + np.arange(d)).ravel(), np.arange(V * d, size)])
    compact = {"embed": (0, 4 * d), "out": (4 * d, tail)}  # the support's layout
    inside = np.zeros(size)
    inside[entries] = 1.0
    off = inside == 0.0
    full = rng.normal(size=size)
    full[off & (rng.random(size) < 0.5)] = -0.0
    before = full.tobytes()
    w = ParamVector(full[entries], compact)
    anchor = w.copy()
    state = OptimizerState(kind, entries.size)
    m, v = (np.zeros(size), np.zeros(size)) if kind == "adam" else (None, None)
    ref_w, t = full.copy(), 0
    for step in range(40):
        g = np.where(off, 0.0, rng.normal(size=size) * 10.0 ** rng.integers(-3, 3))
        lr = 0.01 * (1 + step % 7)
        m, v, t, ref_w, ref_penalty = oracles.optimizer_step(kind, m, v, t, ref_w, g, lr, mu, full)
        grad = ParamVector(g[entries], compact)
        penalty = proximal_augment(state, w, grad, anchor, mu)
        apply_step(state, w, grad, lr)
        assert penalty == pytest.approx(ref_penalty, rel=1e-12)  # a shorter dot may round otherwise
        assert state.step_count == t
        if kind == "adam":
            assert m[entries].tobytes() == state.m.tobytes()
            assert v[entries].tobytes() == state.v.tobytes()
            assert not m[off].any() and not v[off].any()
        out = np.frombuffer(before).copy()
        out[entries] = w.values
        assert out.tobytes() == ref_w.tobytes()
    assert out[off].tobytes() == np.frombuffer(before)[off].tobytes()
    assert not np.array_equal(w.values, anchor.values)


def test_an_overflowing_square_is_named_by_the_segment_of_its_support_entry():
    entries = np.array([2, 3, 6, 7, 8, 9])  # rows 1 and 3 of a (4, 2) embed block, then the tail
    compact = {"embed": (0, 4), "out": (4, 2)}  # the support's layout
    for index, name in ((7, "embed"), (9, "out")):
        g = np.zeros(10)
        g[[2, index]] = 1e153, 1e155  # only the second one's square overflows
        w = ParamVector(np.zeros(entries.size), compact)
        grad = ParamVector(g[entries], compact)
        with pytest.raises(FloatingPointError, match=f"in square of the gradient in segment '{name}'$"):
            apply_step(OptimizerState("adam", entries.size), w, grad, 0.1)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_gradient_of_another_size_than_the_support_is_refused(kind):
    # a client's state, weights and gradients are its support's count of
    # values long; the whole vector's gradient or weights are refused before
    # anything is written
    layout, compact = {"embed": (0, 8), "out": (8, 2)}, {"embed": (0, 4), "out": (4, 2)}
    state = OptimizerState(kind, 6)
    w = ParamVector(np.arange(6.0), compact)
    whole = ParamVector(np.ones(10), layout)
    message = "^gradient has 10 values, but the optimizer's state has 6$"
    for mu in (0.0, 0.5):
        with pytest.raises(ValueError, match=message):
            proximal_augment(state, w, whole, w.copy(), mu)
        with pytest.raises(ValueError, match="^anchor has 10 values, but the optimizer's state has 6$"):
            proximal_augment(state, w, w.copy(), whole, mu)
    with pytest.raises(ValueError, match=message):
        apply_step(state, w, whole, 0.1)
    with pytest.raises(ValueError, match="^weight vector has 10 values, but the optimizer's state has 6$"):
        apply_step(state, whole, w.copy(), 0.1)
    assert w.values.tolist() == list(range(6)) and state.step_count == 0


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_an_optimizer_state_holds_only_its_moments(kind):
    # a client keeps its state between rounds, so the state holds Adam's m
    # and v and no other array of the vector's size; a step's intermediate
    # values are temporaries that go when the step returns
    n = 100_000
    tracemalloc.start()
    try:
        state = OptimizerState(kind, n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    moments = 2 * n * 8 if kind == "adam" else 0
    assert moments <= held < moments + n * 8 // 10
    assert state.step_count == 0


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_rejected_step_leaves_weights_and_state_unchanged(kind):
    w = vec([1.0, -1.0, 0.5])
    state = OptimizerState(kind, w.size)
    apply_step(state, w, vec([0.2, 0.1, -0.3]), 0.1)
    values = w.values.copy()
    moments = [a.copy() for a in (state.m, state.v) if a is not None]
    cases = [(vec([0.0, np.nan, 0.0]), 0.1, ValueError, "non-finite gradient in segment 'a'"),
             (vec([1.0, 1.0, 1.0]), -0.1, ValueError, "learning rate must be >= 0")]
    if kind == "adam":  # finite, but its square overflows the second moment
        cases.append((vec([0.0, 0.0, 1e200]), 0.1, FloatingPointError,
                      "overflow encountered in square of the gradient in segment 'b'"))
    for grad, lr, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            apply_step(state, w, grad, lr)
        assert np.array_equal(w.values, values)
        assert state.step_count == 1
        assert all(map(np.array_equal, [a for a in (state.m, state.v) if a is not None], moments))


def test_apply_step_rejects_non_finite_gradient_naming_segment():
    w = vec([0.0, 0.0, 0.0])
    g = vec([0.0, 0.0, np.nan])
    state = OptimizerState("sgd", w.size)
    with pytest.raises(ValueError, match="'b'"):
        apply_step(state, w, g, 0.1)


def test_apply_step_rejects_negative_lr():
    w = vec([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        apply_step(OptimizerState("sgd", w.size), w, vec([0.0, 0.0, 0.0]), -0.1)


def test_init_optimizer_rejects_unknown_kind():
    # the constructor is the one way to initialise an optimizer state
    with pytest.raises(ValueError):
        OptimizerState("momentum", 3)


def test_optimizer_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        OptimizerState("rmsprop", 3)


# ---------------------------------------------------------------------------
# learning-rate schedule

def test_schedule_warmup_then_linear_decay():
    s = Schedule(base_lr=1.0, warmup_steps=10, total_steps=100)
    assert lr_at(s, 0) == 0.0
    assert lr_at(s, 5) == pytest.approx(0.5)
    assert lr_at(s, 10) == pytest.approx(1.0)  # both branches agree here
    assert lr_at(s, 55) == pytest.approx(0.5)
    assert lr_at(s, 100) == 0.0
    assert lr_at(s, 101) == 0.0
    assert lr_at(s, 10_000) == 0.0


def test_schedule_is_continuous_at_the_warmup_boundary():
    s = Schedule(base_lr=0.3, warmup_steps=7, total_steps=50)
    before = lr_at(s, 6)
    peak = lr_at(s, 7)
    after = lr_at(s, 8)
    assert before < peak
    assert after < peak
    assert peak == pytest.approx(0.3)


def test_schedule_without_warmup():
    s = Schedule(base_lr=0.2, warmup_steps=0, total_steps=4)
    assert lr_at(s, 0) == pytest.approx(0.2)
    assert lr_at(s, 2) == pytest.approx(0.1)
    assert lr_at(s, 4) == 0.0


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Schedule(base_lr=-0.1, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        Schedule(base_lr=0.1, warmup_steps=11, total_steps=10)
    with pytest.raises(ValueError):
        lr_at(Schedule(base_lr=0.1, warmup_steps=0, total_steps=10), -1)


# ---------------------------------------------------------------------------
# proximal term

def test_proximal_mu_zero_returns_input_unchanged():
    w = vec([1.0, 2.0, 3.0])
    grad = vec([0.1, 0.2, 0.3])
    penalty = proximal_augment(OptimizerState("sgd", w.size), w, grad, vec([0.0, 0.0, 0.0]), 0.0)
    assert penalty == 0.0
    assert np.array_equal(grad.values, [0.1, 0.2, 0.3])


def test_proximal_penalty_value_and_gradient():
    anchor = vec([0.0, 0.0, 0.0])
    w = vec([1.0, -2.0, 2.0])
    grad = vec([0.0, 0.0, 0.0])
    penalty = proximal_augment(OptimizerState("sgd", w.size), w, grad, anchor, 0.5)
    # penalty = (mu/2) * ||w - anchor||^2 = 0.25 * 9
    assert penalty == pytest.approx(0.25 * 9.0)
    assert np.allclose(grad.values, 0.5 * np.array([1.0, -2.0, 2.0]))
    assert np.array_equal(w.values, [1.0, -2.0, 2.0])  # the weights are not touched


def test_proximal_gradient_pulls_towards_anchor():
    anchor = vec([0.0, 0.0, 0.0])
    w = vec([4.0, -4.0, 4.0])
    state = OptimizerState("sgd", w.size)
    for _ in range(20):
        grad = vec([0.0, 0.0, 0.0])
        proximal_augment(state, w, grad, anchor, 1.0)
        apply_step(state, w, grad, 0.1)
    assert np.linalg.norm(w.values) < np.linalg.norm([4.0, -4.0, 4.0])


def test_proximal_rejects_negative_mu():
    w = vec([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        proximal_augment(OptimizerState("sgd", w.size), w, vec([0.0, 0.0, 0.0]), w.copy(), -0.1)
