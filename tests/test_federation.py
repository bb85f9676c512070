"""Federated training loop: aggregation, scheduling invariances, FedProx."""
import math

import numpy as np
import pytest

from fedtext import corpus, tasks
from fedtext.config import ConfigError, FederationConfig
from fedtext.federation import (
    ClientState,
    aggregate,
    client_rng,
    local_update,
    run_centralized,
    run_federated,
    run_single_client,
    weights_sha256,
)
from fedtext.optim import OptimizerState, Schedule
from fedtext.params import ParamVector
from oracles import segment

LAYOUT = {"w": (0, 2)}


def vec(values):
    return ParamVector(np.asarray(values, dtype=float), LAYOUT)


@pytest.fixture(scope="module")
def ner_setup():
    profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=12, sentences=120)
    sents = corpus.generate_synthetic(profile, 6)[0][1]
    split = corpus.split_80_10_10(sents, 3)
    task = tasks.build_ner_task(split.train, kind="window_tagger", embed_dim=8)
    return {
        "task": task,
        "train": task.prepare(split.train),
        "dev": task.prepare(split.dev),
    }


def fed_cfg(**kw):
    base = dict(clients=2, rounds=3, batch_size=8, optimizer="sgd", base_lr=0.05)
    base.update(kw)
    return FederationConfig(**base)


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_hand_example():
    out = aggregate([(vec([0.0, 0.0]), 1), (vec([2.0, 2.0]), 3)])
    assert np.allclose(out.values, [1.5, 1.5])


def test_aggregate_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        sizes = rng.integers(1, 100, size=k)
        ones = [(vec([1.0, 1.0]), int(n)) for n in sizes]
        out = aggregate(ones)
        assert np.allclose(out.values, 1.0, atol=1e-12)


def test_aggregate_is_coordinatewise_convex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        ws = [vec(rng.normal(size=2)) for _ in range(k)]
        sizes = [int(n) for n in rng.integers(1, 50, size=k)]
        out = aggregate(list(zip(ws, sizes)))
        stacked = np.stack([w.values for w in ws])
        assert np.all(out.values >= stacked.min(axis=0) - 1e-12)
        assert np.all(out.values <= stacked.max(axis=0) + 1e-12)


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(vec([1.0, 1.0]), 0)])
    other = ParamVector(np.zeros(2), {"z": (0, 2)})
    with pytest.raises(ValueError):
        aggregate([(vec([1.0, 1.0]), 1), (other, 1)])
    bad = vec([np.inf, 0.0])
    with pytest.raises(ValueError):
        aggregate([(bad, 1)])


def test_aggregate_rejects_equal_sizes_with_different_layouts():
    other = ParamVector(np.zeros(2), {"a": (0, 1), "b": (1, 1)})
    with pytest.raises(ValueError, match="aggregate: parameter layouts differ"):
        aggregate([(vec([1.0, 1.0]), 1), (other, 1)])


# ---------------------------------------------------------------------------
# per-client rng

def test_client_rng_is_deterministic_and_distinct():
    a = client_rng(0, 1, 2).random(4)
    b = client_rng(0, 1, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, client_rng(0, 2, 2).random(4))
    assert not np.array_equal(a, client_rng(0, 1, 3).random(4))
    assert not np.array_equal(a, client_rng(1, 1, 2).random(4))


# ---------------------------------------------------------------------------
# run mechanics

def test_single_client_federated_equals_centralized(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    cfg = fed_cfg(clients=1, rounds=2)
    fed = run_federated(task, cfg, [train], dev)
    cent = run_centralized(task, cfg, train, dev)
    assert fed.round_log == cent.round_log  # includes every round's weight digest


def test_centralized_ignores_client_count_and_mu(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    a = run_centralized(task, fed_cfg(clients=5, mu=0.7), train, dev)
    b = run_centralized(task, fed_cfg(clients=1, mu=0.0), train, dev)
    assert np.array_equal(a.final_weights.values, b.final_weights.values)


def test_execution_order_does_not_change_the_result(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 3, 11)
    cfg = fed_cfg(clients=3)
    default = run_federated(task, cfg, parts, dev)
    reversed_order = run_federated(task, cfg, parts, dev, execution_order=[2, 1, 0])
    assert np.array_equal(default.final_weights.values, reversed_order.final_weights.values)
    assert default.round_log == reversed_order.round_log


def test_execution_order_must_be_a_permutation(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    with pytest.raises(ValueError):
        run_federated(task, fed_cfg(), parts, dev, execution_order=[0, 0])


def test_partition_count_must_match_config(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    with pytest.raises(ValueError):
        run_federated(task, fed_cfg(clients=3), [train, train], dev)


def test_empty_partition_and_empty_dev_rejected(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    with pytest.raises(ValueError):
        run_federated(task, fed_cfg(), [train, []], dev)
    with pytest.raises(ValueError):
        run_federated(task, fed_cfg(), [train, train], [])


def test_history_shapes(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=4, local_epochs=2)
    result = run_federated(task, cfg, parts, dev)
    assert [r["round"] for r in result.round_log] == [1, 2, 3, 4]
    for record in result.round_log:
        assert len(record["client_loss"]) == 2
        assert set(record) == {"round", "client_loss", "strict_f1", "lenient_f1", "weights_sha256"}
    assert result.round_log[-1]["weights_sha256"] == weights_sha256(result.final_weights)


def test_one_round_big_batch_takes_one_sgd_step(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    cfg = fed_cfg(clients=1, rounds=1, batch_size=len(train), base_lr=0.05)
    result = run_federated(task, cfg, [train], dev)
    # exactly one step: final = init - lr * grad(init) on the full batch
    init = task.init_params(0)
    order = client_rng(0, 0, 0).permutation(len(train))
    lg = task.loss_and_grad(init, [train[i] for i in order])
    expect = init.values - 0.05 * lg.grad.values
    assert np.array_equal(result.final_weights.values, expect)


def test_best_round_is_earliest_maximum(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=6, optimizer="adam", base_lr=0.05)
    result = run_federated(task, cfg, parts, dev)
    metric = task.selection_metric
    series = [r[metric] for r in result.round_log]
    best = max(series)
    assert result.best_round == series.index(best)
    assert (weights_sha256(result.best_weights)
            == result.round_log[result.best_round]["weights_sha256"])


def test_fedprox_matches_a_hand_rolled_reference(ner_setup):
    # one client, two rounds of two epochs in batches smaller than the shard,
    # with the proximal gradient mu * (w - anchor) written out here: the
    # anchor must stay at the round-start weights across every step
    from fedtext.optim import Schedule, lr_at

    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    mu, lr0, batch = 0.5, 0.05, 8
    cfg = fed_cfg(clients=1, rounds=2, local_epochs=2, batch_size=batch, mu=mu, base_lr=lr0)
    result = run_federated(task, cfg, [train], dev)

    steps = 2 * 2 * math.ceil(len(train) / batch)
    sched = Schedule(base_lr=lr0, warmup_steps=int(round(0.1 * steps)), total_steps=steps)
    w, step = task.init_params(0), 0
    for t in range(2):
        anchor = w.values
        rng = client_rng(0, 0, t)
        for _ in range(2):
            order = rng.permutation(len(train))
            for lo in range(0, len(train), batch):
                lg = task.loss_and_grad(w, [train[i] for i in order[lo : lo + batch]])
                grad = lg.grad.values + mu * (w.values - anchor)
                w = ParamVector(w.values - lr_at(sched, step) * grad, w.layout)
                step += 1
        assert weights_sha256(w) == result.round_log[t]["weights_sha256"]
    assert step > 2 * 2  # several steps per epoch, so the anchor is tested mid-round


def test_large_mu_anchors_the_weights(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    init = task.init_params(0).values
    free = run_federated(task, fed_cfg(mu=0.0, rounds=2, local_epochs=2), parts, dev)
    anchored = run_federated(task, fed_cfg(mu=50.0, rounds=2, local_epochs=2), parts, dev)
    moved_free = np.linalg.norm(free.final_weights.values - init)
    moved_anchored = np.linalg.norm(anchored.final_weights.values - init)
    assert moved_anchored < moved_free


def test_round_loop_matches_a_hand_rolled_reference(ner_setup):
    # one client, full-batch adam for two rounds, re-implemented from the
    # optimizer primitives; checks rng use, the lr schedule horizon, state
    # persistence across rounds, and the no-op single-client aggregation
    from fedtext.optim import OptimizerState, Schedule, apply_step, lr_at

    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    cfg = fed_cfg(clients=1, rounds=2, batch_size=len(train),
                  optimizer="adam", base_lr=0.02)
    result = run_federated(task, cfg, [train], dev)

    w = task.init_params(0)
    state = OptimizerState("adam", w.size)
    sched = Schedule(base_lr=cfg.base_lr,
                     warmup_steps=int(round(cfg.warmup_frac * 2)), total_steps=2)
    hand = []
    for t in range(2):
        order = client_rng(0, 0, t).permutation(len(train))
        batch = [train[i] for i in order]
        lg = task.loss_and_grad(w, batch)
        lr = lr_at(sched, state.step_count)
        apply_step(state, w, lg.grad, lr)
        assert weights_sha256(w) == result.round_log[t]["weights_sha256"]
        hand.append(w.copy())

    # a fresh optimizer at round two would take a different step
    fresh_state = OptimizerState("adam", hand[0].size)
    order = client_rng(0, 0, 1).permutation(len(train))
    batch = [train[i] for i in order]
    w_fresh = hand[0].copy()
    lg = task.loss_and_grad(w_fresh, batch)
    apply_step(fresh_state, w_fresh, lg.grad, lr_at(sched, 0))
    assert not np.array_equal(hand[1].values, w_fresh.values)


def test_divergence_names_the_round_and_the_client(ner_setup, monkeypatch):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=3, mu=0.5)
    steps = [math.ceil(len(p) / cfg.batch_size) for p in parts]
    # the first step of client 1 in round 2 comes after round 1 and client 0's round 2
    bad_call = 2 * steps[0] + steps[1] + 1
    calls, original = [], tasks.Task.loss_and_grad

    def loss_and_grad(self, w, items):
        lg = original(self, w, items)
        calls.append(1)
        if len(calls) == bad_call:
            segment(lg.grad, "embed")[0] = np.nan
        return lg

    monkeypatch.setattr(tasks.Task, "loss_and_grad", loss_and_grad)
    with pytest.raises(ValueError) as info:
        run_federated(task, cfg, parts, dev)
    assert str(info.value) == "round 2, client 1: non-finite gradient in segment 'embed'"
    assert len(calls) == bad_call


def moments(state):
    """Copies of Adam's m and v; empty under sgd."""
    return [a.copy() for a in (state.m, state.v) if a is not None]


@pytest.mark.parametrize("optimizer, poisoned", [
    ("sgd", "gradient"), ("adam", "gradient"), ("sgd", "loss"), ("adam", "loss"),
], ids=["sgd", "adam", "sgd-loss", "adam-loss"])
def test_a_diverging_step_leaves_the_client_as_it_was(ner_setup, monkeypatch, optimizer, poisoned):
    task, train = ner_setup["task"], ner_setup["train"]
    cfg = fed_cfg(clients=1, rounds=1, optimizer=optimizer, mu=0.5)
    server = task.init_params(0)
    client = ClientState(0, list(train), OptimizerState(optimizer, server.size),
                         Schedule(base_lr=0.05, warmup_steps=0, total_steps=100))
    seen, original = [], tasks.Task.loss_and_grad

    def loss_and_grad(self, w, items):
        # w is the client's weight vector; the third step's gradient is NaN,
        # or its loss is infinite while the gradient stays finite
        lg = original(self, w, items)
        if client.opt.step_count == 2:
            seen.append((w, w.values.copy(), moments(client.opt)))
            if poisoned == "gradient":
                segment(lg.grad, "embed")[0] = np.nan
            else:
                lg.loss = math.inf
        return lg

    monkeypatch.setattr(tasks.Task, "loss_and_grad", loss_and_grad)
    error = "non-finite gradient in segment 'embed'" if poisoned == "gradient" else "non-finite loss"
    with pytest.raises(ValueError, match=f"^{error}$"):
        local_update(task, client, server, cfg, client_rng(0, 0, 0))
    [(w, values, before)] = seen
    assert np.array_equal(w.values, values)
    assert client.opt.step_count == 2
    after = moments(client.opt)
    assert len(after) == (2 if optimizer == "adam" else 0)
    assert all(map(np.array_equal, after, before))


def test_run_single_client_trains_each_shard_alone(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg()
    results = run_single_client(task, cfg, parts, dev)
    assert len(results) == 2
    solo0 = run_centralized(task, cfg, parts[0], dev)
    assert np.array_equal(results[0].final_weights.values, solo0.final_weights.values)
    with pytest.raises(ValueError):
        run_single_client(task, cfg, [], dev)


def test_config_validation():
    with pytest.raises(ConfigError, match=r"\[federation\] clients"):
        FederationConfig(clients=0, rounds=1, batch_size=1)
    with pytest.raises(ConfigError, match=r"\[federation\] rounds"):
        FederationConfig(clients=1, rounds=0, batch_size=1)
    with pytest.raises(ConfigError, match=r"\[federation\] mu"):
        FederationConfig(clients=1, rounds=1, batch_size=1, mu=-1.0)
    with pytest.raises(ConfigError, match=r"\[federation\] warmup_frac"):
        FederationConfig(clients=1, rounds=1, batch_size=1, warmup_frac=1.0)
