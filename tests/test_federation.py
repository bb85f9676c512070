"""Federated training loop: aggregation, scheduling invariances, FedProx."""
import math
import tracemalloc

import numpy as np
import pytest

from fedtext import corpus, federation, models, tasks
from fedtext.config import ConfigError, FederationConfig
from fedtext.federation import (
    ClientState,
    aggregate,
    client_rng,
    client_schedule,
    collect,
    local_update,
    rounds,
    weights_sha256,
)
from fedtext.optim import OptimizerState, Schedule, lr_at
from fedtext.params import ParamVector
import oracles
from oracles import segment

LAYOUT = {"w": (0, 2)}


def vec(values):
    return ParamVector(np.asarray(values, dtype=float), LAYOUT)


@pytest.fixture(scope="module")
def ner_setup():
    profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=12, sentences=120)
    sents = corpus.generate_synthetic(profile, 6)[0][1]
    split = corpus.split_80_10_10(sents, 3)
    task = tasks.build_task(split.train, kind="window_tagger", embed_dim=8)
    return {
        "task": task,
        "train": task.prepare(split.train),
        "dev": task.prepare(split.dev),
    }


def fed_cfg(**kw):
    base = dict(clients=2, rounds=3, batch_size=8, optimizer="sgd", base_lr=0.05)
    base.update(kw)
    return FederationConfig(**base)


def train_rounds(task, cfg, parts, dev):
    """Every (record, server weights) pair of ``rounds`` at seed 0."""
    return list(rounds(task, cfg, parts, dev))


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_hand_example():
    out = aggregate([1, 3], [vec([0.0, 0.0]), vec([2.0, 2.0])])
    assert np.allclose(out.values, [1.5, 1.5])


def test_aggregate_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        sizes = rng.integers(1, 100, size=k)
        ones = [vec([1.0, 1.0]) for _ in sizes]
        out = aggregate([int(n) for n in sizes], ones)
        assert np.allclose(out.values, 1.0, atol=1e-12)


def test_aggregate_is_coordinatewise_convex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        ws = [vec(rng.normal(size=2)) for _ in range(k)]
        sizes = [int(n) for n in rng.integers(1, 50, size=k)]
        out = aggregate(sizes, ws)
        stacked = np.stack([w.values for w in ws])
        assert np.all(out.values >= stacked.min(axis=0) - 1e-12)
        assert np.all(out.values <= stacked.max(axis=0) + 1e-12)


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        aggregate([], [])
    with pytest.raises(ValueError):
        aggregate([0], [vec([1.0, 1.0])])
    other = ParamVector(np.zeros(2), {"z": (0, 2)})
    with pytest.raises(ValueError):
        aggregate([1, 1], [vec([1.0, 1.0]), other])
    bad = vec([np.inf, 0.0])
    with pytest.raises(ValueError):
        aggregate([1], [bad])


def test_aggregate_rejects_equal_sizes_with_different_layouts():
    other = ParamVector(np.zeros(2), {"a": (0, 1), "b": (1, 1)})
    with pytest.raises(ValueError, match="aggregate: parameter layouts differ"):
        aggregate([1, 1], [vec([1.0, 1.0]), other])


def test_aggregate_folds_a_generator_bit_equal_to_a_list():
    rng = np.random.default_rng(2)
    sizes = [int(n) for n in rng.integers(1, 500, size=7)]
    ws = [vec(rng.normal(size=2) * 10) for _ in sizes]
    out = aggregate(sizes, (w for w in ws))
    assert out.values.tobytes() == aggregate(sizes, ws).values.tobytes()


def test_aggregate_needs_one_vector_per_count():
    with pytest.raises(ValueError):
        aggregate([1, 1], [vec([1.0, 1.0])])
    with pytest.raises(ValueError):
        aggregate([1], [vec([1.0, 1.0]), vec([1.0, 1.0])])


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

def test_execution_order_does_not_change_the_result(ner_setup):
    # each client shuffles with its own client_rng stream, so round one run by
    # hand in reverse client order, then aggregated in id order, gives the
    # weights the round loop logs for it
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 3, 11)
    cfg = fed_cfg(clients=3)
    logged = next(rounds(task, cfg, parts, dev))[0]["weights_sha256"]

    server = task.init_params(0)
    clients = []
    for i, part in enumerate(parts):
        total = cfg.rounds * cfg.local_epochs * math.ceil(len(part) / cfg.batch_size)
        sched = Schedule(base_lr=cfg.base_lr, warmup_steps=int(round(cfg.warmup_frac * total)),
                         total_steps=total)
        shard = task.shard(part)
        clients.append(ClientState(i, shard, OptimizerState(cfg.optimizer, shard.entries.size), sched))
    updates = {c.id: local_update(c, server, cfg, client_rng(0, c.id, 0))[0]
               for c in reversed(clients)}
    by_hand = aggregate([c.n for c in clients], [updates[c.id] for c in clients])
    assert weights_sha256(by_hand) == logged


def test_the_round_loop_takes_k_from_its_partitions(ner_setup):
    # [federation] clients tells partition_train how many shards to make;
    # the round loop trains one client per partition whatever it says
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 3, 11)
    expect = [record for record, _ in train_rounds(task, fed_cfg(clients=3), parts, dev)]
    for clients in (1, 2, 5):
        log = [record for record, _ in train_rounds(task, fed_cfg(clients=clients), parts, dev)]
        assert [r["weights_sha256"] for r in log] == [r["weights_sha256"] for r in expect]
        assert [len(r["client_loss"]) for r in log] == [3] * len(expect)


def test_each_added_client_costs_at_most_two_and_a_half_parameter_vectors():
    # under adam a client keeps only its moments m and v between rounds, a
    # step's intermediate values being temporaries, and the round folds each
    # client's weights into the aggregate before the next client trains
    profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=40, sentences=100)
    sents = corpus.generate_synthetic(profile, 3)[0][1]
    task = tasks.build_task(sents, kind="window_tagger", embed_dim=64)  # P is 96 % embedding
    train, dev = task.prepare(sents[:80]), task.prepare(sents[80:])
    cfg = fed_cfg(rounds=1, optimizer="adam", base_lr=0.01)

    def peak_bytes(k):
        parts = corpus.partition_iid(train, k, 0)
        tracemalloc.start()
        try:
            next(rounds(task, cfg, parts, dev))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    vector_bytes = task.init_params(0).values.nbytes
    per_client = (peak_bytes(40) - peak_bytes(4)) / 36 / vector_bytes
    assert per_client <= 2.5


def test_empty_partition_and_empty_dev_rejected(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    with pytest.raises(ValueError, match="no partitions given"):
        next(rounds(task, fed_cfg(), [], dev))
    with pytest.raises(ValueError):
        next(rounds(task, fed_cfg(), [train, []], dev))
    with pytest.raises(ValueError):
        next(rounds(task, fed_cfg(), [train, train], []))


def test_history_shapes(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=4, local_epochs=2)
    pairs = train_rounds(task, cfg, parts, dev)
    assert [record["round"] for record, _ in pairs] == [1, 2, 3, 4]
    for record, server in pairs:
        assert len(record["client_loss"]) == 2
        assert set(record) == {"round", "client_loss", "strict_f1", "lenient_f1", "weights_sha256"}
        assert record["weights_sha256"] == weights_sha256(server)


def test_one_round_big_batch_takes_one_sgd_step(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    cfg = fed_cfg(clients=1, rounds=1, batch_size=len(train), base_lr=0.05)
    [(_, final)] = train_rounds(task, cfg, [train], dev)
    # exactly one step: final = init - lr * grad(init) on the full batch
    init = task.init_params(0)
    order = client_rng(0, 0, 0).permutation(len(train))
    lg = models.loss_and_grad(task.spec, init, [train[i].enc for i in order])
    expect = init.values - 0.05 * lg.grad.values
    assert np.array_equal(final.values, expect)


def test_best_round_is_earliest_maximum(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=6, optimizer="adam", base_lr=0.05)
    pairs = train_rounds(task, cfg, parts, dev)
    metric = task.selection_metric
    series = [record[metric] for record, _ in pairs]
    assert collect(task, pairs) is pairs[series.index(max(series))][1]
    # a tie goes to the earlier round
    servers = [object() for _ in range(4)]
    stream = zip([{metric: f} for f in (0.1, 0.5, 0.5, 0.3)], servers)
    assert collect(task, stream) is servers[1]


def test_fedprox_matches_a_hand_rolled_reference(ner_setup):
    # one client, two rounds of two epochs in batches smaller than the shard,
    # with the proximal gradient mu * (w - anchor) written out here: the
    # anchor must stay at the round-start weights across every step
    from fedtext.optim import Schedule, lr_at

    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    mu, lr0, batch = 0.5, 0.05, 8
    cfg = fed_cfg(clients=1, rounds=2, local_epochs=2, batch_size=batch, mu=mu, base_lr=lr0)
    records = [record for record, _ in train_rounds(task, cfg, [train], dev)]

    steps = 2 * 2 * math.ceil(len(train) / batch)
    sched = Schedule(base_lr=lr0, warmup_steps=int(round(0.1 * steps)), total_steps=steps)
    w, step = task.init_params(0), 0
    for t in range(2):
        anchor = w.values
        rng = client_rng(0, 0, t)
        for _ in range(2):
            order = rng.permutation(len(train))
            for lo in range(0, len(train), batch):
                lg = models.loss_and_grad(task.spec, w, [train[i].enc for i in order[lo : lo + batch]])
                grad = lg.grad.values + mu * (w.values - anchor)
                w = ParamVector(w.values - lr_at(sched, step) * grad, w.layout)
                step += 1
        assert weights_sha256(w) == records[t]["weights_sha256"]
    assert step > 2 * 2  # several steps per epoch, so the anchor is tested mid-round


def test_large_mu_anchors_the_weights(ner_setup):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    init = task.init_params(0).values
    _, free = train_rounds(task, fed_cfg(mu=0.0, rounds=2, local_epochs=2), parts, dev)[-1]
    _, anchored = train_rounds(task, fed_cfg(mu=50.0, rounds=2, local_epochs=2), parts, dev)[-1]
    moved_free = np.linalg.norm(free.values - init)
    moved_anchored = np.linalg.norm(anchored.values - init)
    assert moved_anchored < moved_free


def test_round_loop_matches_a_hand_rolled_reference(ner_setup):
    # one client, full-batch adam for two rounds, re-implemented from the
    # optimizer primitives; checks rng use, the lr schedule horizon, state
    # persistence across rounds, and the no-op single-client aggregation
    from fedtext.optim import OptimizerState, Schedule, apply_step, lr_at

    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    cfg = fed_cfg(clients=1, rounds=2, batch_size=len(train),
                  optimizer="adam", base_lr=0.02)
    records = [record for record, _ in train_rounds(task, cfg, [train], dev)]

    w = task.init_params(0)
    state = OptimizerState("adam", w.size)
    sched = Schedule(base_lr=cfg.base_lr,
                     warmup_steps=int(round(cfg.warmup_frac * 2)), total_steps=2)
    hand = []
    for t in range(2):
        order = client_rng(0, 0, t).permutation(len(train))
        batch = [train[i].enc for i in order]
        lg = models.loss_and_grad(task.spec, w, batch)
        lr = lr_at(sched, state.step_count)
        apply_step(state, w, lg.grad, lr)
        assert weights_sha256(w) == records[t]["weights_sha256"]
        hand.append(w.copy())

    # a fresh optimizer at round two would take a different step
    fresh_state = OptimizerState("adam", hand[0].size)
    order = client_rng(0, 0, 1).permutation(len(train))
    batch = [train[i].enc for i in order]
    w_fresh = hand[0].copy()
    lg = models.loss_and_grad(task.spec, w_fresh, batch)
    apply_step(fresh_state, w_fresh, lg.grad, lr_at(sched, 0))
    assert not np.array_equal(hand[1].values, w_fresh.values)


@pytest.fixture(scope="module")
def by_source_setup():
    # two sources with disjoint lexicons, one client each, so each client's
    # shard reaches only part of the embedding rows
    profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=12, sentences=40, sources=2,
                                  heterogeneity=1.0, cue_rate=1.0)
    sources = corpus.generate_synthetic(profile, 4)
    task = tasks.build_task([s for _, sents in sources for s in sents], kind="window_tagger", embed_dim=4)
    parts = corpus.partition_by_source([(name, task.prepare(sents[:30])) for name, sents in sources])
    dev = task.prepare(sources[0][1][30:] + sources[1][1][30:])
    return task, parts, dev


def check_partial_support_rounds_against_a_dense_reference(setup, optimizer, mu):
    # two clients, several steps per round: every round's weights equal dense
    # functional updates of the whole vector, bit for bit
    task, parts, dev = setup
    lr0, batch = 0.02, 8
    cfg = fed_cfg(clients=2, rounds=3, local_epochs=2, batch_size=batch, mu=mu,
                  optimizer=optimizer, base_lr=lr0)
    records = [record for record, _ in train_rounds(task, cfg, parts, dev)]

    server = task.init_params(0)
    assert all(task.shard(part).entries.size < server.size for part in parts)
    moments = [(np.zeros(server.size), np.zeros(server.size), 0) for _ in parts]
    total = sum(map(len, parts))
    for t in range(3):
        out = np.zeros(server.size)
        for k, part in enumerate(parts):
            sched = client_schedule(cfg, k, len(part))
            m, v, step = moments[k]
            w, rng = server.values, client_rng(0, k, t)
            for _ in range(2):
                order = rng.permutation(len(part))
                for lo in range(0, len(part), batch):
                    items = [part[i].enc for i in order[lo : lo + batch]]
                    g = models.loss_and_grad(task.spec, ParamVector(w, server.layout), items).grad.values
                    m, v, step, w, _ = oracles.optimizer_step(
                        optimizer, m, v, step, w, g, lr_at(sched, step), mu, server.values)
            moments[k] = (m, v, step)
            out += (len(part) / total) * w
        server = ParamVector(out, server.layout)
        assert weights_sha256(server) == records[t]["weights_sha256"]


def test_a_partial_support_round_loop_matches_a_dense_hand_rolled_reference(by_source_setup):
    check_partial_support_rounds_against_a_dense_reference(by_source_setup, "adam", 0.1)


@pytest.mark.parametrize(("optimizer", "mu"), [("sgd", 0.0), ("sgd", 0.1), ("adam", 0.0)])
def test_every_optimizer_and_mu_on_a_partial_support_match_a_dense_reference(by_source_setup, optimizer, mu):
    check_partial_support_rounds_against_a_dense_reference(by_source_setup, optimizer, mu)


def test_a_clients_moments_cover_its_support_not_the_whole_vector(by_source_setup, monkeypatch):
    task, parts, dev = by_source_setup
    states = []

    class Recorded(OptimizerState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(federation, "OptimizerState", Recorded)
    next(rounds(task, fed_cfg(rounds=1, optimizer="adam"), parts, dev))
    size = task.init_params(0).size
    for state, part in zip(states, parts, strict=True):
        count = task.shard(part).entries.size
        assert state.m.size == state.v.size == count < size


def test_a_client_gathers_and_scatters_its_weights_once_per_round(by_source_setup, monkeypatch):
    # the server weights reach a client's compact vector once when its round
    # starts (np.take) and go back once when it ends (np.put), however many
    # steps it takes
    task, parts, dev = by_source_setup
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)

    class CountedNumpy:
        take, put = staticmethod(counted("gather", np.take)), staticmethod(counted("scatter", np.put))

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(federation, "np", CountedNumpy())
    monkeypatch.setattr(models, "loss_and_grad", counted("step", models.loss_and_grad))
    cfg = fed_cfg(clients=2, rounds=3, local_epochs=2, batch_size=4, mu=0.1, optimizer="adam")
    train_rounds(task, cfg, parts, dev)
    steps = [2 * math.ceil(len(part) / 4) for part in parts]
    assert min(steps) > 1
    assert calls == [call for _ in range(3) for n in steps for call in ["gather", *["step"] * n, "scatter"]]


def test_divergence_names_the_round_and_the_client(ner_setup, monkeypatch):
    task, train, dev = ner_setup["task"], ner_setup["train"], ner_setup["dev"]
    parts = corpus.partition_iid(train, 2, 11)
    cfg = fed_cfg(rounds=3, mu=0.5)
    steps = [math.ceil(len(p) / cfg.batch_size) for p in parts]
    # the first step of client 1 in round 2 comes after round 1 and client 0's round 2
    bad_call = 2 * steps[0] + steps[1] + 1
    calls, original = [], models.loss_and_grad

    def loss_and_grad(spec, w, batch):
        lg = original(spec, w, batch)
        calls.append(1)
        if len(calls) == bad_call:
            segment(lg.grad, "embed")[0] = np.nan
        return lg

    monkeypatch.setattr(models, "loss_and_grad", loss_and_grad)
    with pytest.raises(ValueError) as info:
        train_rounds(task, cfg, parts, dev)
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
    shard = task.shard(train)
    client = ClientState(0, shard, OptimizerState(optimizer, shard.entries.size),
                         Schedule(base_lr=0.05, warmup_steps=0, total_steps=100))
    seen, original = [], models.loss_and_grad

    def loss_and_grad(spec, w, batch):
        # w is the client's compact weight vector; the third step's gradient
        # is NaN, or its loss is infinite while the gradient stays finite
        lg = original(spec, w, batch)
        if client.opt.step_count == 2:
            seen.append((w, w.values.copy(), moments(client.opt)))
            if poisoned == "gradient":
                segment(lg.grad, "embed")[0] = np.nan
            else:
                lg.loss = math.inf
        return lg

    monkeypatch.setattr(models, "loss_and_grad", loss_and_grad)
    error = "non-finite gradient in segment 'embed'" if poisoned == "gradient" else "non-finite loss"
    with pytest.raises(ValueError, match=f"^{error}$"):
        local_update(client, server, cfg, client_rng(0, 0, 0))
    [(w, values, before)] = seen
    assert np.array_equal(w.values, values)
    assert client.opt.step_count == 2
    after = moments(client.opt)
    assert len(after) == (2 if optimizer == "adam" else 0)
    assert all(map(np.array_equal, after, before))


def test_config_validation():
    with pytest.raises(ConfigError, match=r"\[federation\] clients"):
        FederationConfig(clients=0, rounds=1, batch_size=1)
    with pytest.raises(ConfigError, match=r"\[federation\] rounds"):
        FederationConfig(clients=1, rounds=0, batch_size=1)
    with pytest.raises(ConfigError, match=r"\[federation\] mu"):
        FederationConfig(clients=1, rounds=1, batch_size=1, mu=-1.0)
    with pytest.raises(ConfigError, match=r"\[federation\] warmup_frac"):
        FederationConfig(clients=1, rounds=1, batch_size=1, warmup_frac=1.0)
