"""Acceptance gate: exact equivalences, brute-force oracles, trend checks.

Each test prints one [PASS]/[FAIL] line on the real stdout so the verdicts
stay visible under pytest's capture.  Constants in the trend tests (corpus
profiles, seeds, learning rates, round counts) are frozen; the assertions are
on medians over three seeds.
"""
import csv
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fedtext import corpus, llm_bridge, tasks
from fedtext.config import FederationConfig
from fedtext.crf import viterbi
from fedtext.evaluation import EntitySpan, decode_bio, match_lenient, score_ner
from fedtext.federation import (
    aggregate,
    client_rng,
    run_centralized,
    run_federated,
    run_single_client,
    weights_sha256,
)
from fedtext.models import (
    ModelSpec,
    RelationExample,
    TagExample,
    init_params,
    loss_and_grad,
)
from fedtext.optim import Schedule, lr_at
from fedtext.params import ParamVector
from oracles import log_partition

ARTIFACTS = Path(__file__).resolve().parent.parent / "test-artifacts"

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    """Let verdict lines through pytest's fd-level capture."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[{mark}] {name}{suffix}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, flush=True)


def check(name: str, ok: bool, detail: str = "") -> None:
    _verdict(name, ok, detail)
    assert ok, f"{name}: {detail}"


def build_split_corpus(lexicon, sentences, cue_rate, types=("GENE", "DIS")):
    profile = corpus.make_profile(list(types), lexicon_size=lexicon,
                                  sentences=sentences, sources=1,
                                  heterogeneity=0.0, cue_rate=cue_rate)
    sents = corpus.generate_synthetic(profile, 42)[0][1]
    return corpus.split_80_10_10(sents, 17)


# ---------------------------------------------------------------------------
# 1. degenerate federation == centralized

def test_degenerate_federation_matches_centralized():
    t0 = time.perf_counter()
    split = build_split_corpus(lexicon=20, sentences=500, cue_rate=0.5)
    task = tasks.build_ner_task(split.train, kind="rnn_crf_tagger",
                                embed_dim=16, hidden_dim=24)
    train, dev = task.prepare(split.train), task.prepare(split.dev)
    cfg = FederationConfig(clients=1, rounds=2, batch_size=16,
                           mu=0.0, optimizer="sgd", base_lr=0.05)
    fed = run_federated(task, cfg, [train], dev, seed=0)
    cent = run_centralized(task, cfg, train, dev, seed=0)
    # the records carry each round's weight digest, losses and dev scores
    differing = sum(a != b for a, b in zip(fed.round_log, cent.round_log))
    elapsed = time.perf_counter() - t0
    check("degenerate federation (K=1, mu=0, sgd) equals centralized",
          fed.round_log == cent.round_log and elapsed < 10.0,
          f"{differing} of {len(fed.round_log)} round records differ, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. FedProx reversion at mu = 0 and mu -> 0

def test_fedprox_reverts_to_fedavg():
    split = build_split_corpus(lexicon=15, sentences=200, cue_rate=0.5)
    task = tasks.build_ner_task(split.train, kind="window_tagger", embed_dim=8)
    train, dev = task.prepare(split.train), task.prepare(split.dev)
    parts = corpus.partition_iid(train, 2, 7)

    def run(mu):
        cfg = FederationConfig(clients=2, rounds=3, batch_size=8,
                               mu=mu, optimizer="sgd", base_lr=0.05)
        return run_federated(task, cfg, parts, dev, seed=1)

    # FedAvg written out from the primitives, never touching proximal_augment
    steps = [3 * math.ceil(len(p) / 8) for p in parts]
    scheds = [Schedule(base_lr=0.05, warmup_steps=int(round(0.1 * n)), total_steps=n)
              for n in steps]
    server, taken, fedavg = task.init_params(1), [0, 0], []
    for t in range(3):
        local = []
        for k, part in enumerate(parts):
            w, order = server, client_rng(1, k, t).permutation(len(part))
            for lo in range(0, len(part), 8):
                lg = task.loss_and_grad(w, [part[i] for i in order[lo : lo + 8]])
                w = ParamVector(w.values - lr_at(scheds[k], taken[k]) * lg.grad.values, w.layout)
                taken[k] += 1
            local.append((w, len(part)))
        server = aggregate(local)
        fedavg.append(weights_sha256(server))

    prox0, tiny = run(0.0), run(1e-12)
    identical = fedavg == [r["weights_sha256"] for r in prox0.round_log]
    drift = float(np.max(np.abs(prox0.final_weights.values - tiny.final_weights.values)))
    check("FedProx at mu=0 is FedAvg; mu=1e-12 final weights within 1e-6",
          identical and drift < 1e-6, f"mu=1e-12 drift {drift:.2e}")


# ---------------------------------------------------------------------------
# 3. aggregation against an independent weighted mean

def test_aggregation_matches_reference_weighted_mean():
    rng = np.random.default_rng(100)
    layout = {"a": (0, 3), "b": (3, 5)}
    worst = 0.0
    convex_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 8))
        ws = [rng.normal(size=8) * 10 for _ in range(k)]
        sizes = rng.integers(1, 500, size=k)
        out = aggregate([(ParamVector(w, layout), int(n)) for w, n in zip(ws, sizes)])
        ref = np.average(np.stack(ws), axis=0, weights=sizes)
        worst = max(worst, float(np.max(np.abs(out.values - ref))))
        stacked = np.stack(ws)
        convex_ok &= bool(
            np.all(out.values >= stacked.min(axis=0) - 1e-12)
            and np.all(out.values <= stacked.max(axis=0) + 1e-12)
        )
    check("aggregation equals the reference weighted mean within 1e-12",
          worst < 1e-12 and convex_ok, f"worst coordinate error {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. CRF against exhaustive enumeration

def test_crf_against_exhaustive_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    viterbi_ok = True
    for _ in range(200):
        T, L = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        em, tr = rng.normal(size=(T, L)) * 2, rng.normal(size=(L, L)) * 2
        scores = {}
        for path in itertools.product(range(L), repeat=T):
            s = em[0, path[0]]
            for t in range(1, T):
                s += tr[path[t - 1], path[t]] + em[t, path[t]]
            scores[path] = float(s)
        m = max(scores.values())
        brute_z = m + math.log(sum(math.exp(s - m) for s in scores.values()))
        worst = max(worst, abs(log_partition(em, tr) - brute_z))
        best = max(scores, key=lambda p: scores[p])
        viterbi_ok &= viterbi(em, tr).tolist() == list(best)
    elapsed = time.perf_counter() - t0
    check("CRF log-partition and Viterbi match exhaustive enumeration",
          worst < 1e-8 and viterbi_ok and elapsed < 5.0,
          f"worst logZ error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. finite-difference gradient checks for every model kind

def _random_item(spec, rng):
    T = int(rng.integers(1, 7)) if spec.kind != "relation_classifier" else int(rng.integers(2, 8))
    ids = rng.integers(0, spec.vocab_size, size=T)
    if spec.kind == "relation_classifier":
        s1 = sorted(rng.integers(0, T, size=2))
        s2 = sorted(rng.integers(0, T, size=2))
        return RelationExample(token_ids=ids, span1=(int(s1[0]), int(s1[1])),
                               span2=(int(s2[0]), int(s2[1])),
                               label_id=int(rng.integers(0, spec.label_count)))
    return TagExample(token_ids=ids, label_ids=rng.integers(0, spec.label_count, size=T))


def test_gradients_match_finite_differences():
    specs = [
        ModelSpec(kind="window_tagger", vocab_size=12, label_count=3, embed_dim=3, window_radius=1),
        ModelSpec(kind="rnn_crf_tagger", vocab_size=10, label_count=3, embed_dim=3, hidden_dim=3),
        ModelSpec(kind="relation_classifier", vocab_size=10, label_count=2, embed_dim=3, hidden_dim=3),
    ]
    h, worst = 1e-4, 0.0
    rng = np.random.default_rng(300)
    for spec in specs:
        for _ in range(20):
            w = init_params(spec, int(rng.integers(1_000_000)))
            item = _random_item(spec, rng)
            grad = loss_and_grad(spec, w, [item]).grad
            for i in range(w.size):
                wp, wn = w.copy(), w.copy()
                wp.values[i] += h
                wn.values[i] -= h
                fd = (loss_and_grad(spec, wp, [item]).loss
                      - loss_and_grad(spec, wn, [item]).loss) / (2 * h)
                denom = max(abs(grad.values[i]), abs(fd))
                if denom >= 1e-8:
                    worst = max(worst, abs(grad.values[i] - fd) / denom)
    check("analytic gradients match central differences for all model kinds",
          worst < 1e-4, f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. lenient matcher against maximum bipartite matching

def test_lenient_matcher_is_a_maximum_matching():
    rng = np.random.default_rng(400)
    tagset = ["O", "B-A", "I-A", "B-B", "I-B"]

    def max_matching(gold, pred):
        match_of = [-1] * len(gold)

        def augment(p, seen):
            for g in range(len(gold)):
                if seen[g] or gold[g].label != pred[p].label:
                    continue
                if gold[g].start <= pred[p].end and pred[p].start <= gold[g].end:
                    seen[g] = True
                    if match_of[g] == -1 or augment(match_of[g], seen):
                        match_of[g] = p
                        return True
            return False

        return sum(1 for p in range(len(pred)) if augment(p, [False] * len(gold)))

    matcher_ok = True
    order_ok = True
    for _ in range(1000):
        tags_g = [tagset[i] for i in rng.integers(0, 5, size=12)]
        tags_p = [tagset[i] for i in rng.integers(0, 5, size=12)]
        gold, pred = decode_bio(tags_g), decode_bio(tags_p)
        counts = match_lenient(gold, pred)
        matcher_ok &= sum(counts.tp.values()) == max_matching(gold, pred)
        if gold or pred:
            report = score_ner([gold], [pred])
            order_ok &= report.strict_macro_f1 <= report.lenient_macro_f1 + 1e-12
    check("lenient matcher equals maximum matching; strict <= lenient",
          matcher_ok and order_ok, "1000 random span sets")


# ---------------------------------------------------------------------------
# 7-9. qualitative trends (frozen calibrated settings)

def _evaluate_best(task, result, test_items):
    return task.evaluate(result.best_weights, test_items).strict_macro_f1


def test_claim_federated_beats_isolation_approaches_centralized():
    t0 = time.perf_counter()
    split = build_split_corpus(lexicon=100, sentences=2000, cue_rate=0.5)
    task = tasks.build_ner_task(split.train, kind="rnn_crf_tagger",
                                embed_dim=16, hidden_dim=24)
    train = task.prepare(split.train)
    dev, test = task.prepare(split.dev), task.prepare(split.test)
    parts = corpus.partition_iid(train, 10, 99)

    fed_scores, cent_scores, single_scores = [], [], []
    for seed in (0, 1, 2):
        cfg = FederationConfig(clients=10, rounds=12, batch_size=16, mu=0.0,
                               optimizer="adam", base_lr=0.01)
        fed_scores.append(_evaluate_best(task, run_federated(task, cfg, parts, dev, seed), test))
        cent_scores.append(_evaluate_best(task, run_centralized(task, cfg, train, dev, seed), test))
        per_client = [
            _evaluate_best(task, r, test)
            for r in run_single_client(task, cfg, parts, dev, seed)
        ]
        single_scores.append(float(np.median(per_client)))

    fed, cent, single = map(lambda v: float(np.median(v)),
                            (fed_scores, cent_scores, single_scores))
    elapsed = time.perf_counter() - t0
    check("federated training beats isolated clients by >= 0.02 macro-F1",
          fed - single >= 0.02, f"federated {fed:.3f} vs single {single:.3f}")
    check("centralized leads federated by <= 0.05 macro-F1",
          cent - fed <= 0.05, f"centralized {cent:.3f} vs federated {fed:.3f}")
    check("IID trend runtime under 5 minutes", elapsed < 300.0, f"{elapsed:.0f}s")


def test_claim_small_models_degrade_faster_with_more_clients():
    split = build_split_corpus(lexicon=150, sentences=1000, cue_rate=0.75)
    rows = [("model", "clients", "seed", "strict_f1")]
    medians = {}
    for kind, dims in (("window_tagger", dict(embed_dim=16)),
                       ("rnn_crf_tagger", dict(embed_dim=16, hidden_dim=24))):
        task = tasks.build_ner_task(split.train, kind=kind, **dims)
        train = task.prepare(split.train)
        dev, test = task.prepare(split.dev), task.prepare(split.test)
        for k in (2, 10):
            parts = corpus.partition_iid(train, k, 99)
            scores = []
            for seed in (0, 1, 2):
                cfg = FederationConfig(clients=k, rounds=12, batch_size=16, mu=0.0,
                                       optimizer="adam", base_lr=0.03)
                f1 = _evaluate_best(task, run_federated(task, cfg, parts, dev, seed), test)
                scores.append(f1)
                rows.append((kind, k, seed, f"{f1:.6f}"))
            medians[kind, k] = float(np.median(scores))

    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "client_scale_sweep.csv"
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    window_drop = medians["window_tagger", 2] - medians["window_tagger", 10]
    rnn_drop = medians["rnn_crf_tagger", 2] - medians["rnn_crf_tagger", 10]
    detail = (f"window {medians['window_tagger', 2]:.3f}->{medians['window_tagger', 10]:.3f}, "
              f"rnn {medians['rnn_crf_tagger', 2]:.3f}->{medians['rnn_crf_tagger', 10]:.3f}, "
              f"csv {out}")
    check("more clients never help at fixed total data",
          medians["window_tagger", 2] >= medians["window_tagger", 10]
          and medians["rnn_crf_tagger", 2] >= medians["rnn_crf_tagger", 10], detail)
    check("the larger model is more resilient to client scaling",
          rnn_drop < window_drop,
          f"window drop {window_drop:.3f} vs rnn drop {rnn_drop:.3f}")


def test_claim_small_mu_helps_on_heterogeneous_sources():
    t0 = time.perf_counter()
    profile = corpus.make_profile(["GENE", "DIS"], lexicon_size=60,
                                  sentences=[600, 200], sources=2,
                                  heterogeneity=1.0, cue_rate=0.5)
    pairs = corpus.generate_synthetic(profile, 42)
    splits = [corpus.split_80_10_10(s, 17 + i) for i, (_, s) in enumerate(pairs)]
    train = [x for sp in splits for x in sp.train]
    dev = [x for sp in splits for x in sp.dev]
    test = [x for sp in splits for x in sp.test]

    task = tasks.build_ner_task(train, kind="window_tagger", embed_dim=16)
    parts = [task.prepare(sp.train) for sp in splits]
    dev_p, test_p = task.prepare(dev), task.prepare(test)

    medians = {}
    for mu in (0.0, 1.0, 0.5, 0.1, 0.01, 0.001):
        scores = []
        for seed in (0, 1, 2):
            cfg = FederationConfig(clients=2, rounds=10, batch_size=16, local_epochs=2,
                                   mu=mu, optimizer="adam", base_lr=0.02)
            scores.append(_evaluate_best(task, run_federated(task, cfg, parts, dev_p, seed),
                                         test_p))
        medians[mu] = float(np.median(scores))

    best_mu = max((m for m in medians if m > 0), key=lambda m: medians[m])
    elapsed = time.perf_counter() - t0
    check("best FedProx mu matches or beats FedAvg on non-IID sources",
          medians[best_mu] >= medians[0.0],
          f"mu={best_mu} {medians[best_mu]:.3f} vs fedavg {medians[0.0]:.3f}")
    check("a smaller mu outperforms a larger one",
          medians[0.001] >= medians[1.0],
          f"mu=0.001 {medians[0.001]:.3f} vs mu=1 {medians[1.0]:.3f}")
    check("non-IID trend runtime under 10 minutes", elapsed < 600.0, f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. split arithmetic

def test_split_sizes_match_published_counts():
    split = corpus.split_80_10_10(list(range(12657)), 0)
    sizes = (len(split.train), len(split.dev), len(split.test))
    check("80/10/10 split of 12657 gives (10125, 1266, 1266)",
          sizes == (10125, 1266, 1266), str(sizes))


# ---------------------------------------------------------------------------
# 11. highlight round-trip reproduces direct scoring

def test_highlight_round_trip_reproduces_direct_scores():
    split = build_split_corpus(lexicon=30, sentences=400, cue_rate=0.5)
    task = tasks.build_ner_task(split.train, kind="window_tagger", embed_dim=16)
    train = task.prepare(split.train)
    dev, test = task.prepare(split.dev), task.prepare(split.test)
    cfg = FederationConfig(clients=1, rounds=8, batch_size=16,
                           mu=0.0, optimizer="adam", base_lr=0.02)
    w = run_centralized(task, cfg, train, dev, seed=0).best_weights

    subset = llm_bridge.sample_test_subset(test, min(60, len(test)), 3)
    entity, tag = "entity", "hl"
    gold, pred, records = [], [], []
    for i, item in enumerate(subset):
        spans = task.predict_spans(w, item)
        flat = [EntitySpan(entity, s.start, s.end) for s in spans]
        gold.append([EntitySpan(entity, s.start, s.end) for s in item.gold_spans])
        pred.append(flat)
        records.append(llm_bridge.ResponseRecord(
            i, llm_bridge.render_highlights(item.sentence.tokens, flat, tag)))

    direct = score_ner(gold, pred)
    parsed = llm_bridge.score_ner_responses(subset, records, entity, tag)
    same = parsed.report.as_dict() == direct.as_dict()
    check("serialized highlights re-parse to the exact direct scores",
          same, f"direct strict macro {direct.strict_macro_f1:.3f}")
