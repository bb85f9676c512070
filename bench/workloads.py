"""One benchmark workload in one process; spawned by ``bench/run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --mode measure|fixed|traced --work DIR

``measure`` repeats set-up and work until ``--seconds`` have passed and
reports the end-to-end metrics.  ``fixed`` does one set-up and one unit of
work; ``traced`` does the same under ``layertrace.Tracer`` and adds the per-layer
counts.  The last line of standard output is one JSON object.

Inputs come only from ``--seed``: a config text for the program and, for
``predict_score``, a CoNLL file of long sentences and a file of highlight
responses.  Each workload's corpus is fixed (``CORPUS_SEED``), like a dataset;
on the training workloads the seed picks the model seeds and the injected
response defects, so that quality figures vary with training randomness but
not with the data.  ``predict_score`` trains one fixed model, like a
checkpoint, and the seed picks how its long sentences are assembled and the
response defects.  The program is driven only through its public entry points.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

from fedtext import config, corpus, evaluation, experiments, llm_bridge, tasks  # noqa: E402

from layertrace import Tracer  # noqa: E402  (the script directory is on sys.path)

clock = time.perf_counter

CORPUS_SEED = 13  # data_seed of every workload's synthetic corpus
SETUP_REPS = 3  # training workloads: set-ups timed per unit; the median is reported
PREDICT_SETUP_REPS = 3  # predict_score: each one includes a short training run
PREDICT_UNITS = 3  # predict_score: units of work every measured run makes
PREDICT_PASSES = 10  # training workloads: test-set prediction passes per unit
RESPONSE_PASSES = 10  # training workloads: response scoring passes per unit
TRAIN_RESPONSES = 2000  # responses per pass on the training workloads
LONG_SENTENCES = 1000  # predict_score: each joins 4 synthetic sentences
LONG_RESPONSES = 10000  # predict_score: responses per pass
TAG = "mark"
LABEL = "ENTITY"
# one defect (or none) per response, drawn uniformly from this tuple
DEFECTS = ("none", "none", "unmatchable", "shift", "unclosed")


@dataclass(frozen=True)
class Training:
    """A config profile plus the quality figures its runs are checked by."""

    sections: dict
    target_f1: float  # dev strict F1 that rounds_to_target waits for
    floor_f1: float  # test strict F1 below which a run counts as failed
    quality_units: int = 1  # training runs every measured run makes; quality figures use these

    def config_text(self, model_seed: int) -> str:
        sections = {name: dict(values) for name, values in self.sections.items()}
        sections["experiment"].update(repeats=1, base_seed=model_seed)
        sections["data"]["data_seed"] = CORPUS_SEED
        return "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
            for name, values in sections.items()
        )


# the acceptance IID profile with fewer rounds: per-token RNN, BPTT and CRF dominate
IID_RNN_CRF = Training(
    sections={
        "experiment": {"task": "ner", "scheme": "fedavg"},
        "data": {"synthetic": "true", "types": "GENE,DIS", "lexicon_size": 100,
                 "sentences": 2000, "cue_rate": 0.5},
        "model": {"kind": "rnn_crf_tagger", "embed_dim": 16, "hidden_dim": 24},
        "federation": {"clients": 10, "rounds": 10, "batch_size": 16,
                       "optimizer": "adam", "base_lr": 0.01},
    },
    target_f1=0.85,
    floor_f1=0.6,
    quality_units=3,
)

# disjoint per-source lexicons: a cheap model over a large dense parameter
# vector, so the optimizer step and the proximal term dominate
NONIID_PROX_WINDOW = Training(
    sections={
        "experiment": {"task": "ner", "scheme": "fedprox"},
        "data": {"synthetic": "true", "types": "GENE,DIS", "lexicon_size": 400,
                 "sentences": 1000, "sources": 4, "heterogeneity": 1.0, "cue_rate": 1.0,
                 "partition": "by_source"},
        "model": {"kind": "window_tagger", "embed_dim": 16, "window_radius": 1},
        "federation": {"clients": 4, "rounds": 6, "local_epochs": 2, "batch_size": 16,
                       "mu": 0.01, "optimizer": "adam", "base_lr": 0.003},
    },
    target_f1=0.55,
    floor_f1=0.6,
    quality_units=5,
)

# predict_score set-up: a short rnn_crf run whose bundle tags the long sentences
PREDICT_TRAIN = Training(
    sections={
        "experiment": {"task": "ner", "scheme": "fedavg"},
        "data": {"synthetic": "true", "types": "GENE,DIS", "lexicon_size": 50,
                 "sentences": 1000, "cue_rate": 0.5},
        "model": {"kind": "rnn_crf_tagger", "embed_dim": 16, "hidden_dim": 24},
        "federation": {"clients": 2, "rounds": 4, "batch_size": 16,
                       "optimizer": "adam", "base_lr": 0.03},
    },
    target_f1=0.99,
    floor_f1=0.6,
)
PREDICT_FLOOR_F1 = 0.6  # test strict F1 on the long sentences
PREDICT_MODEL_SEED = 0  # base_seed of predict_score's short run; its dev F1 passes 0.99 at round 2


def model_seed(seed: int, unit: int) -> int:
    return seed * 1000 + unit


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Run:
    mode: str
    seconds: float
    work: Path
    attempted: int = 0
    failed: int = 0

    @property
    def measure(self) -> bool:
        return self.mode == "measure"

    def tally(self, ops: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += ops
        self.failed += failed
        if problem:
            print(f"check failed: {problem}", file=sys.stderr)

    def units(self, at_least: int):
        """Unit indices to run: one in the fixed and traced modes; in a measured
        run at least ``at_least``, then more while another is expected to end
        within --seconds of the first one's start."""
        if not self.measure:
            yield 0
            return
        start, unit = clock(), 0
        while unit < at_least or (clock() - start) * (unit + 1) / unit <= self.seconds:
            yield unit
            unit += 1


# ---------------------------------------------------------------------------
# program entry points, timed from outside


def core_setup(text: str):
    """Everything before the first training step, as ``run_experiment`` does it."""
    cfg = config.parse_config(text)
    data = experiments.build_data(cfg)
    task = experiments.build_task(cfg, data.train)
    task.prepare(data.dev)
    task.prepare(data.test)
    experiments.partition_train(cfg, data, task, cfg.federation.clients)
    return cfg, data


def score_predictions(task, w, items):
    """Task.predict_spans one sentence at a time, then evaluation.score_ner."""
    pred = [task.predict_spans(w, item) for item in items]
    report = evaluation.score_ner([list(item.gold_spans) for item in items], pred)
    return report, pred


def bad_spans(items, pred, labels) -> int:
    """Predictions whose spans fall outside the sentence or carry an unknown type."""
    bad = 0
    for item, spans in zip(items, pred):
        n = len(item.sentence.tokens)
        if any(not (0 <= s.start <= s.end < n) or s.label not in labels for s in spans):
            bad += 1
    return bad


@dataclass
class TrainResult:
    sent_per_s: float
    rounds_to_target: int
    test_f1: float
    rounds_bytes: bytes
    eval_s: float
    task: object
    weights: object
    test_items: list


def train_unit(spec: Training, text: str, out_dir: Path, data, overhead_s: float, run: Run):
    """One ``experiments.run_experiment`` call plus its correctness checks.

    The round loop's wall time is the call's wall time less ``overhead_s``
    (the set-up it repeats, measured separately) and less the final test
    scoring, timed here on the reloaded bundle.  A run that fails a check is
    counted as failed but still measured; returns None only if it raised.
    """
    try:
        cfg = config.parse_config(text)
        t0 = clock()
        out = experiments.run_experiment(cfg, out_dir)
        total_s = clock() - t0
        rep_dir = out / "repeat_0"
        rounds_bytes = (rep_dir / "rounds.jsonl").read_bytes()
        rounds = [json.loads(line) for line in rounds_bytes.decode("utf-8").splitlines() if line]
        reported = json.loads((rep_dir / "report.json").read_text(encoding="utf-8"))
        task, w = tasks.load_bundle(rep_dir / "weights.npz")
        test_items = task.prepare(data.test)
        t1 = clock()
        report, pred = score_predictions(task, w, test_items)
        eval_s = clock() - t1
    except Exception:
        traceback.print_exc()
        run.tally(1, 1, "training run raised")
        return None

    fed = cfg.federation
    problems = []
    if len(rounds) != fed.rounds:
        problems.append(f"rounds.jsonl has {len(rounds)} rounds, expected {fed.rounds}")
    if not np.isfinite(w.values).all():
        problems.append("saved weights are not finite")
    if not all(np.isfinite(loss) for r in rounds for loss in r["client_loss"]):
        problems.append("a client loss is not finite")
    if report.strict_macro_f1 != reported["strict_macro_f1"]:
        problems.append("reloaded bundle does not reproduce report.json's test F1")
    if reported["strict_macro_f1"] < spec.floor_f1:
        problems.append(f"test strict F1 {reported['strict_macro_f1']:.4f} < floor {spec.floor_f1}")
    loop_s = total_s - overhead_s - eval_s
    if loop_s <= 0:
        run.tally(1, 1, "round loop time is not positive")
        return None
    run.tally(1, bool(problems), "; ".join(problems))

    dev_f1 = [r["strict_f1"] for r in rounds]
    reached = [i + 1 for i, f1 in enumerate(dev_f1) if f1 >= spec.target_f1]
    return TrainResult(
        sent_per_s=fed.rounds * fed.local_epochs * len(data.train) / loop_s,
        rounds_to_target=reached[0] if reached else fed.rounds + 1,
        test_f1=reported["strict_macro_f1"],
        rounds_bytes=rounds_bytes,
        eval_s=eval_s,
        task=task,
        weights=w,
        test_items=test_items,
    )


# ---------------------------------------------------------------------------
# highlight responses


@dataclass
class Responses:
    text: str
    subset: list  # subset[i] is the item response id i refers to
    unmatchable: int
    unclosed: int
    clean_ids: list


def _render(tokens, spans) -> str:
    starts = {s for s, _ in spans}
    ends = {e for _, e in spans}
    parts = []
    for i, tok in enumerate(tokens):
        if i in starts:
            tok = f"<{TAG}>{tok}"
        if i in ends:
            tok = f"{tok}</{TAG}>"
        parts.append(tok)
    return " ".join(parts)


def _inside(p: int, spans) -> bool:
    return any(s <= p <= e for s, e in spans)


def make_responses(items, n: int, rng: np.random.Generator) -> Responses:
    """Gold-derived highlight responses, cycling over ``items``, each with at
    most one injected defect: an unmatchable region (a token the sentence does
    not contain), a span boundary moved by one token, or an unclosed tag."""
    lines, subset, clean_ids = [], [], []
    unmatchable = unclosed = 0
    for i in range(n):
        item = items[i % len(items)]
        tokens = list(item.sentence.tokens)
        spans = [(s.start, s.end) for s in item.gold_spans]
        defect = DEFECTS[int(rng.integers(len(DEFECTS)))]
        if defect == "shift":
            k = int(rng.integers(len(spans)))
            s, e = spans[k]
            others = spans[:k] + spans[k + 1 :]
            if e + 2 < len(tokens) and not _inside(e + 1, others) and not _inside(e + 2, others):
                spans[k] = (s, e + 1)
            elif s >= 2 and not _inside(s - 1, others) and not _inside(s - 2, others):
                spans[k] = (s - 1, e)
            else:
                defect = "none"
        elif defect == "unmatchable":
            gaps = [p for p in range(len(tokens) + 1) if not any(s < p <= e for s, e in spans)]
            p = gaps[int(rng.integers(len(gaps)))]
            tokens.insert(p, f"qx{i}")  # q and x never occur in a synthetic token
            spans = [(s + (s >= p), e + (s >= p)) for s, e in spans] + [(p, p)]
            unmatchable += 1
        response = _render(tokens, spans)
        if defect == "unclosed":
            cut = response.rfind(f"</{TAG}>")
            response = response[:cut] + response[cut + len(TAG) + 3 :]
            unclosed += 1
        if defect == "none":
            clean_ids.append(i)
        lines.append(json.dumps({"id": i, "response": response}))
        subset.append(item)
    return Responses("\n".join(lines) + "\n", subset, unmatchable, unclosed, clean_ids)


def score_responses(resp: Responses, run: Run, passes: int) -> float | None:
    """Responses per second through llm_bridge.read_responses +
    score_ner_responses over ``passes`` passes, each checked for the injected
    recovery counts; None if every pass raised."""
    n = len(resp.subset)
    done, busy = 0, 0.0
    for _ in range(passes):
        try:
            t0 = clock()
            records = llm_bridge.read_responses(resp.text)
            score = llm_bridge.score_ner_responses(resp.subset, records, LABEL, TAG)
            elapsed = clock() - t0
        except Exception:
            traceback.print_exc()
            run.tally(n, n, "response scoring raised")
            continue
        diag = score.diagnostics
        if (diag.dropped, diag.unclosed) != (resp.unmatchable, resp.unclosed):
            run.tally(
                n, n,
                f"dropped/unclosed {diag.dropped}/{diag.unclosed}, "
                f"injected {resp.unmatchable}/{resp.unclosed}",
            )
        else:
            run.tally(n)
        done += n
        busy += elapsed
    return done / busy if done else None


def check_clean_responses(resp: Responses, run: Run) -> None:
    """Responses with no injected defect re-parse to exactly the gold spans,
    and the bridge's report on them equals the direct score_ner report."""
    lines = resp.text.splitlines()
    subset = [resp.subset[i] for i in resp.clean_ids]
    gold = [[evaluation.EntitySpan(LABEL, s.start, s.end) for s in it.gold_spans] for it in subset]
    wrong = 0
    for i, item, want in zip(resp.clean_ids, subset, gold):
        got = llm_bridge.parse_highlights(
            json.loads(lines[i])["response"], item.sentence.tokens, LABEL, TAG
        )
        wrong += got != want
    records = [
        llm_bridge.ResponseRecord(k, json.loads(lines[i])["response"])
        for k, i in enumerate(resp.clean_ids)
    ]
    bridged = llm_bridge.score_ner_responses(subset, records, LABEL, TAG).report
    direct = evaluation.score_ner(gold, gold)
    if bridged.as_dict() != direct.as_dict():
        run.tally(len(subset), len(subset), "clean responses: bridge report != direct score_ner")
    elif wrong:
        run.tally(len(subset), wrong, f"{wrong} clean responses did not re-parse to the gold spans")
    else:
        run.tally(len(subset))


# ---------------------------------------------------------------------------
# workloads


def predict_passes(task, w, items, passes: int, run: Run) -> tuple[float | None, float | None]:
    """Sentences per second over ``passes`` passes, and the strict F1 every
    pass must agree on; (None, None) if every pass raised."""
    done, busy, first = 0, 0.0, None
    labels = {name[2:] for name in task.label_names if name != "O"}
    for _ in range(passes):
        try:
            t0 = clock()
            report, pred = score_predictions(task, w, items)
            elapsed = clock() - t0
        except Exception:
            traceback.print_exc()
            run.tally(len(items), len(items), "prediction raised")
            continue
        first = first or report.as_dict()
        if report.as_dict() != first:
            run.tally(len(items), len(items), "prediction passes disagree")
        else:
            bad = bad_spans(items, pred, labels)
            run.tally(len(items), bad, f"{bad} predictions with invalid spans" if bad else None)
        done += len(items)
        busy += elapsed
    return (done / busy if done else None), (first["strict_macro_f1"] if first else None)


def training_workload(spec: Training, seed: int, run: Run) -> dict:
    """Units are training runs with different model seeds on one corpus; after
    each, its bundle predicts the test split and scores highlight responses."""
    text0 = spec.config_text(model_seed(seed, 0))
    setup_times, trained, pred_rates, resp_rates = [], {}, [], []
    for unit in run.units(spec.quality_units):
        # set-up samples are spread over the run, so that one slow stretch of
        # a shared host does not set their median
        for _ in range(SETUP_REPS if run.measure else 1):
            t0 = clock()
            _, data = core_setup(text0)
            setup_times.append(clock() - t0)
        text = spec.config_text(model_seed(seed, unit))
        out = train_unit(
            spec, text, run.work / f"unit{unit}", data, statistics.median(setup_times), run
        )
        if out is None:
            continue
        trained[unit] = out
        rate, f1 = predict_passes(out.task, out.weights, out.test_items, PREDICT_PASSES, run)
        if rate is not None:
            pred_rates.append(rate)
        if f1 is not None and f1 != out.test_f1:
            run.tally(0, 1, "prediction passes disagree with the training run's test F1")
        resp = make_responses(out.test_items, TRAIN_RESPONSES, np.random.default_rng([seed, unit]))
        rate = score_responses(resp, run, RESPONSE_PASSES)
        if rate is not None:
            resp_rates.append(rate)
        check_clean_responses(resp, run)
    if not trained or not pred_rates or not resp_rates:
        raise RuntimeError("every unit of work raised")

    # quality figures come from the units every run makes, so they do not
    # depend on how many units fit in the time; the round count is a mean
    # because the median of a few small whole numbers jumps a round at a time
    first = [r for u, r in trained.items() if u < spec.quality_units] or list(trained.values())
    return {
        "setup_s": statistics.median(setup_times),
        "train_sent_per_s": statistics.median(r.sent_per_s for r in trained.values()),
        "rounds_to_target": statistics.fmean(r.rounds_to_target for r in first),
        "test_strict_f1": statistics.median(r.test_f1 for r in first),
        "predict_sent_per_s": statistics.median(pred_rates),
        "llm_score_resp_per_s": statistics.median(resp_rates),
    }


def long_sentences_conll(spec: Training, seed: int) -> str:
    """LONG_SENTENCES sentences of ~33 tokens, each four synthetic sentences
    joined in a seeded order, drawn from the training profile's lexicon but
    past the sentences the training corpus uses."""
    d = spec.sections["data"]
    n_train = int(d["sentences"])
    profile = corpus.make_profile(
        types=d["types"].split(","),
        lexicon_size=int(d["lexicon_size"]),
        sentences=n_train + 4 * LONG_SENTENCES,
        cue_rate=float(d["cue_rate"]),
    )
    ((_, sentences),) = corpus.generate_synthetic(profile, CORPUS_SEED)
    order = np.random.default_rng(seed).permutation(4 * LONG_SENTENCES)
    extra = [sentences[n_train + i] for i in order]
    blocks = []
    for g in range(LONG_SENTENCES):
        group = extra[4 * g : 4 * g + 4]
        blocks.append(
            "\n".join(f"{tok}\t{tag}" for s in group for tok, tag in zip(s.tokens, s.labels))
        )
    return "\n\n".join(blocks) + "\n"


def predict_score(seed: int, run: Run) -> dict:
    spec = PREDICT_TRAIN
    text = spec.config_text(PREDICT_MODEL_SEED)
    long_path = run.work / "long.conll"
    long_path.write_text(long_sentences_conll(spec, seed), encoding="utf-8")

    # the part of set-up that run_experiment repeats, timed apart so that the
    # short training run's round loop can be isolated
    overhead = []
    for _ in range(SETUP_REPS if run.measure else 1):
        t0 = clock()
        _, data = core_setup(text)
        overhead.append(clock() - t0)
    overhead_s = statistics.median(overhead)

    setup_times, trained, model = [], [], None
    for rep in range(PREDICT_SETUP_REPS if run.measure else 1):
        t0 = clock()
        result = train_unit(spec, text, run.work / f"setup{rep}", data, overhead_s, run)
        if result is None:
            continue
        copy = run.work / f"copy{rep}.npz"
        tasks.save_bundle(copy, result.task, result.weights)
        task, w = tasks.load_bundle(copy)
        items = task.prepare(corpus.parse_conll(long_path.read_text(encoding="utf-8")))
        # train_unit's test scoring is a check, not set-up
        setup_times.append(clock() - t0 - result.eval_s)
        same = (
            np.array_equal(w.values, result.weights.values)
            and w.layout == result.weights.layout
            and task.vocab.tokens == result.task.vocab.tokens
            and task.label_names == result.task.label_names
        )
        if not same:
            run.tally(0, 1, "bundle save/load round trip changed the model")
        if trained and result.rounds_bytes != trained[0].rounds_bytes:
            run.tally(0, 1, "re-running one config changed rounds.jsonl")
        trained.append(result)
        model = (task, w, items)
    if model is None:
        raise RuntimeError("every set-up training run raised")
    task, w, items = model

    resp = make_responses(items, LONG_RESPONSES, np.random.default_rng(seed))
    pred_rates, resp_rates, f1s = [], [], set()
    for _ in run.units(PREDICT_UNITS):
        rate, f1 = predict_passes(task, w, items, 1, run)
        if rate is not None:
            pred_rates.append(rate)
            f1s.add(f1)
        rate = score_responses(resp, run, 1)
        if rate is not None:
            resp_rates.append(rate)
    check_clean_responses(resp, run)
    if not pred_rates or not resp_rates:
        raise RuntimeError("every unit of work raised")
    if len(f1s) > 1:
        run.tally(0, 1, "prediction passes disagree")
    f1 = min(f1s)
    if f1 < PREDICT_FLOOR_F1:
        run.tally(0, 1, f"long-sentence strict F1 {f1:.4f} < floor {PREDICT_FLOOR_F1}")

    return {
        "setup_s": statistics.median(setup_times),
        "train_sent_per_s": statistics.median(r.sent_per_s for r in trained),
        "rounds_to_target": trained[0].rounds_to_target,
        "test_strict_f1": f1,
        "predict_sent_per_s": statistics.median(pred_rates),
        "llm_score_resp_per_s": statistics.median(resp_rates),
    }


WORKLOADS = {
    "iid_rnn_crf": lambda seed, run: training_workload(IID_RNN_CRF, seed, run),
    "noniid_prox_window": lambda seed, run: training_workload(NONIID_PROX_WINDOW, seed, run),
    "predict_score": predict_score,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "fixed", "traced"))
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    import fedtext

    if Path(fedtext.__file__).resolve().parent != ROOT / "src" / "fedtext":
        print(f"fedtext was imported from {fedtext.__file__}, not from this checkout", file=sys.stderr)
        return 2
    args.work.mkdir(parents=True, exist_ok=True)
    run = Run(args.mode, args.seconds, args.work)
    workload = WORKLOADS[args.workload]
    tracer = None
    t0 = clock()
    if args.mode == "traced":
        with Tracer() as tracer:
            metrics = workload(args.seed, run)
    else:
        metrics = workload(args.seed, run)
    wall_s = clock() - t0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_ratio"] = (run.attempted - run.failed) / max(run.attempted, 1)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "wall_s": wall_s,
        "metrics": metrics,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
