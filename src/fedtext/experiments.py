"""Experiment orchestration shared by the CLI subcommands.

Builds corpora from files or the synthetic generator, runs the configured
training scheme over repeated seeds, and writes deterministic metric files
(JSON/CSV/JSONL) plus a manifest.  Wall-clock numbers only ever land in the
manifest, so rerunning an identical config reproduces the metric files byte
for byte.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from . import __version__, evaluation, federation, llm_bridge, tasks
from . import corpus as corpuslib
from .config import (
    DEFAULT_MU_GRID,
    ConfigError,
    ExperimentConfig,
    RunManifest,
    config_hash,
)
from .evaluation import EvalReport, TypeScore, aggregate_repeats, format_cell, headline
from .federation import RunResult


# ---------------------------------------------------------------------------
# data assembly

@dataclass
class DataBundle:
    """Per-source splits plus the pooled view used by most schemes."""

    source_names: list[str]
    source_trains: list[list]
    train: list
    dev: list
    test: list


def build_sources(cfg: ExperimentConfig) -> list[tuple[str, list]]:
    """The config's named corpora: one per file, or the synthetic generator's."""
    d = cfg.data
    if not d.synthetic:
        parse = corpuslib.parse_relations if cfg.task == "re" else corpuslib.parse_conll
        return [(Path(p).name, parse(Path(p).read_text(encoding="utf-8"))) for p in d.files]
    if cfg.task == "re":
        instances = corpuslib.generate_synthetic_relations(d.lexicon_size, sum(d.sentences), d.data_seed)
        return [("relations", instances)]
    counts = d.sentences if len(d.sentences) == d.sources else d.sentences * d.sources
    profile = corpuslib.make_profile(
        d.types, d.lexicon_size, counts, d.sources, d.heterogeneity, d.cue_rate
    )
    return corpuslib.generate_synthetic(profile, d.data_seed)


def build_data(cfg: ExperimentConfig) -> DataBundle:
    names, trains, dev, test = [], [], [], []
    for i, (name, items) in enumerate(build_sources(cfg)):
        split = corpuslib.split_80_10_10(corpuslib.dedup(items), cfg.data.data_seed + i)
        names.append(name)
        trains.append(split.train)
        dev.extend(split.dev)
        test.extend(split.test)
    pooled_train = [item for part in trains for item in part]
    return DataBundle(names, trains, pooled_train, dev, test)


def build_task(cfg: ExperimentConfig, train: Sequence) -> tasks.Task:
    m, max_tokens = cfg.model, cfg.data.max_tokens
    if cfg.task == "re":
        return tasks.build_re_task(train, m.embed_dim, m.hidden_dim, max_tokens)
    return tasks.build_ner_task(train, **asdict(m), max_tokens=max_tokens)


def partition_train(cfg: ExperimentConfig, bundle: DataBundle, task: tasks.Task, n_clients: int):
    if cfg.data.partition == "by_source":
        named = [
            (name, task.prepare(train))
            for name, train in zip(bundle.source_names, bundle.source_trains)
        ]
        return corpuslib.partition_by_source(named)
    pooled = task.prepare(bundle.train)
    return corpuslib.partition_iid(pooled, n_clients, cfg.data.data_seed)


@dataclass
class SchemeOutcome:
    task: tasks.Task
    report: EvalReport
    results: list[RunResult]
    client_reports: list[EvalReport] | None = None


def run_scheme(cfg: ExperimentConfig, bundle: DataBundle, seed: int) -> SchemeOutcome:
    task = build_task(cfg, bundle.train)
    dev = task.prepare(bundle.dev)
    test = task.prepare(bundle.test)

    fed = cfg.federation
    if cfg.scheme == "centralized":
        results = [federation.run_centralized(task, fed, task.prepare(bundle.train), dev, seed)]
    elif cfg.scheme == "single":
        parts = partition_train(cfg, bundle, task, fed.clients)
        results = federation.run_single_client(task, fed, parts, dev, seed)
    else:
        parts = partition_train(cfg, bundle, task, fed.clients)
        results = [federation.run_federated(task, fed, parts, dev, seed)]

    reports = [task.evaluate(r.best_weights, test) for r in results]
    if cfg.scheme == "single":
        report, client_reports = _mean_reports(reports), reports
    else:
        report, client_reports = reports[0], None
    return SchemeOutcome(task, report, results, client_reports)


def _mean_reports(reports: list[EvalReport]) -> EvalReport:
    """Per-type P/R/F1 and macro-F1 averaged over the clients' reports; a type
    missing from a client's report counts as 0 for that client."""

    def mean_types(tables: list[dict[str, TypeScore]]) -> dict[str, TypeScore]:
        zero = TypeScore(0.0, 0.0, 0.0)
        return {
            label: TypeScore(*map(statistics.fmean, zip(*(t.get(label, zero) for t in tables))))
            for label in sorted(set().union(*tables))
        }

    return EvalReport(
        strict=mean_types([r.strict for r in reports]),
        lenient=mean_types([r.lenient for r in reports]),
        strict_macro_f1=statistics.fmean(r.strict_macro_f1 for r in reports),
        lenient_macro_f1=statistics.fmean(r.lenient_macro_f1 for r in reports),
    )


# ---------------------------------------------------------------------------
# cmd-run

@contextmanager
def _replacing(path: Path, mode: str = "w"):
    """Yield a temporary file next to ``path`` and move it onto ``path`` once
    the block completes, so ``path`` never holds a partly written file; on
    an error the temporary file is removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rounds_log(path: Path, results: list[RunResult]) -> None:
    with _replacing(path) as fh:
        for i, result in enumerate(results):
            for record in result.round_log:
                fh.write(json.dumps({"run": i, **record}, sort_keys=True) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> Path:
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_data(cfg)

    seeds = [cfg.base_seed + i for i in range(cfg.repeats)]
    repeat_files: list[str] = []
    wall_times: list[float] = []
    per_metric: dict[str, list[float]] = {}

    for i, seed in enumerate(seeds):
        t0 = time.perf_counter()
        outcome = run_scheme(cfg, bundle, seed)
        wall_times.append(time.perf_counter() - t0)

        rep_dir = out / f"repeat_{i}"
        rep_dir.mkdir(exist_ok=True)
        report = outcome.report.as_dict()
        _write_json(rep_dir / "report.json", {"seed": seed, **report})
        _write_text(rep_dir / "report.csv", evaluation.report_to_csv(outcome.report))
        _write_text(rep_dir / "table.txt", evaluation.format_report_table(outcome.report))
        _write_rounds_log(rep_dir / "rounds.jsonl", outcome.results)
        if outcome.client_reports is not None:
            for k, rep in enumerate(outcome.client_reports):
                _write_json(rep_dir / f"client_{k}_report.json", rep.as_dict())
        if cfg.scheme != "single":
            # np.savez would append ".npz" to the temporary name, so hand it the file
            with _replacing(rep_dir / "weights.npz", "wb") as fh:
                tasks.save_bundle(fh, outcome.task, outcome.results[0].best_weights)
        repeat_files.append(f"{rep_dir.name}/report.json")
        for key, value in headline(cfg.task, report).items():
            per_metric.setdefault(key, []).append(value)

    summary: dict[str, dict[str, float | list[float]]] = {}
    for key, values in sorted(per_metric.items()):
        mean, std = _mean_std(values)
        summary[key] = {"mean": mean, "std": std, "values": values}
    _write_json(out / "summary.json", {"scheme": cfg.scheme, "task": cfg.task, "metrics": summary})

    # the manifest goes last: a run directory that has one is complete
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seeds=seeds,
        package_version=__version__,
        scheme=cfg.scheme,
        task=cfg.task,
        repeat_files=repeat_files,
        summary_file="summary.json",
        wall_times=wall_times,
    )
    _write_json(out / "manifest.json", manifest.__dict__)
    return out


# ---------------------------------------------------------------------------
# sweeps

def _repeat_cells(cfg: ExperimentConfig, task: tasks.Task, parts, dev, test, mu: float) -> str:
    """One federated run per repeat seed, scored on test; returns the CSV
    cells repeats, lenient mean, lenient std, strict mean, strict std."""
    lenient: list[float] = []
    strict: list[float] = []
    fed = replace(cfg.federation, clients=len(parts), mu=mu)
    for i in range(cfg.repeats):
        result = federation.run_federated(task, fed, parts, dev, cfg.base_seed + i)
        report = task.evaluate(result.best_weights, test)
        lenient.append(report.lenient_macro_f1)
        strict.append(report.strict_macro_f1)
    lm, ls = _mean_std(lenient)
    sm, ss = _mean_std(strict)
    return f"{len(lenient)},{lm:.6f},{ls:.6f},{sm:.6f},{ss:.6f}"


def _write_csv(out_path: str | Path, rows: list[str]) -> Path:
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text(out, "\n".join(rows) + "\n")
    return out


def sweep_clients(cfg: ExperimentConfig, client_counts: Sequence[int], out_path: str | Path) -> Path:
    """Scale sweep at fixed total data; one CSV row per requested K."""
    for k in client_counts:
        if k < 2:
            raise ConfigError(f"sweep-clients needs K >= 2, got {k} (K = 1 is the centralized scheme)")
    bundle = build_data(cfg)
    task = build_task(cfg, bundle.train)
    train = task.prepare(bundle.train)
    dev = task.prepare(bundle.dev)
    test = task.prepare(bundle.test)
    mu = cfg.federation.mu if cfg.scheme == "fedprox" else 0.0
    rows = ["clients,repeats,lenient_mean,lenient_std,strict_mean,strict_std,error"]
    for k in client_counts:
        try:
            parts = corpuslib.partition_iid(train, k, cfg.data.data_seed)
        except ValueError as exc:
            rows.append(f"{k},0,,,,,{json.dumps(str(exc))}")
            continue
        rows.append(f"{k},{_repeat_cells(cfg, task, parts, dev, test, mu)},")
    return _write_csv(out_path, rows)


def sweep_mu(cfg: ExperimentConfig, mus: Sequence[float] | None, out_path: str | Path) -> Path:
    """Proximal-strength sweep; mu = 0 rows are labeled as plain FedAvg."""
    grid = list(DEFAULT_MU_GRID) if mus is None else list(mus)
    deduped: list[float] = []
    for mu in grid:
        if not 0 <= mu < math.inf:
            raise ConfigError(f"mu must be finite and >= 0, got {mu}")
        if mu in deduped:
            print(f"warning: duplicate mu {mu} dropped", file=sys.stderr)
        else:
            deduped.append(mu)

    bundle = build_data(cfg)
    task = build_task(cfg, bundle.train)
    parts = partition_train(cfg, bundle, task, cfg.federation.clients)
    dev = task.prepare(bundle.dev)
    test = task.prepare(bundle.test)
    rows = ["mu,label,repeats,lenient_mean,lenient_std,strict_mean,strict_std"]
    for mu in deduped:
        label = "fedavg-equivalent" if mu == 0 else "fedprox"
        rows.append(f"{mu},{label},{_repeat_cells(cfg, task, parts, dev, test, mu)}")
    return _write_csv(out_path, rows)


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if len(values) >= 2:
        return aggregate_repeats(values)
    return (values[0], 0.0) if values else (float("nan"), float("nan"))


# ---------------------------------------------------------------------------
# report rendering

def render_report(run_dirs: Sequence[str | Path]) -> str:
    """Summary table across run directories; cells are lenient (strict)."""
    lines = []
    problems = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        manifest_path = run_dir / "manifest.json"
        if not manifest_path.exists():
            problems.append(f"{run_dir}: no manifest.json")
            continue
        manifest = RunManifest.load(manifest_path)
        repeat_paths = [run_dir / f for f in manifest.repeat_files]
        missing = [p for p in repeat_paths if not p.exists()]
        for p in missing:
            problems.append(f"{run_dir}: missing repeat file {p}")

        summary = json.loads((run_dir / manifest.summary_file).read_text())
        metrics = summary["metrics"]
        # cross-check the stored summary against the surviving repeat files
        check_values: dict[str, list[float]] = {}
        for p in repeat_paths:
            if not p.exists():
                continue
            rep = json.loads(p.read_text())
            for key, value in headline(manifest.task, rep).items():
                check_values.setdefault(key, []).append(value)
        for key, stored in metrics.items():
            values = check_values.get(key, [])
            if len(values) == len(stored["values"]):
                mean, std = _mean_std(values)
                if abs(mean - stored["mean"]) > 1e-9 or abs(std - stored["std"]) > 1e-9:
                    problems.append(f"{run_dir}: summary does not match repeat files for {key}")

        if missing:
            cell = "incomplete"
        elif manifest.task == "ner":
            cell = format_cell(
                metrics["lenient_f1"]["mean"], metrics["lenient_f1"]["std"],
                metrics["strict_f1"]["mean"], metrics["strict_f1"]["std"],
            )
        else:
            m = metrics["macro_f1"]
            cell = f"{m['mean']:.3f}±{m['std']:.3f}"
        lines.append((f"{manifest.task}/{manifest.scheme}", cell))

    width = max((len(name) for name, _ in lines), default=0)
    body = "\n".join(f"{name.ljust(width)}  {cell}" for name, cell in lines)
    if problems:
        body += "\n" + "\n".join(f"! {p}" for p in problems)
    return body + "\n"


# ---------------------------------------------------------------------------
# inference benchmark

def bench_inference(bundle_path: str | Path, data_path: str | Path, limit: int | None = None) -> dict:
    """Timed single-instance prediction loop with a short warmup."""
    if limit is not None and limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {limit}")
    task, weights = tasks.load_bundle(bundle_path)
    parse = corpuslib.parse_conll if task.kind == "ner" else corpuslib.parse_relations
    items = task.prepare(parse(Path(data_path).read_text(encoding="utf-8")))
    if limit is not None:
        items = items[:limit]
    if not items:
        raise ValueError("no instances to benchmark")

    predict = task.predict_spans if task.kind == "ner" else task.predict_label
    for item in items[: min(20, len(items))]:
        predict(weights, item)
    t0 = time.perf_counter()
    for item in items:
        predict(weights, item)
    total = time.perf_counter() - t0
    return {
        "instances": len(items),
        "total_seconds": total,
        "seconds_per_instance": total / len(items),
        "instances_per_second": len(items) / total if total > 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# llm bridge plumbing

def _llm_subset(cfg: ExperimentConfig, n: int, seed: int):
    bundle = build_data(cfg)
    task = build_task(cfg, bundle.train)
    return task, llm_bridge.sample_test_subset(task.prepare(bundle.test), n, seed)


def emit_prompts(
    cfg: ExperimentConfig, spec: llm_bridge.PromptSpec, n: int, seed: int, out_path: str | Path
) -> Path:
    task, subset = _llm_subset(cfg, n, seed)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(out) as fh:
        for i, item in enumerate(subset):
            if task.kind == "ner":
                text = " ".join(item.sentence.tokens)
            else:
                inst = item.instance
                m1 = " ".join(inst.tokens[inst.span1[0] : inst.span1[1] + 1])
                m2 = " ".join(inst.tokens[inst.span2[0] : inst.span2[1] + 1])
                text = f"{' '.join(inst.tokens)}\nEntity 1: {m1}\nEntity 2: {m2}"
            fh.write(
                json.dumps({"id": i, "prompt": llm_bridge.build_prompt(spec, text)}, sort_keys=True)
                + "\n"
            )
    return out


def score_llm(
    cfg: ExperimentConfig,
    responses_path: str | Path,
    entity_label: str,
    tag: str,
    n: int,
    seed: int,
    out_dir: str | Path,
    casefold: bool = False,
) -> Path:
    task, subset = _llm_subset(cfg, n, seed)
    records = llm_bridge.read_responses(Path(responses_path).read_text(encoding="utf-8"))
    if task.kind == "ner":
        score = llm_bridge.score_ner_responses(subset, records, entity_label, tag, casefold=casefold)
    else:
        score = llm_bridge.score_re_responses(subset, records, task.label_names)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "llm_report.json", score.report.as_dict())
    _write_text(out / "llm_report.csv", evaluation.report_to_csv(score.report))
    _write_json(out / "llm_diagnostics.json", score.diagnostics.__dict__)
    return out
