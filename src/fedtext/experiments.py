"""Experiment orchestration shared by the CLI subcommands.

Builds corpora from files or the synthetic generator, runs the configured
training scheme over repeated seeds, and writes deterministic metric files
(JSON/CSV/JSONL) plus a manifest.  No clock reading lands in the metric
files, so rerunning an identical config reproduces them byte for byte.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager, suppress
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
from .evaluation import EvalReport, TypeScore, aggregate_repeats


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
    """The config's named corpora: one per file, or the synthetic generator's.
    A file that cannot be decoded or parsed is named in the error."""
    kind = tasks.KINDS[cfg.task]
    if cfg.data.synthetic:
        return kind.synthetic(cfg.data)
    sources = []
    for path in map(Path, cfg.data.files):
        try:  # a missing file's OSError names it already
            sources.append((path.name, kind.parse(path.read_text(encoding="utf-8"))))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return sources


def build_data(cfg: ExperimentConfig) -> DataBundle:
    names, trains, dev, test = [], [], [], []
    for i, (name, items) in enumerate(build_sources(cfg)):
        items = corpuslib.dedup(items)
        if len(items) < 3:
            where = f"sentences: source {name!r}" if cfg.data.synthetic else f"files: {cfg.data.files[i]}"
            raise ConfigError(f"[data] {where} is left with {len(items)} after dedup, and a "
                              f"train/dev/test split needs at least 3 items")
        split = corpuslib.split_80_10_10(items, cfg.data.data_seed + i)
        names.append(name)
        trains.append(split.train)
        dev.extend(split.dev)
        test.extend(split.test)
    pooled_train = [item for part in trains for item in part]
    if not test:  # nothing could score a run: refuse before anything trains
        raise ConfigError(f"the pooled test split is empty: {len(pooled_train) + len(dev)} items "
                          f"split {len(pooled_train)}/{len(dev)}/0 into train/dev/test")
    return DataBundle(names, trains, pooled_train, dev, test)


def build_task(cfg: ExperimentConfig, train: Sequence) -> tasks.Task:
    return tasks.build_task(train, **asdict(cfg.model), max_tokens=cfg.data.max_tokens)


def partition_train(cfg: ExperimentConfig, bundle: DataBundle, task: tasks.Task, n_clients: int):
    if cfg.data.partition == "by_source":
        named = [
            (name, task.prepare(train))
            for name, train in zip(bundle.source_names, bundle.source_trains)
        ]
        return corpuslib.partition_by_source(named)
    if n_clients > len(bundle.train):
        raise ConfigError(f"[federation] clients = {n_clients} is more than the "
                          f"{len(bundle.train)} items of the pooled train split")
    pooled = task.prepare(bundle.train)
    return corpuslib.partition_iid(pooled, n_clients, cfg.data.data_seed)


@dataclass
class _Setup:
    """One command's data, the task built on its train split, encoded dev and test."""

    bundle: DataBundle
    task: tasks.Task
    dev: list
    test: list


def _setup(cfg: ExperimentConfig) -> _Setup:
    bundle = build_data(cfg)
    task = build_task(cfg, bundle.train)
    return _Setup(bundle, task, task.prepare(bundle.dev), task.prepare(bundle.test))


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


def _logged(fh, run: int, stream):
    """``stream`` passed through, each record written to ``fh`` as it arrives,
    as a rounds.jsonl line of training run ``run``."""
    for record, server in stream:
        fh.write(json.dumps({"run": run, **record}, sort_keys=True) + "\n")
        yield record, server


def _summary_metrics(kind: tasks.Kind, reports: Sequence[dict]) -> dict[str, dict]:
    """summary.json's ``metrics`` from one or more repeats' report.json dicts:
    the mean, std and per-repeat values of each headline metric."""
    metrics = {}
    for key, source in kind.headline.items():
        values = [report[source] for report in reports]
        mean, std = aggregate_repeats(values)
        metrics[key] = {"mean": mean, "std": std, "values": values}
    return metrics


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> Path:
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    s = _setup(cfg)
    fed = cfg.federation
    # partitions depend on data_seed only, so every repeat trains on the same
    # ones; centralized is the one-client IID run
    if cfg.scheme == "centralized":
        parts = corpuslib.partition_iid(s.task.prepare(s.bundle.train), 1, cfg.data.data_seed)
    else:
        parts = partition_train(cfg, s.bundle, s.task, fed.clients)
    for k, part in enumerate(parts):  # refuse a warmup that leaves a shard no step
        federation.client_schedule(fed, k, len(part))
    # one round loop per group of shards: single trains each shard on its own
    groups = [[part] for part in parts] if cfg.scheme == "single" else [parts]
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    # a run stopped partway must not leave an earlier run's manifest over its repeats
    for name in ("manifest.json", "summary.json"):
        (out / name).unlink(missing_ok=True)

    seeds = [cfg.base_seed + i for i in range(cfg.repeats)]
    repeat_files: list[str] = []
    repeat_reports: list[dict] = []

    for i, seed in enumerate(seeds):
        rep_dir = out / f"repeat_{i}"
        rep_dir.mkdir(exist_ok=True)
        try:
            with _replacing(rep_dir / "rounds.jsonl") as fh:
                best = []
                for run, group in enumerate(groups):
                    stream = federation.rounds(s.task, fed, group, s.dev, seed)
                    best.append(federation.collect(s.task, _logged(fh, run, stream)))
        except BaseException:  # before the repeat's first file: leave no empty directory
            for path in (rep_dir, out) if created else (rep_dir,):
                with suppress(OSError):  # not empty
                    path.rmdir()
            raise
        reports = [s.task.evaluate(w, s.test) for w in best]
        report = _mean_reports(reports) if cfg.scheme == "single" else reports[0]
        repeat_reports.append({"seed": seed, **report.as_dict()})
        _write_json(rep_dir / "report.json", repeat_reports[-1])
        _write_text(rep_dir / "report.csv", evaluation.report_to_csv(report))
        _write_text(rep_dir / "table.txt", evaluation.format_report_table(report))
        if cfg.scheme == "single":
            for k, rep in enumerate(reports):
                _write_json(rep_dir / f"client_{k}_report.json", rep.as_dict())
        else:
            # np.savez would append ".npz" to the temporary name, so hand it the file
            with _replacing(rep_dir / "weights.npz", "wb") as fh:
                tasks.save_bundle(fh, s.task, best[0])
        repeat_files.append(f"{rep_dir.name}/report.json")

    metrics = _summary_metrics(s.task.kind, repeat_reports)
    _write_json(out / "summary.json", {"scheme": cfg.scheme, "task": cfg.task, "metrics": metrics})

    # the manifest goes last: a run directory that has one is complete
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seeds=seeds,
        package_version=__version__,
        scheme=cfg.scheme,
        task=cfg.task,
        repeat_files=repeat_files,
        summary_file="summary.json",
    )
    _write_json(out / "manifest.json", manifest.__dict__)
    return out


# ---------------------------------------------------------------------------
# sweeps

def _repeat_cells(cfg: ExperimentConfig, s: _Setup, parts, mu: float) -> str:
    """One federated run per repeat seed, scored on test; returns the CSV
    cells repeats, lenient mean, lenient std, strict mean, strict std."""
    fed = replace(cfg.federation, mu=mu)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.repeats)
    best = [federation.collect(s.task, federation.rounds(s.task, fed, parts, s.dev, seed))
            for seed in seeds]
    reports = [s.task.evaluate(w, s.test) for w in best]
    lm, ls = aggregate_repeats([r.lenient_macro_f1 for r in reports])
    sm, ss = aggregate_repeats([r.strict_macro_f1 for r in reports])
    return f"{len(reports)},{lm:.6f},{ls:.6f},{sm:.6f},{ss:.6f}"


def _distinct(values: Sequence, name: str) -> list:
    """``values`` in order with repeats dropped, warning once per repeat."""
    kept: list = []
    for value in values:
        if value in kept:
            print(f"warning: duplicate {name} {value} dropped", file=sys.stderr)
        else:
            kept.append(value)
    return kept


def _write_csv(out_path: str | Path, rows: list[str]) -> Path:
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text(out, "\n".join(rows) + "\n")
    return out


def sweep_clients(cfg: ExperimentConfig, client_counts: Sequence[int], out_path: str | Path) -> Path:
    """Scale sweep at fixed total data; one CSV row per distinct requested K."""
    counts = _distinct(client_counts, "client count")
    for k in counts:
        if k < 2:
            raise ConfigError(f"sweep-clients needs K >= 2, got {k} (K = 1 is the centralized scheme)")
    s = _setup(cfg)
    train = s.task.prepare(s.bundle.train)
    rows = ["clients,repeats,lenient_mean,lenient_std,strict_mean,strict_std,error"]
    for k in counts:
        try:
            parts = corpuslib.partition_iid(train, k, cfg.data.data_seed)
        except ValueError as exc:
            rows.append(f"{k},0,,,,,{json.dumps(str(exc))}")
            continue
        rows.append(f"{k},{_repeat_cells(cfg, s, parts, cfg.federation.mu)},")
    return _write_csv(out_path, rows)


def sweep_mu(cfg: ExperimentConfig, mus: Sequence[float] | None, out_path: str | Path) -> Path:
    """Proximal-strength sweep; mu = 0 rows are labeled as plain FedAvg."""
    grid = _distinct(DEFAULT_MU_GRID if mus is None else mus, "mu")
    for mu in grid:
        if not 0 <= mu < math.inf:
            raise ConfigError(f"mu must be finite and >= 0, got {mu}")
    s = _setup(cfg)
    parts = partition_train(cfg, s.bundle, s.task, cfg.federation.clients)
    rows = ["mu,label,repeats,lenient_mean,lenient_std,strict_mean,strict_std"]
    for mu in grid:
        label = "fedavg-equivalent" if mu == 0 else "fedprox"
        rows.append(f"{mu},{label},{_repeat_cells(cfg, s, parts, mu)}")
    return _write_csv(out_path, rows)


# ---------------------------------------------------------------------------
# report rendering

def _read_run_file(run_dir: Path, name: str, make=dict):
    """``make`` applied to the JSON in a run directory's file ``name``; a
    ValueError naming the file if it is unreadable or ``make`` rejects it."""
    try:
        return make(json.loads((run_dir / name).read_text(encoding="utf-8")))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"cannot read {name}: {exc}") from None


def _manifest_and_kind(data: dict) -> tuple[RunManifest, tasks.Kind]:
    """A manifest and its task's kind; an older manifest's ``wall_times`` are ignored."""
    manifest = RunManifest(**{k: v for k, v in data.items() if k != "wall_times"})
    return manifest, tasks.KINDS[manifest.task]


def render_report(run_dirs: Sequence[str | Path]) -> str:
    """Summary table across run directories; cells are the headline metrics'
    mean±std from the repeat files, last first: lenient (strict) for NER.  A
    file that is missing or unreadable, a repeat of a seed the manifest does
    not list there, or a summary.json that differs from them adds a ``!`` line."""
    lines = []
    problems = []
    for run_dir in map(Path, run_dirs):
        if not (run_dir / "manifest.json").exists():
            problems.append(f"{run_dir}: no manifest.json")
            continue
        try:
            manifest, kind = _read_run_file(run_dir, "manifest.json", _manifest_and_kind)
            stored = _read_run_file(run_dir, manifest.summary_file, lambda data: dict(data["metrics"]))
        except ValueError as exc:
            problems.append(f"{run_dir}: {exc}")
            continue
        reports = []
        for name, seed in zip(manifest.repeat_files, manifest.seeds):
            if not (run_dir / name).exists():
                problems.append(f"{run_dir}: missing repeat file {run_dir / name}")
                continue
            try:  # a report without its headline metrics is unreadable too
                report = _read_run_file(run_dir, name, lambda d: kind.scores(d) and d)
                if report.get("seed") != seed:
                    raise ValueError(f"{name} has seed {report.get('seed')}, not the manifest's {seed}")
                reports.append(report)
            except ValueError as exc:
                problems.append(f"{run_dir}: {exc}")

        if not reports or len(reports) < len(manifest.repeat_files):
            cell = "incomplete"
        else:
            metrics = _summary_metrics(kind, reports)
            for key in sorted(metrics.keys() | stored.keys()):
                if metrics.get(key) != stored.get(key):  # JSON floats round-trip exactly
                    problems.append(f"{run_dir}: summary does not match repeat files for {key}")
            last, *rest = ["{mean:.3f}±{std:.3f}".format(**metrics[key]) for key in reversed(metrics)]
            cell = " ".join([last, *(f"({text})" for text in rest)])
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
    items = task.prepare(task.kind.parse(Path(data_path).read_text(encoding="utf-8"))[:limit])
    if not items:
        raise ValueError("no instances to benchmark")

    for item in items[: min(20, len(items))]:
        task.predict(weights, [item])
    t0 = time.perf_counter()
    for item in items:
        task.predict(weights, [item])
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
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    bundle = build_data(cfg)
    task = build_task(cfg, bundle.train)  # prompts and scores read only the test split
    return task, llm_bridge.sample_test_subset(task.prepare(bundle.test), n, seed)


def emit_prompts(
    cfg: ExperimentConfig, spec: llm_bridge.PromptSpec, n: int, seed: int, out_path: str | Path
) -> Path:
    task, subset = _llm_subset(cfg, n, seed)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(out) as fh:
        for i, item in enumerate(subset):
            prompt = llm_bridge.build_prompt(spec, task.kind.prompt_input(item))
            fh.write(json.dumps({"id": i, "prompt": prompt}, sort_keys=True) + "\n")
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
    score = task.kind.score_responses(task, subset, records, entity_label, tag, casefold)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "llm_report.json", score.report.as_dict())
    _write_text(out / "llm_report.csv", evaluation.report_to_csv(score.report))
    _write_json(out / "llm_diagnostics.json", score.diagnostics.__dict__)
    return out
