"""Command-line front end.

Exit codes: 0 on success, 1 for configuration/validation errors, 2 for
runtime failures.  Diagnostics go to stderr; results land in files under the
configured output directory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpuslib
from . import evaluation, experiments, llm_bridge, tasks
from .config import ConfigError, load_config


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-c", "--config", required=True, help="experiment config file (key=value sections)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtext",
        description="Desk-scale federated learning experiments for text mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the configured scheme over repeated seeds")
    _add_config_arg(p)
    p.add_argument("--output-dir", default=None, help="override [experiment] output_dir")

    p = sub.add_parser("sweep-clients", help="federated runs over several client counts")
    _add_config_arg(p)
    p.add_argument("--clients", required=True, help="comma-separated client counts, each >= 2")
    p.add_argument("--out", default="sweep_clients.csv")

    p = sub.add_parser("sweep-mu", help="FedProx runs over proximal strengths")
    _add_config_arg(p)
    p.add_argument(
        "--mus",
        default=None,
        help="comma-separated mu values (default: 1, 0.5, 0.1, 0.01, 0.001)",
    )
    p.add_argument("--out", default="sweep_mu.csv")

    p = sub.add_parser("report", help="summary table over finished run directories")
    p.add_argument("run_dirs", nargs="+", help="directories written by the run command")

    p = sub.add_parser("bench", help="single-instance inference timing for a saved model")
    p.add_argument("--weights", required=True, help="weights.npz written by the run command")
    p.add_argument("--data", required=True, help="corpus file to predict over")
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("gen-synth", help="write synthetic corpora to disk")
    _add_config_arg(p)
    p.add_argument("--out-dir", default="synth")

    p = sub.add_parser("score-llm", help="emit prompts for, or score, recorded responses")
    _add_config_arg(p)
    p.add_argument("--tag", required=True, help="HTML tag name responses use for highlights")
    p.add_argument("--entity-type", default="disease", help="entity noun used in prompts")
    p.add_argument("--shot", choices=["zero", "one"], default="zero")
    p.add_argument("--n", type=int, default=200, help="test subset size")
    p.add_argument("--subset-seed", type=int, default=0)
    p.add_argument("--emit-prompts", metavar="PATH", help="write prompts and exit")
    p.add_argument("--responses", metavar="PATH", help="score this response file")
    p.add_argument("--out-dir", default="llm_eval")
    p.add_argument("--align-casefold", action="store_true", help="case-insensitive alignment")

    p = sub.add_parser("eval", help="score a prediction file (token gold pred columns)")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", default=None, help="also write the CSV report here")
    p.add_argument(
        "--lenient-type-free",
        action="store_true",
        help="non-default: lenient matching ignores entity type",
    )
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = experiments.run_experiment(cfg, args.output_dir)
    print(f"wrote {out}/manifest.json")
    return 0


def _cmd_sweep_clients(args) -> int:
    cfg = load_config(args.config)
    try:
        counts = [int(part) for part in args.clients.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--clients must be integers, got {args.clients!r}") from None
    if not counts:
        raise ConfigError("--clients is empty")
    out = experiments.sweep_clients(cfg, counts, args.out)
    print(f"wrote {out}")
    return 0


def _cmd_sweep_mu(args) -> int:
    cfg = load_config(args.config)
    mus = None
    if args.mus is not None:
        try:
            mus = [float(part) for part in args.mus.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"--mus must be numbers, got {args.mus!r}") from None
        if not mus:
            raise ConfigError("--mus is empty")
    out = experiments.sweep_mu(cfg, mus, args.out)
    print(f"wrote {out}")
    return 0


def _cmd_report(args) -> int:
    print(experiments.render_report(args.run_dirs), end="")
    return 0


def _cmd_bench(args) -> int:
    stats = experiments.bench_inference(args.weights, args.data, args.limit)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_gen_synth(args) -> int:
    cfg = load_config(args.config)
    if not cfg.data.synthetic:
        raise ConfigError("gen-synth needs [data] synthetic = true")
    kind = tasks.KINDS[cfg.task]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, items in experiments.build_sources(cfg):
        path = out_dir / f"{name}.{kind.suffix}"
        path.write_text(kind.serialize(items), encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _cmd_score_llm(args) -> int:
    cfg = load_config(args.config)
    if bool(args.emit_prompts) == bool(args.responses):
        raise ConfigError("score-llm takes exactly one of --emit-prompts and --responses")
    kind = tasks.KINDS[cfg.task]
    if "{tag}" in kind.template and not llm_bridge.TAG_NAME.fullmatch(args.tag):
        raise ConfigError(f"--tag {args.tag!r} is not a usable HTML tag name")
    if args.responses:
        out = experiments.score_llm(
            cfg, args.responses, entity_label=args.entity_type, tag=args.tag, n=args.n,
            seed=args.subset_seed, out_dir=args.out_dir, casefold=args.align_casefold,
        )
        print(f"wrote {out}/llm_report.json")
        return 0
    if args.shot == "one" and kind.exemplar is None:
        raise ConfigError(f"score-llm --shot one has no exemplar for task = {cfg.task}; use --shot zero")
    exemplar = kind.exemplar(args.tag) if args.shot == "one" else None
    spec = llm_bridge.PromptSpec(kind.template, args.entity_type, args.tag, exemplar)
    out = experiments.emit_prompts(cfg, spec, args.n, args.subset_seed, args.emit_prompts)
    print(f"wrote {out}")
    return 0


def _cmd_eval(args) -> int:
    text = Path(args.predictions).read_text(encoding="utf-8")
    pairs = corpuslib.parse_predictions(text)
    gold = [evaluation.decode_bio(sent.labels) for sent, _ in pairs]
    pred = [evaluation.decode_bio(tags) for _, tags in pairs]
    report = evaluation.score_ner(gold, pred, lenient_require_type=not args.lenient_type_free)
    print(evaluation.format_report_table(report), end="")
    if args.out:
        Path(args.out).write_text(evaluation.report_to_csv(report), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep-clients": _cmd_sweep_clients,
    "sweep-mu": _cmd_sweep_mu,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "gen-synth": _cmd_gen_synth,
    "score-llm": _cmd_score_llm,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: bad files, impossible runs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
