"""Run one fedtext benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload iid_rnn_crf --seed 1 --seconds 25 --trace 0

Run it from anywhere; the program under test is ``src/fedtext`` next to this
directory.  Each workload runs in a fresh process (``bench/workloads.py``)
with BLAS and OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics of one measured run.
``--trace 1`` reports the per-layer metrics: the same fixed work runs once
untraced and once under ``layertrace.Tracer``, and ``trace.overhead_ratio``
is the traced wall time over the untraced one.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when a result was printed, non-zero otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("iid_rnn_crf", "noniid_prox_window", "predict_score")
DEADLINE_S = 175  # a run, both processes of a traced run included, ends within this

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_sent_per_s": "1/s",
    "rounds_to_target": "count",
    "test_strict_f1": "ratio",
    "predict_sent_per_s": "1/s",
    "llm_score_resp_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "params.bytes_allocated":
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work", str(work / mode),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} run of {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedtext benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "fedtext" / "__init__.py").is_file():
        print(f"no fedtext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the workload
    # process and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            plain = run_child(args, "fixed", work, deadline)
            traced = run_child(args, "traced", work, deadline)
            runs = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
            if traced["missing"]:
                print(f"not found, reported as zero: {traced['missing']}", file=sys.stderr)
        else:
            runs = [run_child(args, "measure", work, deadline)]
            metrics = {
                k: {"value": runs[0]["metrics"][k], "unit": unit}
                for k, unit in END_TO_END_UNITS.items()
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
