"""Self-tests of the benchmark itself, run through ``bench/run.py`` as a user would.

    python3 bench/selftest.py

Checks that:
  * the metric names and units ``run.py`` prints match ``BENCHMARK.json``;
  * two traced runs on one seed give identical ``*.calls`` and ``params.*``;
  * ``crf.nll_and_grads`` is called on iid_rnn_crf and never on
    noniid_prox_window;
  * the optim layer's share of traced self time is higher on
    noniid_prox_window than on iid_rnn_crf;
  * every run is correct, and the traced run reports every per-layer metric;
  * a directory holding only BENCHMARK.json and bench/ makes run.py fail
    without printing a result.
Takes a few minutes on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench(workload: str, trace: int, root: Path = ROOT, seconds: int = 1):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def values(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def optim_share(layers: dict) -> float:
    self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    return sum(v for k, v in self_times.items() if k.startswith("optim.")) / sum(self_times.values())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    sys.path.insert(0, str(HERE))
    import run

    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END_UNITS, "end-to-end names and units match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workload names match BENCHMARK.json")

    traced = {}
    for workload in ("iid_rnn_crf", "iid_rnn_crf", "noniid_prox_window"):
        code, result = bench(workload, trace=1)
        check(code == 0 and result is not None and result["correct"], f"traced {workload} is correct")
        if result is None:
            return 1
        traced.setdefault(workload, []).append(values(result))
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = traced["iid_rnn_crf"][0]
    check(set(got) == set(layers), "traced run reports exactly the per-layer metrics")
    check(all(run.layer_unit(k) == u for k, u in layers.items()),
          "per-layer units match BENCHMARK.json")

    first, second = traced["iid_rnn_crf"]
    counts = [k for k in first if k.endswith(".calls") or k.startswith("params.")]
    check(all(first[k] == second[k] for k in counts), "two traced runs give identical counts")
    noniid = traced["noniid_prox_window"][0]
    check(first["crf.nll_and_grads.calls"] > 0 and noniid["crf.nll_and_grads.calls"] == 0,
          "crf.nll_and_grads runs on iid_rnn_crf only")
    share_iid, share_noniid = optim_share(first), optim_share(noniid)
    check(share_noniid > share_iid,
          f"optim share higher on noniid_prox_window ({share_noniid:.3f} vs {share_iid:.3f})")

    code, result = bench("predict_score", trace=0)
    check(code == 0 and result is not None and result["correct"]
          and set(result["metrics"]) == set(declared), "predict_score measured run is correct")

    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        code, result = bench("iid_rnn_crf", trace=0, root=bare)
        check(code != 0 and result is None, "fails without printing a result when src/ is absent")
    try:
        (HERE / "_work").rmdir()
    except OSError:
        pass

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
