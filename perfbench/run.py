"""pkeet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ring-roundtrip --seed 0 --seconds 12 --trace 0

Run from the repository root.  Each workload runs in fresh worker processes
(`worker.py`) with single-threaded BLAS and the repository's `src/` on the
path.  With `--trace 0` the benchmark starts `WORKERS` workers one after
another; each sets up and then runs its share of the `--seconds` op loop on
its own op stream of the seed.  `setup_s` is the median set-up time over the
workers and the op samples of all workers are pooled.  With `--trace 1` one worker runs a
fixed number of ops traced and the same ops untraced, and the result holds
the per-layer metrics.  Details (environment, sample counts, per-op
medians, failure kinds) print as a `# detail` line before the result line.

Exit code 0 only when every worker succeeded; otherwise no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
WORKERS = 3

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "ops_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "pk_bytes": "B",
    "sk_bytes": "B",
    "ct_bytes": "B",
    "td_bytes": "B",
}


def layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".yield", ".ratio", "_share")):
        return "ratio"
    if ".ops_per_s." in name:
        return "1/s"
    return "count"


class WorkerFailed(Exception):
    pass


def worker(args, mode: str, part: int, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its result and its start time."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(SRC),
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--part", str(part)]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed no result")
    return json.loads(lines[-1]), started


def summarize(series: dict[str, list[float]]) -> dict:
    """Median and sample count of each series, and p90 where at least ten
    samples lie beyond it."""
    out = {}
    for key, values in series.items():
        if values:
            out[key] = {"median": statistics.median(values), "n": len(values)}
            if len(values) >= 100:
                out[key]["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    """`WORKERS` workers, each set up in a fresh process and then running
    its own share of the timed loop; their op samples are pooled."""
    setups, parts = [], []
    for part in range(WORKERS):
        out, started = worker(args, "run", part, args.seconds / WORKERS, deadline)
        setups.append(out["ready"] - started)
        parts.append(out)
    op_s = [t for out in parts for t in out["op_s"]]
    series = {"op_ms": [t * 1e3 for t in op_s]}
    for out in parts:
        for key, values in out["times"].items():
            series.setdefault(key, []).extend(values)
    attempted = sum(out["attempted"] for out in parts)
    failed = sum(out["failed"] for out in parts)
    fail_kinds: dict[str, int] = {}
    for out in parts:
        for kind, count in out["fail_kinds"].items():
            fail_kinds[kind] = fail_kinds.get(kind, 0) + count
    sizes = parts[-1]["sizes"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms": statistics.median(series["op_ms"]),
        "ops_per_s": (attempted - failed) / sum(out["loop_s"] for out in parts),
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(out["peak_rss_mb"] for out in parts),
        **{key: sizes[key] for key in ("pk_bytes", "sk_bytes", "ct_bytes", "td_bytes")},
    }
    detail = {
        "attempted": attempted,
        "failed": failed,
        "fail_kinds": fail_kinds,
        "fail_ratio": failed / attempted,
        "generation_failed": fail_kinds.get("GenerationFailed", 0),
        "problems": [],
        "setup_s_samples": setups,
        "samples": summarize(series),
        "digests": [out["digest"] for out in parts],
        "n": parts[-1]["n"],
        "sizes": sizes,
        "env": parts[-1]["env"],
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed op loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help="override the workload's lattice dimension")
    args = ap.parse_args(argv)
    if not (SRC / "pkeet" / "__init__.py").is_file():
        print(f"error: no pkeet sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            result, _ = worker(args, "trace", 0, args.seconds, deadline)
            metrics = result["metrics"]
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, result = end_to_end(args, deadline)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail = {k: v for k, v in result.items() if k != "metrics"}
    print("# detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    generation_failed = result.get("generation_failed", 0)
    correct = not result["problems"] and result["failed"] == generation_failed
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
