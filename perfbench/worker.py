"""One workload process: set-up, then a timed or traced op loop.

Started by `run.py` with single-threaded BLAS and `src/` on the path.
Prints one JSON object as its last stdout line.

Modes:
  run    set up, then run ops until `--seconds` have passed; reports the
         clock reading when set-up ended and every op's time.
  trace  set up under tracing, run `trace_ops` ops traced, then the same
         ops untraced; checks both passes agree and reports layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import pkeet
from pkeet.errors import GenerationFailed, PkeetError

from spans import ROOT, Tracer, install
from workloads import WORKLOADS


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "pkeet": pkeet.__file__,
    }


def run_pass(wl, count: int | None, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops (a fixed `count`, or until `seconds` pass) and tally them.

    `loop_s` is the loop's wall time less the untimed output checks."""
    wl.start_pass()
    times = {key: [] for key in wl.samples}
    op_s, fails = [], {}
    check_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                state = wl.run(k, times)
            else:
                with tracer.op():
                    state = wl.run(k, times)
        except PkeetError as exc:
            state, kind = None, type(exc).__name__
        t1 = time.perf_counter()
        op_s.append(t1 - t0)
        if state is not None:
            kind = wl.check(k, state)
            check_s += time.perf_counter() - t1
        if kind is not None:
            fails[kind] = fails.get(kind, 0) + 1
        k += 1
    loop_s = time.perf_counter() - start - check_s
    return {
        "attempted": k,
        "failed": sum(fails.values()),
        "fail_kinds": fails,
        "op_s": op_s,
        "loop_s": loop_s,
        "times": times,
        "digest": wl.digest.hexdigest(),
    }


def completed_per_s(tally: dict) -> float:
    """Completed ops per second of the loop's wall time, checks excluded."""
    return (tally["attempted"] - tally["failed"]) / tally["loop_s"]


def layer_metrics(tracer: Tracer, wall_s: float, prefix: str = "") -> dict:
    """The per-layer metrics read from the tracer's aggregates.

    A layer's time is given as `self_share`: its self time over the wall
    time `wall_s` of the traced ops, so a layer a workload never calls
    reads 0 as a share rather than as a time.  `incl_share` counts the
    span's whole time, its children's included."""
    g = tracer.get

    def share(name: str) -> float:
        return g(name, "self_s") / wall_s

    m = {
        "rng.bytes.calls": g("rng.bytes", "calls"),
        "rng.bytes.bytes": g("rng.bytes", "bytes"),
        "rng.bytes.self_share": share("rng.bytes"),
    }
    for fn in ("hash_message", "hash_to_sparse", "hash_pm_one", "hash_weighted"):
        m[f"hashing.{fn}.self_share"] = share(f"hashing.{fn}")
    calls = g("hashing.hash_to_invertible", "calls")
    rounds = g("hashing.invertible", "rounds")
    m["hashing.hash_to_invertible.calls"] = calls
    m["hashing.hash_to_invertible.self_share"] = share("hashing.hash_to_invertible")
    m["hashing.invertible.rounds"] = rounds
    m["hashing.invertible.yield"] = calls / rounds if rounds else 0.0
    for name, keys in (
        ("ring.ntt", ("calls", "rows")),
        ("ring.intt", ("calls", "rows")),
        ("ring.mulmod", ("calls", "elems")),
        ("sampling.sample_z_batch", ("calls", "draws_cdt", "draws_conv")),
        ("sampling.klein_batch", ("calls", "levels", "rows")),
        ("sampling.sample_g_batch", ("calls",)),
        ("sampling.perturbation_build", ("calls", "not_pd")),
        ("sampling.perturbation_sample", ("calls",)),
        ("trapdoor_ring.trap_gen", ("calls", "draws", "rejects_norm", "rejects_pd", "failed")),
        ("trapdoor_ring.sample_pre", ("calls",)),
        ("trapdoor_ring.apply_tag_shift", ("calls",)),
        ("serial.encode", ("calls", "bytes")),
        ("serial.decode", ("calls", "bytes")),
    ):
        for key in keys:
            m[f"{name}.{key}"] = g(name, key)
        m[f"{name}.self_share"] = share(name)
    draws = g("trapdoor_ring.trap_gen", "draws")
    accepted = g("trapdoor_ring.trap_gen", "calls") - g("trapdoor_ring.trap_gen", "failed")
    m["trapdoor_ring.trap_gen.yield"] = accepted / draws if draws else 0.0
    for fn in ("ring_keygen", "ring_sign", "ring_verify", "sis_keygen", "sis_verify"):
        m[f"ots.{fn}.self_share"] = share(f"ots.ots_{fn}")
    for fn in ("trap_gen_int", "sample_left", "solve_particular", "sample_d_batch", "matmul_mod", "basis_qr"):
        m[f"matlattice.{fn}.calls"] = g(f"matlattice.{fn}", "calls")
        m[f"matlattice.{fn}.self_share"] = share(f"matlattice.{fn}")
    # The QR itself runs in `sampling.OrthoBasis.from_basis`, a span of its own.
    m["matlattice.basis_qr.incl_share"] = g("matlattice.basis_qr", "incl_s") / wall_s
    del m["matlattice.basis_qr.self_share"]
    for fn in ("setup", "encrypt", "decrypt", "test"):
        m[f"pkeet_ring.{fn}.self_share"] = share(f"pkeet_ring.{fn}")
    for fn in ("setup_int", "encrypt_int", "decrypt_int", "test_int"):
        m[f"pkeet_int.{fn}.self_share"] = share(f"pkeet_int.{fn}")
    m["bench.harness.self_share"] = share(ROOT)
    return {prefix + k: v for k, v in m.items()}


# The traced run's checks on each op: the harness's own clock and the op
# span agree, and the layer spans cover most of the op, so the harness's own
# code outside every layer stays small.
OP_CLOCK_SLACK_S = 1e-3
MIN_LAYER_COVER = 0.9

# Set-up layers whose cost shows in `setup_s` rather than in the op loop.
SETUP_LAYERS = (
    "trapdoor_ring.trap_gen.calls",
    "trapdoor_ring.trap_gen.draws",
    "trapdoor_ring.trap_gen.self_share",
    "sampling.perturbation_build.calls",
    "sampling.perturbation_build.self_share",
    "matlattice.trap_gen_int.calls",
    "matlattice.trap_gen_int.self_share",
    "matlattice.basis_qr.calls",
    "matlattice.basis_qr.incl_share",
)


def self_seconds(tracer: Tracer) -> dict:
    return {name: stat["self_s"] for name, stat in sorted(tracer.stats.items()) if "self_s" in stat}


def traced(wl) -> dict:
    tracer = Tracer()
    inst = install(tracer)
    try:
        with tracer.op():
            wl.set_up()
            wl.warm_up()
        setup_layers = layer_metrics(tracer, tracer.op_walls[0], "setup.")
        setup_self_s = self_seconds(tracer)
        tracer.reset()
        traced_pass = run_pass(wl, wl.trace_ops, 0.0, tracer)
    finally:
        inst.uninstall()
    plain_pass = run_pass(wl, wl.trace_ops, 0.0)

    problems = []
    for key in ("attempted", "failed", "fail_kinds", "digest"):
        if traced_pass[key] != plain_pass[key]:
            problems.append(f"traced and untraced passes differ in {key}")
    if len(tracer.op_walls) != wl.trace_ops:
        problems.append("op span count differs from the ops run")
    for wall, layer_s, op_s in zip(tracer.op_walls, tracer.op_layer_s, traced_pass["op_s"]):
        if not wall <= op_s <= wall + OP_CLOCK_SLACK_S:
            problems.append(f"op span of {wall} s for an op timed at {op_s} s")
            break
        if layer_s < MIN_LAYER_COVER * wall:
            problems.append(f"layer spans cover {layer_s} s of an op of {wall} s")
            break

    metrics = layer_metrics(tracer, sum(tracer.op_walls))
    metrics.update({"setup." + k: setup_layers["setup." + k] for k in SETUP_LAYERS})
    traced_rate = completed_per_s(traced_pass)
    plain_rate = completed_per_s(plain_pass)
    metrics["trace.ops_per_s.traced"] = traced_rate
    metrics["trace.ops_per_s.untraced"] = plain_rate
    metrics["trace.ops_per_s.ratio"] = traced_rate / plain_rate
    failed = {"traced": traced_pass["fail_kinds"], "untraced": plain_pass["fail_kinds"]}
    return {
        "mode": "trace",
        "problems": problems,
        "attempted": traced_pass["attempted"] + plain_pass["attempted"],
        "failed": traced_pass["failed"] + plain_pass["failed"],
        "fail_kinds": failed,
        "generation_failed": sum(kinds.get(GenerationFailed.__name__, 0) for kinds in failed.values()),
        "digest": traced_pass["digest"],
        "self_s": self_seconds(tracer),
        "setup_self_s": setup_self_s,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--part", type=int, default=0, help="which op stream of the seed to run")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.n, args.part)
    if args.mode == "trace":
        out = traced(wl)
    else:
        wl.set_up()
        wl.warm_up()
        ready = time.perf_counter()
        out = run_pass(wl, None, args.seconds)
        out.update(mode="run", ready=ready)
    out["n"] = wl.n
    out["sizes"] = wl.sizes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
