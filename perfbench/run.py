"""Engine benchmark for konlsearch_ray: one closed-loop client, four
workloads (two of them declared in BENCHMARK.json).

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run generates its inputs from
``--seed``, sets up, measures for ``--seconds``, checks the outputs against
the pure-Python oracle and prints one metric per line (name, value, unit,
sample count), then, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Every run also
writes a side artifact to ``.perfbench/out/`` (spans too when traced).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import subprocess
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

# The workloads BENCHMARK.json declares, and two more that run the same way
# but are left out of it: on a 1-CPU host the wall time of their Ray Data
# calls (build_index, append_documents) spreads by 20-30% between runs (12%
# between runs of one seed), beyond the largest bound, 25%.
WORKLOADS = ["query_hot", "query_cold"]
EXTRA_WORKLOADS = ["build", "update"]
DOCS = 3000

END_TO_END = {
    "setup_s": "s",
    "round_ms": "ms",
    "key_op_ms": "ms",
    "index_bytes_per_doc": "B/doc",
}
PER_LAYER = {
    "build.read_sha_s": "s",
    "build.docs_write_s": "s",
    "build.postings_s": "s",
    "build.finalize_s": "s",
    "build.docs_indexed": "count",
    "build.dedup_ratio": "ratio",
    "build.tokens": "count",
    "build.vocab": "count",
    "build.bytes_docs": "B",
    "build.bytes_segments": "B",
    "build.bytes_dictionary": "B",
    "build.bytes_other": "B",
    "analyzer.tokens_per_s": "tokens/s",
    "query.open_ms": "ms",
    "query.open_bytes": "B",
    "query.decode_ms": "ms",
    "query.bound_ms": "ms",
    "query.score_ms": "ms",
    "query.intersect_ms": "ms",
    "query.postings_decoded": "count",
    "codec.bytes_decoded": "B",
    "query.cache_hit_ratio": "ratio",
}
# Per-layer metrics only some workloads produce: printed and in the side
# artifact, not in the JSON line (which carries the same keys everywhere).
EXTRA_UNITS = {
    "docstore.fetch_ms": "ms", "analyzer.retokenize_ms": "ms",
    "docstore.near_candidates": "count", "docstore.near_useful_ratio": "ratio",
    "query.sharded_subset_ms": "ms", "query.sharded_overhead_ms": "ms",
    "query.sharded_start_s": "s", "build.rank_s": "s",
    "build.docs_in": "count", "build.shards": "count",
    "build.append_s": "s", "build.append_success_ratio": "ratio",
    "tombstone.delete_ms": "ms", "tombstone.dead_docs": "count",
    "tombstone.compact_s": "s", "tombstone.compact_live_docs": "count",
}
THROTTLE_RATIO = 1.25   # probe after / before beyond this flags the window
RAY_STARTS = 3          # attempts at starting Ray (its node start can time out)


def _descendants(pid: int) -> set[int]:
    """Every live descendant of ``pid`` (from /proc)."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(name))
    out, todo = set(), [pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.add(k)
            todo.append(k)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_ray(ray) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    procs = _descendants(os.getpid())
    ray.shutdown()
    deadline = time.time() + 15
    while time.time() < deadline and any(_alive(p) for p in procs):
        time.sleep(0.1)
    for p in procs:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(p) for p in procs) and time.time() < deadline + 5:
        time.sleep(0.1)
    for p in procs:  # reap direct children
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass


def _start_ray(ray, **kw) -> None:
    """``ray.init``, tried again after a failed node start (Ray raises a
    bare ``Exception`` when its node times out during start-up)."""
    for attempt in range(1, RAY_STARTS + 1):
        try:
            ray.init(**kw)
            return
        except Exception:
            _stop_ray(ray)
            if attempt == RAY_STARTS:
                raise
            print(f"perfbench: Ray start {attempt} failed; trying again",
                  file=sys.stderr)


def _nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _named(b) -> dict[str, tuple]:
    """The per-operation-class end-to-end metrics: p50 plus the highest of
    p99/p90 that has at least ten samples beyond it."""
    out = {"setup_s": (statistics.median(b.setup_times), "s",
                       len(b.setup_times))}
    import numpy as np

    for cls in ("bm25", "bool", "near", "sharded", "open", "reopen"):
        s = b.lat.get(cls)
        if not s:
            continue
        name = "sharded_bm25" if cls == "sharded" else cls
        out[f"{name}_p50_ms"] = (float(np.percentile(s, 50)), "ms", len(s))
        for p in (99, 90):
            if len(s) * (100 - p) / 100 >= 10:
                out[f"{name}_p{p}_ms"] = (float(np.percentile(s, p)), "ms",
                                          len(s))
                break
    if b.lat.get("compact"):
        c = b.lat["compact"]
        out["compact_s"] = (statistics.median(c) / 1e3, "s", len(c))
    out.update(b.named)
    out["error_rate"] = (b.failed / max(b.attempted, 1), "ratio", b.attempted)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + EXTRA_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=int, default=DOCS,
                   help="corpus size (the self-test runs a tiny one)")
    args = p.parse_args(argv)
    # A plain SIGTERM would skip the clean-up below and leave Ray running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "konlsearch_ray")):
        print(f"perfbench: no konlsearch_ray/ package under {ROOT}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2

    # Ray workers import the library from the checkout too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x)
    sys.path.insert(0, ROOT)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    ray_tmp = os.path.join(STATE, "ray")
    os.makedirs(work)
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)

    import ray

    # Ray's socket paths (temp dir plus at most 64 bytes of session and
    # socket name) must stay under the AF_UNIX limit of 107 bytes.
    temp_dir = ray_tmp if len(ray_tmp.encode()) + 64 <= 107 else None
    if temp_dir is None:
        print("perfbench: checkout path too long for Ray sockets; Ray uses "
              "its default temp dir", file=sys.stderr)
    cpus = _nproc()
    t_start = time.perf_counter()
    _start_ray(ray, address="local", num_cpus=cpus, include_dashboard=False,
               logging_level="ERROR", log_to_driver=False,
               object_store_memory=256 * 2**20, _temp_dir=temp_dir)
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        import workloads

        b = workloads.Bench(args.seed, args.seconds, args.docs,
                            bool(args.trace), work)
        ray_init_s = time.perf_counter() - t_start
        workloads.WORKLOADS[args.workload](b)
        e2e = b.e2e()
        raw = b.e2e(raw=True)
        named = _named(b)
        layer = b.layer_metrics() if args.trace else {}
        self_ms = ({k: v * 1e3 for k, v in b.tr.self_times(b.mark).items()}
                   if args.trace else {})
    finally:
        _stop_ray(ray)
        shutil.rmtree(work, ignore_errors=True)
        if temp_dir:
            shutil.rmtree(ray_tmp, ignore_errors=True)

    before, after = b.probes
    throttled = max(before, after) / min(before, after) > THROTTLE_RATIO
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} clients 1 cpus {cpus} docs {args.docs}")
    print(f"host_probe_s before {before:.4f} after {after:.4f} "
          f"throttled {'yes' if throttled else 'no'}")
    print(f"ray_init_s {ray_init_s:.3f}")
    setup_scale, window_scale = b.scales()
    print(f"speed_scale setup {setup_scale:.4f} n={len(b.setup_speed)} "
          f"window {window_scale:.4f} n={len(b.speed)}")
    for name, (value, n) in e2e.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]} n={n} "
              f"raw {raw[name][0]:.6g}")
    for name, (value, unit, n) in named.items():
        if name not in e2e:
            print(f"metric {name} {value:.6g} {unit} n={n}")
    for name, value in layer.items():
        unit = PER_LAYER.get(name) or EXTRA_UNITS[name]
        print(f"layer {name} {value:.6g} {unit}")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"self_time {name} {ms:.3f} ms")
    overhead = {}
    if args.trace:
        overhead = {k: e2e[k][0] - v for k, (v, _) in b.untraced.items()}
        for name, d in overhead.items():
            print(f"tracing_overhead {name} {d:+.6g} {END_TO_END[name]}")
    for err in b.errors:
        print("error " + err.replace("\n", " | "), file=sys.stderr)

    artifact = os.path.join(
        STATE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(artifact, "w") as f:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "clients": 1,
            "cpus": cpus, "docs": args.docs,
            "host_probe_s": {"before": before, "after": after,
                             "throttled": throttled},
            "speed_probe_ms": {"setup": b.setup_speed, "window": b.speed},
            "raw_end_to_end": {k: v for k, (v, _) in raw.items()},
            "end_to_end": {k: {"value": v, "n": n} for k, (v, n) in e2e.items()},
            "named": {k: {"value": v, "unit": u, "n": n}
                      for k, (v, u, n) in named.items()},
            "setup_times_s": b.setup_times,
            "latency_ms": {f"{cls}:{op}": v for (cls, op), v in b.ops.items()},
            "phase_s": b.phases,
            "untraced": b.untraced and {k: v for k, (v, _) in b.untraced.items()},
            "tracing_overhead": overhead,
            "per_layer": layer, "self_time_ms": self_ms,
            "errors": b.errors, "spans": b.tr.dump(),
        }, f)
    print(f"artifact {os.path.relpath(artifact, ROOT)}")

    if args.trace:
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
