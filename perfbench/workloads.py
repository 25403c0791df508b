"""The four workloads, driven by one closed-loop client (BENCHMARK.json
declares ``query_hot`` and ``query_cold``; run.py says why not the others).

Each workload generates its inputs from the seed, sets up its index
``SETUPS`` times (``setup_s`` is the median), runs the timed window, then
checks its outputs. Only calls made inside the window with a latency class
become latency samples; set-up and checks count as attempted operations.

The host's single-core speed drifts by tens of percent over seconds (a
shared core), so a fixed speed probe (a pure-Python loop plus a cache-sized
NumPy sort) runs around every set-up and after every round. The end-to-end
times are scaled by ``PROBE_REF_MS / median(probe)`` of the same stretch of
time: the drift is common to the probe and the work and cancels out. Raw
times are printed beside them.

NEAR and sharded BM25 calls wait on docstore reads and on Ray actor round
trips, and a reader open on Parquet reads; on a 1-CPU host their latency
wanders by 15-45% within one process over two minutes, whatever the probe
says. They run in the rounds and are reported, but stay out of
``round_ms``.

``round_ms`` sums, over the distinct calls of a round, each call's median
latency in the window, rather than taking the median of whole-round sums:
a 0.5 ms call that another process preempts for a few milliseconds would
otherwise move the round it lands in.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import statistics
import time
import traceback
import weakref
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from konlsearch_ray import (IndexConfig, IndexReader, append_documents,
                            build_index, compact_index, delete_docs)
from konlsearch_ray.analyzer import (analyze_strings, normalize_query_tokens,
                                     tokenize)
from konlsearch_ray.corpus import HEAD_TERMS, generate_corpus, write_corpus
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.query import ShardedQueryEngine

from checks import Oracle, check_build, sha256, same_result
from spans import Tracer

# Sort-key ids plus exact dedup (the BASELINE.json input shape); small
# shards so the 4-actor scatter-gather has at least 4 shards to split.
CFG = IndexConfig(shard_size=500)
SETUPS = 4
SLOP = 3
SHARDED_ACTORS = 4
COLD_PAIRS = 90          # queries per cold pass, each with two fresh terms
UPDATE_DELETES = 10      # ids tombstoned per update cycle
COLD_DELETES = 30        # ids each query_cold set-up deletes and compacts
UPDATE_CYCLES = 4        # update cycles per episode
PROBE_LOOP = 16_000      # iterations of the speed probe's Python loop
PROBE_SORT = 200_000     # floats the speed probe sorts (1.6 MB)
PROBE_REF_MS = 3.0       # the probe's time the end-to-end times are scaled to
# Latency classes left out of round_ms (compaction ends an update episode
# and is not part of its cycles).
UNROUNDED = {"near", "sharded", "open", "reopen", "compact"}

# Latency class of each query kind, and the span its library call gets.
CLASS = {"bm25": "bm25", "AND": "bool", "OR": "bool", "PHRASE": "bool",
         "near": "near", "sharded": "sharded"}
CALL_SPAN = {"bm25": "query.score", "AND": "query.intersect",
             "OR": "query.intersect", "PHRASE": "query.intersect",
             "near": "query.near", "sharded": "query.sharded"}


def host_probe() -> float:
    """Single-core probe: fastest of three warm sorts of 4M floats, in
    seconds (the first sort only faults the pages in)."""
    a = np.random.default_rng(0).random(4_000_000)
    np.sort(a)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(a)
        best = min(best, time.perf_counter() - t0)
    return best


_SORT_INPUT = np.random.default_rng(0).random(PROBE_SORT)


def speed_probe() -> float:
    """Milliseconds of a fixed pure-Python loop plus a NumPy sort, each the
    fastest of three: the host's current single-core and cache speed
    (3-5 ms on the 1-CPU, 2.1 GHz host the benchmark was tuned on)."""
    loop = sort = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        t1 = time.perf_counter()
        np.sort(_SORT_INPUT)
        t2 = time.perf_counter()
        loop, sort = min(loop, t1 - t0), min(sort, t2 - t1)
    return (loop + sort) * 1e3


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def index_bytes(index_dir: str) -> dict[str, int]:
    """File bytes per index subdirectory; the rest is ``other``."""
    parts = {"docs": 0, "segments": 0, "dictionary": 0, "doclens": 0,
             "other": 0}
    for root, _, files in os.walk(index_dir):
        top = os.path.relpath(root, index_dir).split(os.sep)[0]
        key = top if top in parts else "other"
        parts[key] += sum(os.path.getsize(os.path.join(root, f))
                          for f in files)
    return parts


def posting_blob_bytes(index_dir: str) -> dict[str, int]:
    """Doc-id plus tf posting-blob bytes of every term, over all segments."""
    out: dict[str, int] = defaultdict(int)
    seg_dir = os.path.join(index_dir, "segments")
    for name in sorted(os.listdir(seg_dir)):
        t = pq.read_table(os.path.join(seg_dir, name),
                          columns=["term", "doc_ids_bin", "tfs_bin"])
        n = pc.add(pc.binary_length(t["doc_ids_bin"]),
                   pc.binary_length(t["tfs_bin"]))
        for term, b in zip(t["term"].to_pylist(), n.to_pylist()):
            out[term] += b
    return out


def pick(cands: list[str], n: int, rng: random.Random) -> list[str]:
    """``n`` distinct terms when the band has them, else with repeats."""
    if not cands:
        raise RuntimeError("corpus too small: an empty query-term band")
    return rng.sample(cands, n) if len(cands) >= n else rng.choices(cands, k=n)


def bands(df: dict[str, int], n_docs: int):
    """Non-head terms by descending df, plus a tail band (df near
    ``n_docs / 300``) and a mid band (df near ``n_docs / 50``), each the 40
    terms closest to its target, so that query cost barely moves with the
    seed."""
    ranked = sorted((t for t in df if t not in HEAD_TERMS),
                    key=lambda t: (-df[t], t))
    near = lambda target: sorted(
        (t for t in ranked if df[t] >= 2),
        key=lambda t: (abs(df[t] - target), t))[:40]
    return ranked, near(max(2, n_docs / 300)), near(n_docs / 50)


class Bench:
    """One run: the client, its latency samples and its layer counters."""

    def __init__(self, seed: int, seconds: float, docs: int, trace: bool,
                 work: str):
        self.seed, self.seconds, self.docs, self.work = seed, seconds, docs, work
        self.trace = trace
        self.tr = Tracer(trace)
        # Latency samples per (class, distinct call).
        self.ops: dict[tuple, list[float]] = defaultdict(list)
        self.speed: list[float] = []        # speed probes after each round
        self.setup_speed: list[float] = []  # probes around each set-up
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.phases: dict[str, list[float]] = defaultdict(list)
        self.open_ms: list[float] = []
        self.layer: dict[str, float] = {}     # workload-specific layer metrics
        self.named: dict[str, tuple] = {}     # extra end-to-end metrics
        self.untraced: dict | None = None
        self.probes: list[float] = []
        self.main: tuple[str, dict, int] | None = None  # index, stats, docs in
        self.corpus = ""
        self.key_op = ""                  # latency class of key_op_ms
        self.n_rounds = 0
        self.mark = 0                     # first span of the traced window
        self._n = 0
        # Traced-window counters of the query decomposition.
        self.touched: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.blobs: dict[str, int] = {}
        self.subsets: list[IndexReader] = []
        self.store: DocStore | None = None
        self.q = defaultdict(float)

    # --- plumbing -------------------------------------------------------
    def dir(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{name}-{self._n}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def call(self, name: str, fn, *args, cls: str | None = None, req=None,
             op=None):
        """One public call inside a span; a latency sample when ``cls``.
        ``op`` names the distinct call (a query of a pool, a batch)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span(name, req):
                out = fn(*args)
        except Exception:
            self.fail(f"{name}: {traceback.format_exc(limit=4)}")
            return None
        if cls is not None:
            self._sample(cls, t0, op)
        return out

    def _sample(self, cls: str, t0: float, op=None) -> None:
        self.ops[(cls, op)].append((time.perf_counter() - t0) * 1e3)

    @property
    def lat(self) -> dict[str, list[float]]:
        """Latency samples per class."""
        out: dict[str, list[float]] = defaultdict(list)
        for (cls, _), v in self.ops.items():
            out[cls] += v
        return out

    def end_round(self) -> None:
        """Close a round of the workload's call sequence and probe the
        host's speed, outside any timing."""
        self.n_rounds += 1
        self.speed.append(speed_probe())

    def loop(self):
        """Iteration counter until the window's seconds are spent."""
        end = time.perf_counter() + self.seconds
        for k in itertools.count():
            if k and time.perf_counter() >= end:
                return
            yield k

    def run_window(self, window) -> None:
        """Run the timed window. A traced run first runs it untraced on the
        same inputs, so the difference is the tracing overhead."""
        self.probes.append(host_probe())
        gc.collect()
        self.speed.append(speed_probe())
        if self.trace:
            self.tr.enabled = False
            window()
            self.untraced = self.e2e()
            self.ops.clear()
            self.n_rounds = 0
            self.speed = [speed_probe()]
            self.q.clear()
            self.tr.enabled = True
            self.mark = len(self.tr.spans)
        window()
        self.probes.append(host_probe())

    # --- library calls --------------------------------------------------
    def build(self, corpus: str, index_dir: str, cls: str | None = None):
        stats = self.call("build.build_index", build_index, corpus, index_dir,
                          CFG, cls=cls)
        if stats is not None:
            ph = stats["phase_sec"]
            sub = ph.get("docs_sub") or {}
            self.phases["read_sha"].append(sub.get("read_sha_light", 0.0))
            self.phases["rank"].append(sub.get("rank", 0.0))
            self.phases["docs_write"].append(sub.get("write", 0.0))
            self.phases["docs"].append(ph["docs"])
            self.phases["postings"].append(ph["postings"])
            self.phases["finalize"].append(ph["finalize"])
        return stats

    def open(self, index_dir: str, cls: str | None = None, req=None, op=None):
        t0 = time.perf_counter()
        r = self.call("query.open", IndexReader, index_dir, cls=cls, req=req,
                      op=op)
        if r is not None:
            self.open_ms.append((time.perf_counter() - t0) * 1e3)
            if self.trace:
                self.blobs = posting_blob_bytes(index_dir)
        return r

    def setup(self, corpus: str, docs_in: int, deletes: int = 0):
        """One set-up: build the workload's index, then (``deletes``) retire
        that many seeded ids, then open a reader on it."""
        if self.main:
            shutil.rmtree(self.main[0], ignore_errors=True)
        self.setup_speed.append(speed_probe())
        t0 = time.perf_counter()
        d = self.dir("index")
        stats = self.build(corpus, d)
        if stats is not None and deletes:
            stats = self.retire(d, stats, deletes)
        self.rss_before_open = rss_mb()
        reader = self.open(d)
        if stats is None or reader is None:
            raise RuntimeError("set-up failed: " + "; ".join(self.errors))
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_speed.append(speed_probe())
        self.main = (d, stats, docs_in)
        return d, stats, reader

    def setups(self, corpus: str, docs_in: int, deletes: int = 0):
        for _ in range(SETUPS):
            out = self.setup(corpus, docs_in, deletes)
        return out

    def retire(self, d: str, stats: dict, n: int) -> dict | None:
        """``delete_docs`` of ``n`` seeded ids, then ``compact_index``;
        returns the build's stats updated by the compaction's."""
        gone = random.Random(self.seed).sample(range(1, stats["N"] + 1), n)
        t0 = time.perf_counter()
        if self.call("tombstone.delete_docs", delete_docs, d, gone) is None:
            return None
        t1 = time.perf_counter()
        new = self.call("tombstone.compact_index", compact_index, d)
        if new is None:
            return None
        self.phases["delete"].append(t1 - t0)
        self.phases["compact"].append(time.perf_counter() - t1)
        self.expect(new["N"] == stats["N"] - n,
                    f"compaction left {new['N']} docs, expected "
                    f"{stats['N'] - n}")
        return {**stats, **new, "built": stats["N"]}

    def write_corpus(self, **kw) -> tuple[str, pa.Table]:
        d = write_corpus(self.dir("corpus"), self.docs, seed=self.seed,
                         rows_per_file=1000, **kw)
        self.corpus = d
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        return d, pa.concat_tables(pq.read_table(os.path.join(d, f))
                                   for f in files)

    def query(self, reader, kind: str, tokens: list[str], req=None,
              timed: bool = True, op=None):
        """One query. Traced, the terms' postings and bounds are touched
        first in spans of their own, so the library call that follows
        times only scoring or intersection."""
        cls = CLASS[kind]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span("client." + cls, req):
                if self.tr.enabled:
                    self._decompose(reader, kind, tokens, req)
                with self.tr.span(CALL_SPAN[kind], req):
                    if kind == "bm25" or kind == "sharded":
                        out = reader.bm25_topk(tokens, 10)
                    elif kind == "near":
                        out = reader.search_near(tokens, SLOP)
                    else:
                        out = reader.search(tokens, kind)
        except Exception:
            self.fail(f"{kind} {tokens}: {traceback.format_exc(limit=4)}")
            return None
        if timed:
            self._sample(cls, t0, op)
        if kind == "near" and self.tr.enabled:
            self.q["near_hits"] += len(out)
        return out

    def _decompose(self, reader, kind, tokens, req) -> None:
        q, span = self.q, self.tr.span
        if kind == "sharded":
            q["sharded_n"] += 1
            worst = 0.0
            for sub in self.subsets:
                t0 = time.perf_counter()
                with span("query.subset", req):
                    sub.bm25_topk(tokens, 10)
                worst = max(worst, time.perf_counter() - t0)
            q["subset_s"] += worst
            return
        terms = sorted(set(normalize_query_tokens(tokens)))
        touched = self.touched.setdefault(reader, set())
        q["queries"] += 1
        for t in terms:
            q["terms"] += 1
            if t in touched:
                q["hits"] += 1
            with span("query.decode", req):
                if kind == "PHRASE":
                    ids = reader.postings(t)[0]
                else:
                    ids = reader.postings_scores(t)[0]
            if t not in touched:
                touched.add(t)
                q["postings"] += len(ids)
                q["blob_bytes"] += self.blobs.get(t, 0)
        if kind == "bm25":
            q["bm25_n"] += 1
            for t in terms:
                with span("query.bound", req):
                    reader.block_upper_tf(t)
        elif kind == "near":
            q["near_n"] += 1
            with span("query.intersect", req):
                cand = reader.search(terms, "AND")
            with span("docstore.fetch", req):
                rows = self.store.get_multi(cand, columns=["doc_id", "content"])
            with span("analyzer.retokenize", req):
                if rows.num_rows:
                    analyze_strings(rows["content"])
            q["near_cands"] += len(cand)
        else:
            q["bool_n"] += 1

    # --- results --------------------------------------------------------
    def scales(self) -> tuple[float, float]:
        """Speed scale of the set-ups and of the window."""
        med = statistics.median
        return (PROBE_REF_MS / med(self.setup_speed),
                PROBE_REF_MS / med(self.speed))

    def e2e(self, raw: bool = False) -> dict[str, tuple[float, int]]:
        """The end-to-end metrics as (value, sample count); times scaled to
        the reference speed unless ``raw``."""
        d, stats, _ = self.main
        med = statistics.median
        setup, window = (1.0, 1.0) if raw else self.scales()
        key = [med(v) for (cls, _), v in self.ops.items() if cls == self.key_op]
        round_ms = sum(med(v) for (cls, _), v in self.ops.items()
                       if cls not in UNROUNDED)
        return {
            "setup_s": (med(self.setup_times) * setup, len(self.setup_times)),
            "round_ms": (round_ms * window, self.n_rounds),
            "key_op_ms": (statistics.fmean(key) * window,
                          len(self.lat[self.key_op])),
            "index_bytes_per_doc": (
                sum(index_bytes(d).values()) / stats["N"], 1),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics every workload reports (traced run)."""
        d, stats, docs_in = self.main
        q, med = self.q, statistics.median
        parts = index_bytes(d)
        n_q = max(q["queries"], 1)
        ms = lambda name: self.tr.totals(name, self.mark)[1] * 1e3
        out = {
            "build.read_sha_s": med(self.phases["read_sha"]),
            "build.docs_write_s": med(self.phases["docs_write"]),
            "build.postings_s": med(self.phases["postings"]),
            "build.finalize_s": med(self.phases["finalize"]),
            "build.docs_indexed": stats.get("built", stats["N"]),
            "build.dedup_ratio": 1 - stats.get("built", stats["N"]) / docs_in,
            "build.tokens": stats["total_tokens"],
            "build.vocab": stats["vocab"],
            "build.bytes_docs": parts["docs"],
            "build.bytes_segments": parts["segments"],
            "build.bytes_dictionary": parts["dictionary"],
            "build.bytes_other": parts["doclens"] + parts["other"],
            "analyzer.tokens_per_s": self._tokens_per_s(),
            "query.open_ms": med(self.open_ms),
            "query.open_bytes": parts["segments"] + parts["doclens"],
            "query.decode_ms": ms("query.decode") / n_q,
            "query.bound_ms": ms("query.bound") / max(q["bm25_n"], 1),
            "query.score_ms": ms("query.score") / max(q["bm25_n"], 1),
            "query.intersect_ms": ms("query.intersect") / max(
                q["bool_n"] + q["near_n"], 1),
            "query.postings_decoded": q["postings"] / n_q,
            "codec.bytes_decoded": q["blob_bytes"] / n_q,
            "query.cache_hit_ratio": q["hits"] / max(q["terms"], 1),
        }
        if q["near_n"]:
            out["docstore.fetch_ms"] = ms("docstore.fetch") / q["near_n"]
            out["analyzer.retokenize_ms"] = (
                ms("analyzer.retokenize") / q["near_n"])
            out["docstore.near_candidates"] = q["near_cands"] / q["near_n"]
            out["docstore.near_useful_ratio"] = (
                q["near_hits"] / max(q["near_cands"], 1))
        if q["sharded_n"]:
            n, total = self.tr.totals("query.sharded", self.mark)
            subset = q["subset_s"] * 1e3 / q["sharded_n"]
            out["query.sharded_subset_ms"] = subset
            out["query.sharded_overhead_ms"] = total * 1e3 / n - subset
        if self.phases["compact"]:
            out["tombstone.delete_ms"] = med(self.phases["delete"]) * 1e3
            out["tombstone.compact_s"] = med(self.phases["compact"])
        out["build.rank_s"] = med(self.phases["rank"])
        out["build.docs_in"] = docs_in
        out["build.shards"] = stats["num_shards"]
        out.update(self.layer)
        return out

    def _tokens_per_s(self) -> float:
        """Analyzer replayed over the corpus content column."""
        col = pq.read_table(self.corpus, columns=["content"])["content"]
        best = []
        for _ in range(3):
            t0 = time.perf_counter()
            with self.tr.span("analyzer.tokenize"):
                n = len(analyze_strings(col)["term"])
            best.append(time.perf_counter() - t0)
        return n / statistics.median(best)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def run_build(b: Bench) -> None:
    """Bulk build_index of one corpus, again and again into fresh
    directories. A round is the build plus the reader open that makes the
    new index serve; each build's output is checked outside its timing."""
    corpus, table = b.write_corpus()
    contents = table["content"].to_pylist()
    distinct = {sha256(c) for c in contents}
    d, stats, _ = b.setups(corpus, len(contents))
    oracle = Oracle(d)
    rng = random.Random(b.seed)
    _, tail, _ = bands(oracle.df(), stats["N"])
    head = list(HEAD_TERMS)
    probes = [("bm25", rng.sample(head, 2)),
              ("bm25", [rng.choice(head)] + pick(tail, 1, rng)),
              ("AND", [rng.choice(head)] + pick(tail, 1, rng)),
              ("PHRASE", rng.sample(head, 2))]
    expect = [oracle.expected(k, t) for k, t in probes]
    del oracle      # keep the heap the collector scans in the window small
    b.key_op = "build"
    sample = rng.sample(range(1, stats["N"] + 1), min(20, stats["N"]))

    def window():
        for k in b.loop():
            out = b.dir("build")
            st = b.build(corpus, out, cls="build")
            if st is not None:
                for err in check_build(out, st, distinct, sample):
                    b.fail(err)
                r = b.open(out, cls="open", req=k)
                for (kind, toks), e in zip(probes, expect):
                    got = b.query(r, kind, toks, req=k, timed=False)
                    b.expect(got is not None and same_result(kind, got, e),
                             f"build {k}: {kind} {toks} differs from oracle")
            b.end_round()
            shutil.rmtree(out, ignore_errors=True)

    b.run_window(window)
    n = len(b.lat["build"])
    b.named["build_docs_per_s"] = (
        len(contents) * n / (sum(b.lat["build"]) / 1e3), "docs/s", n)


def hot_pool(df: dict[str, int], n_docs: int, rng: random.Random):
    """The fixed query pool of ``query_hot``. Every head term and head pair
    appears in the same roles whatever the seed; the seed picks the tail
    and mid terms and the order, so the pool's cost barely moves with it.
    The single-reader BM25 and Boolean calls come first and the NEAR and
    sharded calls last, so the waits and other processes of the latter do
    not land between the former."""
    _, tail, mid = bands(df, n_docs)
    head = list(HEAD_TERMS)
    hh = [list(p) for p in itertools.combinations(head, 2)]
    ht = [[h] + pick(tail, 1, rng) for h in head * 2]
    tt = [pick(tail, 2, rng) for _ in range(10)]
    bm25 = hh + ht + tt
    local = [("bm25", q) for q in bm25]
    local += [("AND", q) for q in hh[::5] + ht[:2]]
    local += [("OR", q) for q in ht[2:4] + tt[:2]]
    local += [("PHRASE", q) for q in hh[2::5] + ht[4:6]]
    waiting = [("sharded", q) for q in bm25[::6]]
    waiting += [("near", [h, m]) for h, m in zip(head, pick(mid, 5, rng))]
    rng.shuffle(local)
    rng.shuffle(waiting)
    return local + waiting


def run_query_hot(b: Bench) -> None:
    """One long-lived reader replays a fixed pool after a warm-up pass:
    every posting list is cached before timing starts."""
    corpus, table = b.write_corpus()
    d, stats, reader = b.setups(corpus, table.num_rows)
    oracle = Oracle(d)
    pool = hot_pool(oracle.df(), stats["N"], random.Random(b.seed))
    t0 = time.perf_counter()
    engine = b.call("query.sharded_start", ShardedQueryEngine, d,
                    SHARDED_ACTORS)
    if engine is None:
        raise RuntimeError("set-up failed: " + "; ".join(b.errors))
    b.layer["query.sharded_start_s"] = time.perf_counter() - t0
    b.store = DocStore(d)
    if b.trace:
        shards = sorted(int(n[len("shard-"):-len(".parquet")])
                        for n in os.listdir(os.path.join(d, "segments")))
        b.subsets = [IndexReader(d, shards=shards[i::SHARDED_ACTORS],
                                 use_global_df=True)
                     for i in range(SHARDED_ACTORS)]
    target = lambda kind: engine if kind == "sharded" else reader
    b.key_op = "bm25"
    try:
        warm = [b.query(target(k), k, t, timed=False) for k, t in pool]
        for (kind, toks), got in zip(pool, warm):
            ek = "bm25" if kind == "sharded" else kind
            b.expect(got is not None
                     and same_result(ek, got, oracle.expected(ek, toks)),
                     f"{kind} {toks} differs from oracle")
            if kind == "sharded":
                single = reader.bm25_topk(toks, 10)
                b.expect(got == single, f"sharded {toks} != single reader")
        del oracle
        last: dict[int, object] = {}
        # The speed probe runs after the single-reader block, before the
        # NEAR and sharded calls stir other processes and the caches.
        split = next(i for i, (kind, _) in enumerate(pool)
                     if CLASS[kind] in UNROUNDED)

        def window():
            for k in b.loop():
                i = k % len(pool)
                if i == split:
                    b.end_round()
                kind, toks = pool[i]
                last[i] = b.query(target(kind), kind, toks, req=k, op=i)

        b.run_window(window)
        for i, got in last.items():
            b.expect(got == warm[i], f"{pool[i]} changed during the window")
        b.named["reader_rss_mb"] = (rss_mb() - b.rss_before_open, "MiB", 1)
    finally:
        engine.shutdown()


def run_query_cold(b: Bench) -> None:
    """Every pass opens a fresh reader and uses each query term once, so
    the posting cache never hits: locate, decode and bounds do the work.
    Each set-up also deletes and compacts away ``COLD_DELETES`` ids, so the
    tombstone layer runs (and counts in ``setup_s``) here too."""
    corpus, table = b.write_corpus(vocab_size=50 * 2 * COLD_PAIRS)
    d, stats, _ = b.setups(corpus, table.num_rows, deletes=COLD_DELETES)
    oracle = Oracle(d)
    rng = random.Random(b.seed)
    df = oracle.df()
    ranked, _, _ = bands(df, stats["N"])
    # Every other term of the top-2% df band, so the pass's decode work
    # barely moves with the seed; each paired with a random tail term.
    band = ranked[:max(2 * COLD_PAIRS, len(ranked) // 50)][::2][:COLD_PAIRS]
    tail = [t for t in ranked if df[t] <= 3]
    pairs = zip(rng.sample(band, len(band)), pick(tail, len(band), rng))
    queries = [("bm25" if i % 3 else "AND", list(p))
               for i, p in enumerate(pairs)]
    expect = [oracle.expected(k, t) for k, t in queries]
    del oracle, df, ranked
    b.key_op = "bm25"
    grown: list[float] = []

    def window():
        for p in b.loop():
            rss0 = rss_mb()
            r = b.open(d, cls="open", req=p)
            for j, ((kind, toks), e) in enumerate(zip(queries, expect)):
                got = b.query(r, kind, toks, req=p, op=j)
                b.expect(got is not None and same_result(kind, got, e),
                         f"pass {p}: {kind} {toks} differs from oracle")
            b.end_round()
            grown.append(rss_mb() - rss0)
            del r

    b.run_window(window)
    b.named["reader_rss_mb"] = (statistics.median(grown), "MiB", len(grown))


def run_update(b: Bench) -> None:
    """Writes beside reads, in episodes: each copies the set-up index, runs
    ``UPDATE_CYCLES`` cycles of append (part already indexed), delete,
    reopen and probe, then compacts and probes again. Every episode does
    the same work, so the samples do not drift as the index would if one
    episode ran for the whole window."""
    corpus, table = b.write_corpus()
    base, stats, _ = b.setups(corpus, table.num_rows)
    rng = random.Random(b.seed)
    df = {}
    for f in os.listdir(os.path.join(base, "dictionary")):
        t = pq.read_table(os.path.join(base, "dictionary", f))
        df.update(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    _, tail, mid = bands(df, stats["N"])
    head = list(HEAD_TERMS)
    probes = [("bm25", rng.sample(head, 2)),
              ("bm25", [rng.choice(head)] + pick(tail, 1, rng)),
              ("AND", [rng.choice(head)] + pick(mid, 1, rng)),
              ("AND", pick(mid, 2, rng))]
    n_new, n_old = max(b.docs // 20, 5), max(b.docs // 50, 2)
    batches = []
    for k in range(UPDATE_CYCLES):
        old = table.take(rng.sample(range(table.num_rows), n_old))
        new = generate_corpus(n_new, seed=b.seed * 1000 + k + 1)
        path = b.dir("batch") + ".parquet"
        pq.write_table(pa.concat_tables([new, old.cast(new.schema)]), path)
        batches.append(path)
    rows_in = n_new + n_old
    b.key_op = "append"

    def episode(e: int) -> dict:
        d = b.dir("update")
        shutil.copytree(base, d)
        wrng = random.Random(b.seed)
        ep = {"dir": d, "live": list(range(1, stats["N"] + 1)),
              "dead": set(), "log": [], "added": [], "ok_rows": 0}
        live, dead = ep["live"], ep["dead"]
        for k, batch in enumerate(batches):
            req = f"{e}.{k}"
            st = b.call("build.append_documents", append_documents, d,
                        batch, CFG, cls="append", req=req, op=k)
            if st is not None:
                s = st["statuses"]
                ok = pc.equal(s["status"], "SUCCESS")
                new_ids = pc.filter(s["doc_id"], ok).to_pylist()
                b.expect(len(new_ids) < s.num_rows,
                         f"cycle {req}: no CONFLICT rows in a batch that "
                         "re-sends indexed content")
                live += new_ids
                ep["added"] += new_ids
                ep["ok_rows"] += len(new_ids)
            gone = wrng.sample(live, UPDATE_DELETES)
            dead.update(gone)
            live[:] = [x for x in live if x not in dead]
            b.call("tombstone.delete_docs", delete_docs, d, gone,
                   cls="delete", req=req, op=k)
            r = b.open(d, cls="reopen", req=req, op=k)
            if r is not None:
                ep["log"].append((
                    [b.query(r, kind, t, req=req, op=(k, j))
                     for j, (kind, t) in enumerate(probes)],
                    frozenset(dead)))
            b.end_round()
        ep["compact"] = b.call("tombstone.compact_index", compact_index, d,
                               cls="compact", req=e)
        ep["reader"] = r = b.open(d, req=e)
        ep["after"] = [b.query(r, kind, t, req=e, timed=False)
                       for kind, t in probes]
        _check_episode(b, probes, ep)
        return ep

    def window():
        ep = None
        for e in b.loop():
            if ep is not None:
                shutil.rmtree(ep["dir"], ignore_errors=True)
            ep = episode(e)
        d, live, dead = ep["dir"], ep["live"], ep["dead"]
        b.named["compacted_bytes_per_doc"] = (
            sum(index_bytes(d).values()) / len(live), "B/doc", 1)
        _check_update(b, ep["reader"], d, probes, ep["after"], live,
                      [x for x in ep["added"] if x not in dead])
        med = lambda cls: statistics.median(b.lat[cls] or [0.0])
        b.layer.update({
            "build.append_s": med("append") / 1e3,
            "build.append_success_ratio": (
                ep["ok_rows"] / (len(batches) * rows_in)),
            "tombstone.delete_ms": med("delete"),
            "tombstone.dead_docs": len(dead),
            "tombstone.compact_s": med("compact") / 1e3,
            "tombstone.compact_live_docs": (ep["compact"] or {}).get("N", 0),
        })
        n = len(b.lat["append"])
        b.named["append_docs_per_s"] = (
            rows_in * n / (sum(b.lat["append"]) / 1e3), "docs/s", n)

    b.run_window(window)


def _check_episode(b, probes, ep) -> None:
    """Deleted ids never come back; probes agree before and after
    compaction."""
    ids = lambda kind, res: [x[0] for x in res] if kind == "bm25" else res
    for results, gone in ep["log"]:
        for (kind, toks), res in zip(probes, results):
            b.expect(res is not None and not set(ids(kind, res)) & gone,
                     f"{kind} {toks} returned a deleted id")
    if ep["log"]:
        for (kind, toks), x, y in zip(probes, ep["log"][-1][0], ep["after"]):
            b.expect(x is not None and y is not None
                     and same_result(kind, x, y),
                     f"{kind} {toks} changed across compaction")


def _check_update(b, reader, d, probes, after, live, added) -> None:
    """The last episode's compacted index against the oracle: the docstore
    holds exactly the live ids, probes agree with the oracle, appended ids
    are searchable."""
    oracle = Oracle(d)
    b.expect(sorted(oracle.texts) == sorted(live),
             f"docstore holds {len(oracle.texts)} docs, expected {len(live)}")
    for (kind, toks), got in zip(probes, after):
        b.expect(got is not None
                 and same_result(kind, got, oracle.expected(kind, toks)),
                 f"{kind} {toks} differs from oracle after compaction")
    for doc in random.Random(b.seed).sample(added, min(5, len(added))):
        toks = tokenize(oracle.texts[doc])[:2]
        got = b.query(reader, "AND", toks, timed=False)
        b.expect(got is not None and doc in got,
                 f"appended doc {doc} not found by AND {toks}")


WORKLOADS = {
    "build": run_build,
    "query_hot": run_query_hot,
    "query_cold": run_query_cold,
    "update": run_update,
}
