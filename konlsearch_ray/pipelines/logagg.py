"""Search-log-style incremental aggregation + seq-ID assignment.

Maps the reference's append-only search log (reference log.py:22-47) and
its offset-checkpointed frequency aggregation (reference
inverted_index.py:121-128 — SURVEY.md A3/§2.9) onto an ordered ``events``
table: the offset is a high-water-mark timestamp; aggregation is a batch
groupby over rows past the offset. The reference's stale-offset double
count (SURVEY.md Q4) is deliberately fixed: the offset is an explicit
argument read fresh per run.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Count, Sum


class SearchLog:
    """Append-only search-token log (reference log.py:22-47).

    Buffered in memory per writer; ``flush()`` writes one immutable
    Parquet part. Keys mirror the reference's ``{ts}:{seq:04d}:{token}``
    scheme as typed columns: ``ts`` (epoch seconds), ``seq`` (per-second
    counter, reset each second — log.py:26-38), ``term``, ``hits``.
    Only non-empty-posting tokens get logged by the caller (Q7,
    inverted_index.py:108-109).
    """

    def __init__(self, log_dir: str, clock=time.time):
        self.log_dir = log_dir
        self._clock = clock
        self._buf: list[tuple[int, int, str, int]] = []
        self._last_sec = -1
        self._seq = 0
        os.makedirs(log_dir, exist_ok=True)

    def log(self, term: str, hits: int) -> None:
        """Append one entry. ``hits`` may be NEGATIVE — a frequency
        decrement (reference trie.py:190 ``decrease_frequency`` /
        counter.py:66 ``KonlCounter.decrease``): the aggregation folds
        it in, clamps the term's total at 0 and drops zeroed terms."""
        sec = int(self._clock())
        if sec != self._last_sec:
            self._last_sec, self._seq = sec, 0
        else:
            self._seq += 1
        self._buf.append((sec, self._seq, term, int(hits)))

    def flush(self) -> str | None:
        if not self._buf:
            return None
        t = pa.table({
            "ts": pa.array([r[0] for r in self._buf], pa.int64()),
            "seq": pa.array([r[1] for r in self._buf], pa.int32()),
            "term": pa.array([r[2] for r in self._buf], pa.string()),
            "hits": pa.array([r[3] for r in self._buf], pa.int64()),
        })
        name = f"log-{uuid.uuid4().hex[:12]}.parquet"
        tmp = os.path.join(self.log_dir, "." + name + ".tmp")
        pq.write_table(t, tmp)
        path = os.path.join(self.log_dir, name)
        os.replace(tmp, path)
        self._buf.clear()
        return path


def read_log_range(
    log_dir: str,
    ts_start: int | None = None,
    ts_end: int | None = None,
    seq_start: tuple[int, int] | None = None,
    seq_end: tuple[int, int] | None = None,
) -> pa.Table:
    """Time- or seq-cursor range reads over the search log (reference
    log.py:49-95): half-open on the end bound, ordered by (ts, seq).

    ``ts_*`` filter on epoch seconds; ``seq_*`` are (ts, seq) cursors —
    the reference's ``{ts}:{seq:04d}`` key order."""
    parts = [
        pq.read_table(os.path.join(log_dir, n))
        for n in sorted(os.listdir(log_dir)) if n.endswith(".parquet")
    ] if os.path.isdir(log_dir) else []
    if not parts:
        return pa.table({"ts": pa.array([], pa.int64()),
                         "seq": pa.array([], pa.int32()),
                         "term": pa.array([], pa.string()),
                         "hits": pa.array([], pa.int64())})
    t = pa.concat_tables(parts).sort_by([("ts", "ascending"), ("seq", "ascending")])
    ts = t["ts"].to_numpy()
    seq = t["seq"].to_numpy().astype(np.int64)
    keep = np.ones(len(ts), dtype=bool)
    if ts_start is not None:
        keep &= ts >= ts_start
    if ts_end is not None:
        keep &= ts < ts_end
    # Lexicographic (ts, seq) comparison — a composite ts*10^4+seq key
    # would overflow into the next second past 10,000 entries/sec (the
    # per-second seq is unbounded here, unlike the reference's :04d key).
    if seq_start is not None:
        a, b = seq_start
        keep &= (ts > a) | ((ts == a) & (seq >= b))
    if seq_end is not None:
        a, b = seq_end
        keep &= (ts < a) | ((ts == a) & (seq < b))
    return t.filter(pa.array(keep))


def log_cursors(log_dir: str) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First/last (ts, seq) cursor in the log (reference log.py:97-120);
    None when empty."""
    t = read_log_range(log_dir)
    if t.num_rows == 0:
        return None
    first = (int(t["ts"][0].as_py()), int(t["seq"][0].as_py()))
    last = (int(t["ts"][-1].as_py()), int(t["seq"][-1].as_py()))
    return first, last


def aggregate_search_frequency(log_dir: str, freq_dir: str) -> pa.Table:
    """Incremental per-term hit aggregation with an offset checkpoint.

    The reference drains the log from a persisted offset into per-token
    frequency counts (inverted_index.py:121-128, A3) but caches the
    offset at construction, double-counting on a second call in the same
    session (Q4). Fixed here: the offset (set of consumed log parts) is
    read fresh from the manifest every run, so re-running aggregates only
    new parts, exactly once. Returns the merged term→hits table.

    Exactly-once under crashes: the frequency table is written as a NEW
    versioned file and only becomes live when the manifest — which names
    both the consumed parts and the current frequency file — swaps in one
    ``os.replace``. A crash before the swap leaves the old manifest
    pointing at the old file with the old consumed set, so the rerun
    re-aggregates the same parts onto the same base (the orphaned new
    file is garbage-collected). The previous two-file commit (frequency
    first, manifest second) double-counted any part drained between the
    two replaces.
    """
    os.makedirs(freq_dir, exist_ok=True)
    manifest_path = os.path.join(freq_dir, "manifest.json")
    consumed: set[str] = set()
    cur_name: str | None = None
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        consumed = set(m["consumed"])
        cur_name = m.get("frequency_file", "frequency.parquet")
    # GC frequency files a crashed run wrote but never committed.
    for n in os.listdir(freq_dir):
        if (n.startswith("frequency") and n.endswith(".parquet")
                and n != cur_name):
            os.remove(os.path.join(freq_dir, n))
    parts = sorted(
        n for n in os.listdir(log_dir)
        if n.endswith(".parquet") and n not in consumed)
    if parts:
        new = (ray.data.read_parquet([os.path.join(log_dir, n) for n in parts])
               .groupby("term").aggregate(Sum("hits", alias_name="hits"))
               .to_pandas())
        if cur_name and os.path.exists(os.path.join(freq_dir, cur_name)):
            old = pq.read_table(os.path.join(freq_dir, cur_name)).to_pandas()
            new = (pd.concat([old, new], ignore_index=True)
                   .groupby("term", as_index=False)["hits"].sum())
        # Negative log entries are decrements (reference trie.py:190):
        # totals clamp at 0 per fold, and zeroed terms drop — the
        # reference's bounded counter likewise removes a key that
        # decrements to 0 (counter.py:66-80). Entries within one fold
        # sum before clamping (the reference clamps per call; the
        # difference only shows for a decrement that precedes its own
        # increment inside a single drain).
        new = new[new["hits"] > 0]
        new = new.sort_values("term").reset_index(drop=True)
        out = pa.table({"term": pa.array(new["term"], pa.string()),
                        "hits": pa.array(new["hits"].astype("int64"))})
        new_name = f"frequency-{uuid.uuid4().hex[:10]}.parquet"
        tmp = os.path.join(freq_dir, "." + new_name + ".tmp")
        pq.write_table(out, tmp)
        os.replace(tmp, os.path.join(freq_dir, new_name))  # not yet live
        tmp = manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"consumed": sorted(consumed | set(parts)),
                       "frequency_file": new_name}, f)
        os.replace(tmp, manifest_path)  # the single atomic commit point
        if cur_name and os.path.exists(os.path.join(freq_dir, cur_name)):
            os.remove(os.path.join(freq_dir, cur_name))
        cur_name = new_name
    if cur_name and os.path.exists(os.path.join(freq_dir, cur_name)):
        return pq.read_table(os.path.join(freq_dir, cur_name))
    return _EMPTY_FREQ


_EMPTY_FREQ = pa.table({"term": pa.array([], pa.string()),
                        "hits": pa.array([], pa.int64())})


def current_frequency_table(freq_dir: str) -> pa.Table:
    """The live committed term→hits table (no log drain)."""
    manifest_path = os.path.join(freq_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        return _EMPTY_FREQ
    with open(manifest_path) as f:
        m = json.load(f)
    cur = os.path.join(freq_dir, m.get("frequency_file", "frequency.parquet"))
    return pq.read_table(cur) if os.path.exists(cur) else _EMPTY_FREQ


def delete_frequency_terms(freq_dir: str, terms) -> pa.Table:
    """Remove tokens from the frequency table entirely — the parity of
    the reference's ``trie.delete`` → ``__delete_counter`` (trie.py:
    163-181, 219-230): when a token vanishes from the index (its last
    posting deleted), its suggest-frequency entry vanishes with it.

    Commits through the same single-atomic-manifest swap as
    ``aggregate_search_frequency`` (consumed-parts set unchanged), so a
    crash mid-delete leaves the old table live. Returns the new table.
    """
    manifest_path = os.path.join(freq_dir, "manifest.json")
    cur = current_frequency_table(freq_dir)
    terms = pa.array(list(terms), pa.string()) if not isinstance(
        terms, (pa.Array, pa.ChunkedArray)) else terms
    if not os.path.exists(manifest_path) or not cur.num_rows or not len(terms):
        return cur
    keep = pc.invert(pc.is_in(cur["term"], value_set=terms))
    if pc.all(keep).as_py():
        return cur
    out = cur.filter(keep)
    with open(manifest_path) as f:
        m = json.load(f)
    new_name = f"frequency-{uuid.uuid4().hex[:10]}.parquet"
    tmp = os.path.join(freq_dir, "." + new_name + ".tmp")
    pq.write_table(out, tmp)
    os.replace(tmp, os.path.join(freq_dir, new_name))  # not yet live
    old_name = m.get("frequency_file")
    m["frequency_file"] = new_name
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m, f)
    os.replace(tmp, manifest_path)  # the single atomic commit point
    if old_name and os.path.exists(os.path.join(freq_dir, old_name)):
        os.remove(os.path.join(freq_dir, old_name))
    return out


def aggregate_from_offset(
    events: ray.data.Dataset,
    offset_ts,
    key_col: str = "event_type",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Grouped hits/sum past the offset (reference A3 semantics).

    Pre-aggregation happens inside Ray's groupby combiner; keys here are
    low-cardinality so the exchange is tiny.
    """
    filtered = events.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(offset_ts))),
        batch_format="pyarrow",
    )
    return filtered.groupby(key_col).aggregate(
        Count(alias_name="hits"), Sum(value_col, alias_name="total")
    )


def assign_seq_ids(
    events: ray.data.Dataset, id_col: str = "event_id"
) -> ray.data.Dataset:
    """Per-second sequence IDs, mirroring the reference's ``{ts}:{seq:04d}``
    log-key scheme (reference log.py:26-38): seq restarts at 0 each second,
    ordered by ``id_col`` within the second (the deterministic stand-in for
    the reference's single-writer arrival order)."""

    def add_sec(t: pa.Table) -> pa.Table:
        sec = pc.cast(pc.floor(pc.divide(
            pc.cast(t["ts"], pa.int64()), 1_000_000)), pa.int64())
        return t.append_column("sec", sec)

    def per_second(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col).reset_index(drop=True)
        g["seq"] = np.arange(len(g), dtype=np.int64)
        return g[[id_col, "sec", "seq"]]

    from konlsearch_ray.functions.blocks import arrow_schema, keyed_fold

    fallback = pa.table({
        id_col: pa.array([], arrow_schema(events).field(id_col).type),
        "sec": pa.array([], pa.int64()),
        "seq": pa.array([], pa.int64())})
    return keyed_fold(events.map_batches(add_sec, batch_format="pyarrow"),
                      "sec", per_second, fallback=fallback,
                      batch_format="pandas")
