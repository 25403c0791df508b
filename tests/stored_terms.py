"""Vocabulary samples for tests: the first stored terms of a reader's
shards, read from their segment files."""

import pyarrow.parquet as pq

from konlsearch_ray.segment import segment_path, shard_nums


def sample_terms(reader, n: int) -> list[str]:
    """First ``n`` stored terms of ``reader``'s shards in segment order:
    shard by shard, ascending, each segment's terms in its row order (a
    term held by several shards repeats)."""
    out: list[str] = []
    for s in shard_nums(reader.index_dir):
        if len(out) >= n:
            break
        if reader.shards is None or s in reader.shards:
            col = pq.read_table(segment_path(reader.index_dir, s),
                                columns=["term"])["term"]
            out.extend(col.slice(0, n - len(out)).to_pylist())
    return out
