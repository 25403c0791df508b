"""konlsearch_ray — a from-scratch Ray-Data-native inverted-index + BM25 engine.

Re-expresses the capabilities of the reference engine (handrake/KonlSearch,
an embedded RocksDB per-document posting store — see SURVEY.md) as streaming
``ray.data.Dataset`` pipelines:

- docs ingest (content hash, dedup, dense doc ids) as a streamed read
  of Arrow blocks, each block routed straight to its doc-range shard,
- posting-list construction with NO shuffle: the docstore is physically
  partitioned by doc-range shard, and each shard tokenizes + delta-gap /
  varint-encodes independently, in plain Ray tasks (one per CPU, each
  building a pluggable analyzer once),
- query serving (AND/OR/PHRASE/complex boolean + BM25 top-k with block-max
  MaxScore pruning) from immutable Parquet segment files via a read-only
  actor pool,
- per-shard manifests with lineage + counters for checkpoint/resume,
- tombstone deletes with segment-rewrite compaction, docstore point/range
  reads, jamo suggestions, search-log analytics, dedup/similarity/text
  training-data operators (``functions/``, ``pipelines/``).

Nothing here calls ``ray.init()`` / ``ray.shutdown()`` — sessions are owned
by the caller (driver, bench.py, or the pytest fixture).
"""

from konlsearch_ray.analyzer import tokenize, sanitize, analyze_batch
from konlsearch_ray.build import IndexConfig, append_documents, build_index
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.query import IndexReader, SearchMode, QueryStage
from konlsearch_ray.tombstone import compact_index, delete_docs

__all__ = [
    "tokenize",
    "sanitize",
    "analyze_batch",
    "IndexConfig",
    "build_index",
    "append_documents",
    "IndexReader",
    "SearchMode",
    "QueryStage",
    "DocStore",
    "delete_docs",
    "compact_index",
]
