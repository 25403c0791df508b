"""konlsearch_ray/segment.py is the only module that knows the shard
segment format: the guards below keep its column names, directory,
codec calls and layout version from leaking back into other modules."""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "konlsearch_ray"


def _hits(pattern: str) -> list[tuple[str, int]]:
    rx = re.compile(pattern)
    return [(p.relative_to(PKG).as_posix(), i)
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if rx.search(line)]


def test_segment_columns_only_in_segment_and_codec():
    hits = _hits(r"doc_ids_bin|tfs_bin|pos_bin|block_max_tf|block_last_doc"
                 r"|SEGMENT_SCHEMA")
    assert {f for f, _ in hits} == {"segment.py", "codec.py"}, hits


def test_segments_dir_only_in_segment():
    hits = _hits(r"[\"']segments[\"']")
    assert {f for f, _ in hits} == {"segment.py"}, hits


def test_posting_codec_called_only_from_segment():
    # codec.py defines the two functions; only segment.py calls them.
    hits = _hits(r"(?<!def )\b(encode_postings_grouped|decode_postings)\(")
    assert {f for f, _ in hits} == {"segment.py"}, hits


def test_index_layout_version_is_one_constant():
    # functions/similarity.py versions its own IVF store file, which is
    # not part of the index layout.
    hits = _hits(r"[\"']version[\"']:\s*\d")
    assert [f for f, _ in hits] == ["functions/similarity.py"], hits


def test_segment_imports_no_ray_at_module_scope():
    # query.py imports segment.py and must stay importable without ray.
    hits = _hits(r"^(import|from) ray\b")
    assert "segment.py" not in {f for f, _ in hits}, hits
