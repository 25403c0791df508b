"""konlsearch_ray/segment.py is the only module that knows the shard
segment format: the guards below keep its column names, directory,
codec calls and layout version from leaking back into other modules,
and keep a query's cold posting decode to one codec call."""

import ast
import re
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "konlsearch_ray"


def _hits(pattern: str) -> list[tuple[str, int]]:
    rx = re.compile(pattern)
    return [(p.relative_to(PKG).as_posix(), i)
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if rx.search(line)]


def test_segment_columns_only_in_segment_and_codec():
    hits = _hits(r"doc_ids_bin|tfs_bin|pos_bin|pos_rest_bin|block_max_tf"
                 r"|block_last_doc|SEGMENT_SCHEMA")
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


def _ray_callers(name: str) -> set[str]:
    """The functions of ``konlsearch_ray/<name>`` that start a Ray task
    (``….remote(``) or wait on one (``ray.get(``), innermost first."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            f = getattr(child, "func", None)
            if isinstance(f, ast.Attribute) and (
                    f.attr == "remote" or (
                        f.attr == "get" and isinstance(f.value, ast.Name)
                        and f.value.id in ("ray", "_ray"))):
                found.add(fn)
            visit(child, fn)

    visit(ast.parse((PKG / name).read_text()), None)
    return found


def test_per_shard_jobs_fan_out_only_through_run_per_shard():
    # The build's postings phase, compaction and merge reach Ray only
    # through segment.run_per_shard, never through a Dataset pipeline
    # over shard numbers or an actor pool of their own.
    assert not {f for f, _ in _hits(r"from_items")} & {
        "build.py", "tombstone.py", "merge.py"}
    assert _hits(r"ShardBuildStage|tokenizer_actors|tokenize_concurrency") \
        == []
    assert _ray_callers("segment.py") == {"run_per_shard"}
    assert _ray_callers("tombstone.py") == set()
    assert _ray_callers("merge.py") == set()
    # build.py keeps the docs phase's per-block waves (light keys, tie
    # candidates, block shards, ids, splits) and the docstore writer,
    # whose per-shard tasks take the split pieces as task arguments.
    assert _ray_callers("build.py") == {
        "_light_wave", "_tie_winners", "_id_blocks", "_write_docstore",
        "_sorted_dedup_ids", "_match"}


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.corpus import write_corpus

    root = tmp_path_factory.mktemp("segment")
    corpus = write_corpus(str(root / "corpus"), 600, seed=42)
    build_index(corpus, str(root / "index"), IndexConfig(shard_size=128))
    return str(root / "index")


def test_one_posting_decode_per_cold_query(index_dir, monkeypatch):
    """A query's cold terms decode in ONE ``decode_postings`` call across
    all their shards; a warm repeat decodes nothing."""
    from konlsearch_ray import segment
    from konlsearch_ray.query import IndexReader

    calls = []
    real = segment.decode_postings

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(segment, "decode_postings", counted)
    queries = {
        "bm25": lambda r: r.bm25_topk(["def", "마법"], 10),
        "and": lambda r: r.search(["def", "return", "import"], "AND"),
    }
    for name, query in queries.items():
        r = IndexReader(index_dir)
        calls.clear()
        assert query(r), name
        assert len(calls) == 1, name
        assert len(r._store.entry("def").locs) > 1  # cells in several shards
        calls.clear()
        query(r)
        assert calls == [], name


@pytest.mark.parametrize("layout_file", ["stats.json", "index_meta.json"])
def test_layout_version_guard(index_dir, tmp_path, layout_file):
    """An index whose stats.json or index_meta.json records another
    layout version is refused, naming both versions, by every reader
    open and every writer — before any of them touches a file."""
    import json
    import shutil

    from konlsearch_ray.build import append_documents, build_index
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.merge import merge_indexes
    from konlsearch_ray.query import IndexReader
    from konlsearch_ray.segment import FORMAT_VERSION
    from konlsearch_ray.tombstone import compact_index

    assert FORMAT_VERSION == 3
    with open(f"{index_dir}/stats.json") as f:
        assert json.load(f)["version"] == 3
    old = str(tmp_path / "old")
    shutil.copytree(index_dir, old)
    path = f"{old}/{layout_file}"
    with open(path) as f:
        doc = json.load(f)
    doc["version"] = 2
    with open(path, "w") as f:
        json.dump(doc, f)
    before = {n: Path(old, n).read_text()
              for n in ("stats.json", "index_meta.json")}
    more = write_corpus(str(tmp_path / "more"), 5, seed=3)
    calls = {
        "open": lambda: IndexReader(old),
        "append": lambda: append_documents(old, more),
        "resume": lambda: build_index(more, old),
        "compact": lambda: compact_index(old),
        "merge": lambda: merge_indexes([index_dir, old],
                                       str(tmp_path / "m"), remap_ids=True),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="version 2, expected 3"):
            call()
        assert {n: Path(old, n).read_text() for n in before} == before, name
    assert not (tmp_path / "m").exists()


@pytest.fixture(scope="module")
def store_indexes(ray_session, tmp_path_factory):
    """One corpus in 64-doc shards: as built; every 7th doc tombstoned;
    and those deletes compacted away."""
    import shutil

    from konlsearch_ray.build import IndexConfig, build_index
    from konlsearch_ray.corpus import write_corpus
    from konlsearch_ray.tombstone import compact_index, delete_docs

    root = tmp_path_factory.mktemp("store")
    corpus = write_corpus(str(root / "corpus"), 400, seed=17)
    built, tomb, comp = (str(root / n) for n in ("built", "tomb", "comp"))
    build_index(corpus, built, IndexConfig(shard_size=64))
    shutil.copytree(built, tomb)
    delete_docs(tomb, list(range(2, 401, 7)))
    shutil.copytree(tomb, comp)
    compact_index(comp)
    return {"built": built, "tomb": tomb, "comp": comp}


def _per_shard_reference(index_dir: str, shards: list[int],
                         dead) -> dict:
    """term → (ids, tfs, first positions, every position, block maxima,
    block counts), decoded shard by shard with ``decode_segment`` and
    concatenated in shard order, tombstoned postings dropped (block
    bounds stay per stored block)."""
    import numpy as np
    import pyarrow.parquet as pq

    from konlsearch_ray.codec import BLOCK_SIZE
    from konlsearch_ray.segment import decode_segment, segment_path

    parts: dict = {}
    for s in shards:
        seg = pq.read_table(segment_path(index_dir, s))
        df, ids, tfs, first, rest = decode_segment(seg)
        ends = np.cumsum(df)
        rest_end = np.cumsum(tfs.astype(np.int64) - 1)
        for i, (t, bmax) in enumerate(zip(seg["term"].to_pylist(),
                                          seg["block_max_tf"].to_pylist())):
            a, b = int(ends[i] - df[i]), int(ends[i])
            live = ~np.isin(ids[a:b], dead)
            allpos = [np.cumsum(np.concatenate((
                [first[j]], rest[rest_end[j] - (tfs[j] - 1):rest_end[j]])))
                for j in range(a, b) if live[j - a]]
            nb = len(bmax)
            counts = [BLOCK_SIZE] * (nb - 1) + (
                [int(df[i]) - BLOCK_SIZE * (nb - 1)] if nb else [])
            parts.setdefault(t, []).append(
                (ids[a:b][live], tfs[a:b][live], first[a:b][live],
                 allpos, bmax, counts))
    return {t: tuple(
        np.concatenate([x for p in ps for x in (p[3] if k == 3 else [p[k]])]
                       + [np.zeros(0, np.int64)])
        for k in range(6)) for t, ps in parts.items()}


@pytest.mark.parametrize("name", ["built", "tomb", "comp"])
@pytest.mark.parametrize("subset", [False, True])
def test_store_equals_per_shard_decode(store_indexes, name, subset):
    """The term-sorted store gives every term the entry a per-shard
    ``decode_segment`` of the same cells gives: live ids and tfs, block
    bounds, first positions and all positions; and the term's cells are
    one contiguous range of the store's term-sorted rows, one row per
    shard holding it. Whole-index readers and a shard-subset ``use_global_df`` reader."""
    import numpy as np

    from konlsearch_ray.query import IndexReader
    from konlsearch_ray.segment import shard_nums
    from konlsearch_ray.tombstone import load_tombstones

    d = store_indexes[name]
    shards = shard_nums(d)
    assert len(shards) >= 6
    if subset:
        shards = shards[1:4]
    r = (IndexReader(d, shards=shards, use_global_df=True) if subset
         else IndexReader(d))
    dead = load_tombstones(d)
    assert (len(dead) > 0) == (name == "tomb")
    ref = _per_shard_reference(d, shards, dead)
    store = r._store
    terms = sorted(ref)
    entries = store.entries(terms)
    allpos = store.positions(terms)
    keys = store.keys
    cells = _cells(d, shards)
    assert len(keys) == len(store.term_column) == sum(
        len(c) for c in cells.values())
    masked = 0
    for t, e, ap in zip(terms, entries, allpos):
        ids, tfs, first, every, bmax, counts = ref[t]
        assert np.array_equal(e.ids, ids) and np.array_equal(e.tfs, tfs), t
        masked += e.live is not None
        got_first = store.postings(t)[2]
        assert np.array_equal(got_first, first), t
        assert np.array_equal(ap, every), t
        store.bounds(e)
        assert np.array_equal(e.bmax, bmax), t
        assert np.array_equal(e.bcount, counts), t
        rows = e.locs
        assert rows.step == 1 and len(rows) == len(cells[t]), t
        tb = t.encode()
        assert set(keys[rows.start:rows.stop].tolist()) == {tb}, t
        assert rows.start == 0 or keys[rows.start - 1] != tb, t
        assert rows.stop == len(keys) or keys[rows.stop] != tb, t
    assert masked == 0 or name == "tomb"
    if name == "tomb":
        assert masked > 10
    missing = store.entry("zzz-not-a-stored-term")
    assert len(missing.locs) == 0 and len(missing.ids) == 0


def _cells(index_dir: str, shards: list[int]) -> dict:
    """term → the shards whose segment holds it."""
    import pyarrow.parquet as pq

    from konlsearch_ray.segment import segment_path

    out: dict = {}
    for s in shards:
        for t in pq.read_table(segment_path(index_dir, s),
                               columns=["term"])["term"].to_pylist():
            out.setdefault(t, []).append(s)
    return out
