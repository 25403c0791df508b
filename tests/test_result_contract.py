"""The id-result contract: every id-returning public method of
``IndexReader`` and ``ShardedQueryEngine`` returns a ``list`` of Python
``int`` in strictly ascending order, equal to ``konlsearch_ray.oracle``;
``QueryStage`` keeps typed, per-qid ranked columns; and the reader and docstore never box ids one at a time."""

import random
import re
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from konlsearch_ray.analyzer import normalize_query_tokens
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import HEAD_TERMS, write_corpus
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.oracle import build_oracle
from konlsearch_ray.query import IndexReader, ShardedQueryEngine
from konlsearch_ray.tombstone import delete_docs

PKG = Path(__file__).resolve().parent.parent / "konlsearch_ray"
MISSING = ["zzqxmissing", "qqqnotaterm"]


def _oracle(idx):
    t = DocStore(idx).get_all()
    return build_oracle(dict(zip(t["doc_id"].to_pylist(),
                                 t["content"].to_pylist())))


def _solo_docs(schema: pa.Schema, n: int) -> pa.Table:
    """``n`` docs that each hold a term no other doc has (the generated
    corpus has no term with df below 5), beside head terms."""
    words = [f"soloterm{chr(97 + i // 26)}{chr(97 + i % 26)}"
             for i in range(n)]
    cols = {f.name: [f"solo/{w}" for w in words] for f in schema}
    cols["content"] = [f"def {w} return import self" for w in words]
    return pa.table(cols, schema=schema)


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """A ~3,000-doc index (head-term ANDs return thousands of ids, 40
    terms hold one doc each) and a copy with a seeded tenth of its docs
    tombstoned."""
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("contract")
    part = str(Path(write_corpus(str(root / "c"), 3000, seed=23))
               / "part-00000.parquet")
    solo = str(root / "solo.parquet")
    pq.write_table(_solo_docs(pq.read_schema(part), 40), solo)
    idx = str(root / "plain")
    n = build_index([part, solo], idx, IndexConfig(shard_size=500))["N"]
    tomb = str(root / "tomb")
    shutil.copytree(idx, tomb)
    delete_docs(tomb, random.Random(4).sample(range(1, n + 1), n // 10))
    return idx, tomb


@pytest.fixture(scope="module")
def engine(indexes):
    eng = ShardedQueryEngine(indexes[0], num_actors=3)
    yield eng
    eng.shutdown()


def _check(ids):
    assert type(ids) is list
    assert all(type(x) is int for x in ids)
    assert all(a < b for a, b in zip(ids, ids[1:]))
    return ids


def _calls(tail: str, rare: str):
    """One call of every id-returning public method, keyed by name."""
    both = ["def", tail]
    return {
        "search AND": lambda s: s.search(["def", "return"], "AND"),
        "search OR": lambda s: s.search(both, "OR"),
        "search PHRASE": lambda s: s.search(["import", "self"], "PHRASE"),
        "complex AND": lambda s: s.search_complex(
            ((["def"], "AND"), ([tail, rare], "OR"), "AND")),
        "complex OR": lambda s: s.search_complex(
            ((["import"], "AND"), ([rare], "AND"), "OR")),
        "complex ANDNOT": lambda s: s.search_complex(
            ((["def"], "AND"), (["return"], "AND"), "ANDNOT")),
        "min_should": lambda s: s.search_min_should(
            ["def", "return", tail], 2),
        "near": lambda s: s.search_near(["def", "return"], slop=3),
        "near ordered": lambda s: s.search_near(["def", "return"], slop=3,
                                                ordered=True),
        # Expansions stay under the cap, where the sharded engine's
        # per-actor expansion equals the single reader's.
        "prefix": lambda s: s.search_prefix(tail[:-1]),
        "contains": lambda s: s.search_contains(tail[1:]),
        "regex": lambda s: s.search_regex("^" + tail[:-1]),
    }


def test_every_id_method_returns_ascending_python_ints(indexes, engine):
    reader = IndexReader(indexes[0])
    oracle = _oracle(indexes[0])
    by_df = sorted((t for t in oracle.postings if t not in HEAD_TERMS),
                   key=lambda t: (-len(oracle.postings[t]), t))
    tail, rare = by_df[20], by_df[-1]
    for name, call in _calls(tail, rare).items():
        got = _check(call(reader))
        assert _check(call(engine)) == got, name
    # Head-term results are large, so the contract is checked at scale.
    assert len(reader.search(["def", "return"], "AND")) > 1000


def _shape(reader, toks):
    """Which probe-intersection edge cases an AND over ``toks`` hits."""
    norm = normalize_query_tokens(toks)
    lists = sorted((reader.postings_scores(t)[0] for t in norm), key=len)
    out = set()
    if any(not len(ids) for ids in lists):
        out.add("empty")
    if any(len(ids) == 1 for ids in lists):
        out.add("single")
    if len(lists) > 1 and len(lists[0]) and len(lists[1]) \
            and lists[0][-1] > lists[1][-1]:
        out.add("past_end")
    if len(set(norm)) < len(norm):
        out.add("repeat")
    if any(t in MISSING for t in norm):
        out.add("missing")
    return out


@pytest.mark.parametrize("which", ["plain", "tomb"])
def test_seeded_sweep_matches_oracle(indexes, which):
    """2,000 seeded queries per reader, equal to the oracle, covering the
    probe-intersection edge cases: an empty list on either side, one-entry
    lists, probes past the longer list's last id, repeated tokens and a
    term missing from the vocabulary."""
    idx = indexes[0] if which == "plain" else indexes[1]
    reader, oracle = IndexReader(idx), _oracle(idx)
    vocab = sorted(oracle.postings)
    single = [t for t in vocab if len(oracle.postings[t]) == 1]
    common = [t for t in vocab if len(oracle.postings[t]) >= 30]
    pools = [HEAD_TERMS, single, common, vocab, MISSING]
    rng = random.Random(1000 + (which == "tomb"))
    seen: dict[str, int] = {}
    for i in range(2000):
        toks = [rng.choice(rng.choice(pools))
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.15:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(toks))
        mode = ("AND", "AND", "OR", "PHRASE")[i % 4]
        got = _check(reader.search(toks, mode))
        assert got == oracle.search(toks, mode), (toks, mode)
        if mode == "AND":
            for case in _shape(reader, toks):
                seen[case] = seen.get(case, 0) + 1
        if i % 10 == 0:
            m = rng.randint(1, 3)
            assert _check(reader.search_min_should(toks, m)) == \
                oracle.search_min_should(toks, m), (toks, m)
            left, right = toks[:1], toks[1:] or ["def"]
            for op in ("AND", "OR", "ANDNOT"):
                tree = ((left, "AND"), (right, mode), op)
                lset = set(oracle.search(left, "AND"))
                rset = set(oracle.search(right, mode))
                want = sorted(lset - rset) if op == "ANDNOT" else \
                    oracle.search_complex(tree)
                assert _check(reader.search_complex(tree)) == want, tree
    for case in ("empty", "single", "past_end", "repeat", "missing"):
        assert seen.get(case, 0) >= 20, (case, seen)


def test_batched_entries_equal_one_term_entries(indexes):
    """``PostingStore.entries`` decodes a batch of cold terms in one pass;
    every term must get the entry a one-term decode on a fresh reader
    gives it, and the oracle's postings. On the tombstoned index a
    batch's terms share doc ids, so the tombstone mask must probe the
    dead ids once per posting: an ``isin`` that assumes unique ids
    silently drops shared live postings (on small batches, where numpy
    sorts instead of building a lookup table). Batches: two small terms
    that share docs, with a repeated, a missing, an empty and an
    over-long term (the longest stored term plus one byte, which a
    fixed-width key array truncates back to a stored term); then three
    head terms whose lists the tombstones cut."""
    idx = indexes[1]
    batch, solo, oracle = IndexReader(idx), IndexReader(idx), _oracle(idx)
    post = oracle.postings
    small = sorted(t for t in post if 5 <= len(post[t]) <= 40)
    pair = next([a, b] for i, a in enumerate(small) for b in small[i + 1:]
                if set(post[a]) & set(post[b]))
    keys = batch._store.keys
    longest = keys[np.char.str_len(keys).argmax()].decode("utf-8")
    assert len(longest.encode("utf-8")) == keys.dtype.itemsize
    masked = 0
    for terms in (pair + [pair[0], MISSING[0], "", longest + "z", longest],
                  ["def", "return", "import"]):
        got = batch._store.entries(terms)
        for t, e in zip(terms, got):
            assert e is batch._store.entries([t])[0], t
            want = solo._store.entry(t)
            assert e.locs == want.locs, t
            assert np.array_equal(e.ids, want.ids), t
            assert np.array_equal(e.tfs, want.tfs), t
            assert (e.live is None) == (want.live is None), t
            if e.live is not None:
                masked += 1
                assert np.array_equal(e.live, want.live), t
            assert e.maxtf == want.maxtf, t
            exp = post.get(t, {})
            assert dict(zip(e.ids.tolist(), e.tfs.tolist())) == exp, t
            for a, b in zip(batch.postings(t), solo.postings(t)):
                assert np.array_equal(a, b), t
    assert masked >= 3  # the tombstones really cut the head terms
    # ``locs`` is the term's range of the store's term-sorted rows:
    # one row per segment holding it, none for these three.
    no_cells = [len(batch._store.entry(t).locs)
                for t in (MISSING[0], "", longest + "z")]
    assert no_cells == [0, 0, 0] and len(batch._store.entry(longest).locs)


def _batch():
    return pa.table({
        "qid": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "tokens": pa.array(
            [["def", "return"], ["zzqxmissing", "def"], ["import", "self"],
             ["def", "class"], ["def", "return", "class"]],
            pa.list_(pa.string())),
        "mode": pa.array(["AND", "AND", "PHRASE", "BM25", "MSM"]),
        "k": pa.array([0, 0, 0, 10, 2], pa.int64()),
    })


def _expected(reader):
    return {10: reader.search(["def", "return"], "AND"), 11: [],
            12: reader.search(["import", "self"], "PHRASE"),
            13: [d for d, _ in reader.bm25_topk(["def", "class"], 10)],
            14: reader.search_min_should(["def", "return", "class"], 2)}


def _assert_stage_rows(t: pa.Table, want: dict, reader):
    assert t.schema.field("qid").type == pa.int64()
    assert t.schema.field("doc_id").type == pa.int64()
    assert t.schema.field("rank").type == pa.int64()
    assert t.schema.field("score").type == pa.float64()
    t = t.sort_by([("qid", "ascending"), ("rank", "ascending")])
    q = t["qid"].to_numpy()
    assert set(q.tolist()) <= set(want)
    for qid, docs in want.items():
        rows = t.filter(pa.array(q == qid))
        assert rows["doc_id"].to_pylist() == docs, qid
        assert rows["rank"].to_pylist() == list(range(len(docs))), qid
        if qid != 13:
            assert not rows["score"].to_numpy().any(), qid
    bm25 = t.filter(pa.array(q == 13))["score"].to_pylist()
    assert bm25 == [s for _, s in reader.bm25_topk(["def", "class"], 10)]


def test_query_stage_builds_typed_ranked_columns(indexes):
    """One batch mixing a head-term AND with thousands of hits, an
    all-miss query, a PHRASE, a BM25 and an MSM query: the in-process
    stage keeps query order then hit order, and the whole-index stage and
    the sharded pipeline both equal the single reader."""
    import ray
    import ray.data as rd

    from konlsearch_ray.query import QueryStage, sharded_query_pipeline

    idx = indexes[0]
    reader = IndexReader(idx)
    want = _expected(reader)
    assert len(want[10]) > 1000 and want[12] and want[14]
    direct = QueryStage(idx)(_batch())
    assert direct["qid"].to_pylist() == [
        q for q in want for _ in want[q]]
    _assert_stage_rows(direct, want, reader)
    partial = QueryStage(idx, shards=[0, 1], partial=True)(_batch())
    assert partial.schema.field("mode").type == pa.string()
    assert partial.schema.field("k").type == pa.int64()
    whole = rd.from_arrow(_batch()).map_batches(
        QueryStage, fn_constructor_kwargs={"index_dir": idx},
        batch_format="pyarrow", concurrency=1)
    sharded = sharded_query_pipeline(idx, rd.from_arrow(_batch()),
                                     num_subsets=2)
    for ds in (whole, sharded):
        t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        _assert_stage_rows(t.select(["qid", "doc_id", "rank", "score"]),
                           want, reader)


def test_reader_and_docstore_do_not_box_ids_one_at_a_time():
    # Ids stay int64 arrays inside the reader and the docstore; the public
    # edge converts with one ``.tolist()``.
    boxing = re.compile(r"\bint\((\w+)\) for \1 in\b")
    hits = [(name, i)
            for name in ("query.py", "docstore.py")
            for i, line in enumerate(
                (PKG / name).read_text().splitlines(), 1)
            if boxing.search(line)]
    assert hits == [], hits
