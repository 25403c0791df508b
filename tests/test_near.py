"""Proximity (NEAR/slop) search vs a brute-force span oracle.

Semantics under test (query.py search_near): doc matches iff there exist
per-term positions in its kept ordered token stream whose span
(max − min) is ≤ slop — i.e. some window of slop+1 consecutive positions
contains every distinct query term.
"""

import itertools

import pytest

from konlsearch_ray.analyzer import tokenize
from konlsearch_ray.build import IndexConfig, build_index
from konlsearch_ray.corpus import write_corpus
from konlsearch_ray.docstore import DocStore
from konlsearch_ray.query import IndexReader

N_DOCS = 300
SHARD_SIZE = 64


@pytest.fixture(scope="module")
def near_built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("konl_near")
    corpus_dir = write_corpus(str(root / "corpus"), N_DOCS, seed=7)
    index_dir = str(root / "index")
    build_index(corpus_dir, index_dir,
                IndexConfig(shard_size=SHARD_SIZE, tokenize_batch_size=64))
    reader = IndexReader(index_dir)
    store = DocStore(index_dir)
    all_rows = store.get_all()
    docs = dict(zip(all_rows["doc_id"].to_pylist(),
                    all_rows["content"].to_pylist()))
    return reader, docs, index_dir


def brute_near(docs: dict, terms: list[str], slop: int) -> list[int]:
    tset = sorted(set(terms))
    out = []
    for doc_id, content in docs.items():
        stream = tokenize(content)
        pos = {t: [i for i, x in enumerate(stream) if x == t] for t in tset}
        if any(not p for p in pos.values()):
            continue
        best = min(
            (max(combo) - min(combo)
             for combo in itertools.product(*(pos[t] for t in tset))),
            default=None)
        if best is not None and best <= slop:
            out.append(doc_id)
    return sorted(out)


def pick_terms(docs: dict, k: int = 2) -> list[str]:
    """Two terms that co-occur in a decent number of docs."""
    from collections import Counter

    df = Counter()
    for content in docs.values():
        df.update(set(tokenize(content)))
    common = [t for t, _ in df.most_common(8)]
    return common[:k]


def test_near_matches_bruteforce(near_built):
    reader, docs, _ = near_built
    terms = pick_terms(docs, 2)
    for slop in (1, 2, 5, 20):
        got = reader.search_near(terms, slop=slop)
        want = brute_near(docs, terms, slop)
        assert got == want, (terms, slop)


def test_near_three_terms(near_built):
    reader, docs, _ = near_built
    terms = pick_terms(docs, 3)
    for slop in (2, 4, 12):
        got = reader.search_near(terms, slop=slop)
        assert got == brute_near(docs, terms, slop), (terms, slop)


def test_near_widening_monotone_to_and(near_built):
    """slop → ∞ converges to plain AND; results grow monotonically."""
    reader, docs, _ = near_built
    terms = pick_terms(docs, 2)
    prev = set()
    for slop in (0, 1, 3, 9, 10_000):
        cur = set(reader.search_near(terms, slop=slop))
        assert prev <= cur
        prev = cur
    assert sorted(prev) == reader.search(terms, "AND")


def test_near_single_and_missing_terms(near_built):
    reader, docs, _ = near_built
    (t,) = pick_terms(docs, 1)
    assert reader.search_near([t], slop=0) == reader.search([t], "AND")
    assert reader.search_near(["qqqzzz", t], slop=50) == []
    assert reader.search_near([], slop=3) == []
    with pytest.raises(ValueError):
        reader.search_near([t], slop=-1)


def test_near_duplicate_query_tokens(near_built):
    """Duplicate/denormalized query tokens collapse to the distinct set."""
    reader, docs, _ = near_built
    terms = pick_terms(docs, 2)
    got = reader.search_near([terms[0].upper(), terms[1], terms[0]], slop=4)
    assert got == reader.search_near(terms, slop=4)


def test_near_sharded_parity(near_built):
    from konlsearch_ray.query import ShardedQueryEngine

    reader, docs, index_dir = near_built
    terms = pick_terms(docs, 2)
    eng = ShardedQueryEngine(index_dir, num_actors=3)
    try:
        for slop in (1, 6):
            for ordered in (False, True):
                assert (eng.search_near(terms, slop=slop, ordered=ordered)
                        == reader.search_near(terms, slop=slop,
                                              ordered=ordered))
    finally:
        eng.shutdown()


def brute_near_ordered(docs: dict, terms: list[str], slop: int) -> list[int]:
    out = []
    for doc_id, content in docs.items():
        stream = tokenize(content)

        def ok_from(start_positions):
            for p1 in start_positions:
                cur = p1
                good = True
                for t in terms[1:]:
                    nxt = [i for i, x in enumerate(stream)
                           if x == t and i > cur]
                    if not nxt:
                        good = False
                        break
                    cur = nxt[0]
                if good and cur - p1 <= slop:
                    return True
            return False

        starts = [i for i, x in enumerate(stream) if x == terms[0]]
        if starts and ok_from(starts):
            out.append(doc_id)
    return sorted(out)


def test_near_ordered_matches_bruteforce(near_built):
    reader, docs, _ = near_built
    terms = pick_terms(docs, 2)
    for slop in (1, 3, 8):
        got = reader.search_near(terms, slop=slop, ordered=True)
        assert got == brute_near_ordered(docs, terms, slop), (terms, slop)
    # Reversed query order is a different ordered query.
    rev = reader.search_near(terms[::-1], slop=3, ordered=True)
    assert rev == brute_near_ordered(docs, terms[::-1], 3)
    # Ordered is a subset of unordered at equal slop.
    assert (set(reader.search_near(terms, slop=4, ordered=True))
            <= set(reader.search_near(terms, slop=4)))


def test_near_ordered_three_terms_and_duplicates(near_built):
    reader, docs, _ = near_built
    terms = pick_terms(docs, 3)
    for slop in (3, 10):
        assert (reader.search_near(terms, slop=slop, ordered=True)
                == brute_near_ordered(docs, terms, slop))
    # Duplicate query term needs two distinct occurrences in order.
    t = pick_terms(docs, 1)[0]
    dup = reader.search_near([t, t], slop=5, ordered=True)
    assert dup == brute_near_ordered(docs, [t, t], 5)


def test_querystage_near_modes(near_built):
    import pyarrow as pa
    import ray.data

    from konlsearch_ray.query import QueryStage, sharded_query_pipeline

    reader, docs, index_dir = near_built
    terms = pick_terms(docs, 2)
    qt = pa.table({
        "qid": pa.array([1, 2], pa.int64()),
        "tokens": pa.array([terms, terms], pa.list_(pa.string())),
        "mode": pa.array(["NEAR", "ONEAR"]),
        "k": pa.array([4, 4], pa.int64()),  # slop for proximity modes
    })
    got = (ray.data.from_arrow(qt)
           .map_batches(QueryStage, fn_constructor_kwargs={
               "index_dir": index_dir}, batch_format="pyarrow",
               concurrency=1)
           .to_pandas().sort_values(["qid", "rank"]))
    near = reader.search_near(terms, slop=4)
    onear = reader.search_near(terms, slop=4, ordered=True)
    assert got[got["qid"] == 1]["doc_id"].tolist() == near
    assert got[got["qid"] == 2]["doc_id"].tolist() == onear
    # Sharded Dataset pipeline merges the shard-local partials to the
    # same doc lists.
    sharded = (sharded_query_pipeline(
        index_dir, ray.data.from_arrow(qt), num_subsets=3)
        .to_pandas().sort_values(["qid", "rank"]))
    assert sharded[sharded["qid"] == 1]["doc_id"].tolist() == near
    assert sharded[sharded["qid"] == 2]["doc_id"].tolist() == onear


def test_near_fanout_parity(near_built, monkeypatch):
    """The driver-side Ray-task fan-out (large candidate sets) returns
    exactly the inline path's results, for both unordered and ordered
    variants and for slops at both extremes."""
    import konlsearch_ray.query as qmod

    import collections

    reader, docs, _ = near_built
    df = collections.Counter()
    for content in docs.values():
        df.update(set(tokenize(content)))
    t1, t2, t3 = [t for t, _ in df.most_common(3)]
    queries = [([t1, t2], 2, False), ([t1, t2], 6, True),
               ([t3, t1, t2], 4, False)]
    golden = [reader.search_near(t, slop=s, ordered=o)
              for t, s, o in queries]
    # Force fan-out: every candidate set passes the threshold and splits
    # into multiple chunks.
    monkeypatch.setattr(qmod, "NEAR_FANOUT_MIN_CANDIDATES", 1)
    monkeypatch.setattr(qmod, "NEAR_FANOUT_CHUNK_MIN", 7)
    fanned = [reader.search_near(t, slop=s, ordered=o)
              for t, s, o in queries]
    assert fanned == golden
    # At least one query's AND candidate set truly splits into chunks.
    assert any(len(reader.search(t, "AND")) > 7 for t, _, _ in queries)


def test_near_fanout_respects_tombstones(ray_session, tmp_path,
                                         monkeypatch):
    """Deleted docs must not resurface through the fan-out path (the
    driver ships its tombstone array to the chunk tasks by ObjectRef)."""
    import konlsearch_ray.query as qmod
    from konlsearch_ray.tombstone import delete_docs

    corpus_dir = write_corpus(str(tmp_path / "c"), 120, seed=11)
    idx = str(tmp_path / "i")
    build_index(corpus_dir, idx, IndexConfig(shard_size=32))
    reader = IndexReader(idx)
    docs = dict(zip(*[DocStore(idx).get_all()[c].to_pylist()
                      for c in ("doc_id", "content")]))
    import collections

    df = collections.Counter()
    for content in docs.values():
        df.update(set(tokenize(content)))
    t1, t2 = [t for t, _ in df.most_common(2)]
    baseline = reader.search_near([t1, t2], slop=4)
    assert len(baseline) >= 2
    victims = baseline[:2]
    delete_docs(idx, victims)
    fresh = IndexReader(idx)  # reader + docstore reload the tombstones
    monkeypatch.setattr(qmod, "NEAR_FANOUT_MIN_CANDIDATES", 1)
    monkeypatch.setattr(qmod, "NEAR_FANOUT_CHUNK_MIN", 8)
    got = fresh.search_near([t1, t2], slop=4)
    assert got == [d for d in baseline if d not in victims]
