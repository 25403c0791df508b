import re
from pathlib import Path

import numpy as np
import pyarrow as pa

from konlsearch_ray.analyzer import (
    SANITIZE_CHARS,
    analyze_batch,
    normalize_query_tokens,
    sanitize,
    tokenize,
)

PKG = Path(__file__).resolve().parent.parent / "konlsearch_ray"


def _hits(pattern: str) -> list[tuple[str, int]]:
    rx = re.compile(pattern)
    return [(p.relative_to(PKG).as_posix(), i)
            for p in sorted(PKG.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if rx.search(line)]


def test_sanitize_reference_charset():
    # Exact reference charset (reference index.py:27): these are stripped...
    assert sanitize("a@b_c!d#e$f%g^h&i*j(k)l<m>n?o/p\\q|r}s{t~u:v]w\"x,y") == (
        "abcdefghijklmnopqrstuvwxy"
    )
    # ...and these are NOT (SURVEY.md M1): [ ; . ' + - =
    assert sanitize("a[b;c.d'e+f-g=h") == "a[b;c.d'e+f-g=h"


def test_tokenize_spec():
    # ASCII alpha tokens lowercased; mixed alnum dropped; Hangul kept.
    assert tokenize("Def FOO bar1 baz 마법 소녀x") == ["def", "foo", "baz", "마법"]
    # Sanitization happens before the split: glued noise chars are removed.
    assert tokenize('def! "return" (self)') == ["def", "return", "self"]
    assert tokenize("") == []
    assert tokenize("   \n\t  ") == []


def test_query_normalization():
    assert normalize_query_tokens(["Table!", "MERGE", "건담", "x9y"]) == [
        "table",
        "merge",
        "건담",
    ]


def test_analyze_batch_matches_row_oracle():
    texts = [
        "Def foo bar foo Bar 마법 def",
        "",
        "zzz yyy zzz zzz",
        'noise@chars"here, plain',
        "마법 소녀 마법",
    ]
    batch = pa.table({"doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
                      "text": pa.array(texts)})
    out = analyze_batch(batch, "text").to_pydict()
    # Rebuild per-doc dicts from the batch output.
    got = {}
    for d, t, tf, fp in zip(out["doc_id"], out["term"], out["tf"], out["first_pos"]):
        got.setdefault(d, {})[t] = (tf, fp)
    for i, text in enumerate(texts):
        toks = tokenize(text)
        exp = {}
        for pos, t in enumerate(toks):
            if t not in exp:
                exp[t] = [0, pos]
            exp[t][0] += 1
        exp = {t: tuple(v) for t, v in exp.items()}
        assert got.get(10 + i, {}) == exp, f"doc {i}"


def test_analyze_batch_empty():
    batch = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    out = analyze_batch(batch, "text")
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "term", "tf", "first_pos"]


def test_one_tokenizer_entry_point():
    # Only analyzer.py runs the normative split or calls a pluggable
    # analyzer; every other module tokenizes through analyze_strings /
    # analyze_strings_coded.
    hits = _hits(r"(?<!def )\btokenize_many\(|utf8_split_whitespace")
    assert {f for f, _ in hits} == {"analyzer.py"}, hits
