"""bench.py's final JSON line must fit the 2,000-char tail capture, stay
parseable, and never shed a headline key."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))


def test_fit_line_keeps_protected_keys_under_cap(monkeypatch):
    import bench

    monkeypatch.setattr(bench, "_dump_attempts", lambda: None)
    monkeypatch.setattr(bench, "_ATTEMPTS", {})
    queries = {k: 12345.678 for k in bench._PROTECTED_KEYS}
    for i in range(200):
        queries[f"bm25_exact_detail_{i:03d}_" + "x" * 40] = i * 0.5
        queries[f"some_new_section_metric_{i:03d}_" + "y" * 60] = [i] * 5
    out = {"metric": "index_build_code", "value": 1.0, "queries": queries}
    assert len(json.dumps(out)) > 2000

    line = bench._fit_line(out)

    assert len(line) <= 2000
    parsed = json.loads(line)
    assert bench._PROTECTED_KEYS <= set(parsed["queries"])
    assert all(parsed["queries"][k] == 12345.678
               for k in bench._PROTECTED_KEYS)
