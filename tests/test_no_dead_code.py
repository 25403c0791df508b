"""No dead code in the library: every top-level function and method in
``konlsearch_ray/`` has a caller outside ``tests/`` — in the package,
``__ray_entry__.py``, ``bench.py`` or ``perfbench/`` — or is public API
named on the list below. A name counts as called where it appears as an
identifier (a call, a reference, an import) or as a string literal:
``ShardQueryActor.run`` dispatches reader methods by name."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "konlsearch_ray"

# Public API that nothing in the repository calls outside the tests,
# as "<module path>.<name>" (methods as "<module path>.<Class>.<name>").
PUBLIC_API = {
    # reference parity: the index catalog, docstore statuses and range
    # reads, corpus readers, the jamo suggester
    "catalog.create_index",
    "catalog.get_all_indexes",
    "catalog.destroy_index",
    "docstore.DocStore.get_multi_status",
    "docstore.DocStore.get_range",
    "docstore.DocStore.get_all_status",
    "sources.read_line_corpus",
    "sources.read_jsonl_corpus",
    "sources.read_csv_corpus",
    "pipelines.suggest.suggest_jamo",
    # search-log analytics
    "pipelines.logagg.SearchLog.flush",
    "pipelines.logagg.log_cursors",
    "pipelines.logagg.aggregate_search_frequency",
    # operator library
    "functions.aggregates.rollup_counts_dataset",
    "functions.sinks.write_partitioned_parquet",
    "functions.similarity.lsh_bucketed_pairs",
    "functions.multimodal.media_batch_size",
}


def _defined() -> dict[str, str]:
    """Qualified name → bare name of every top-level function and method
    of the package, dunders excluded (Python calls those)."""
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        mod = ".".join(path.relative_to(PKG).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", m) for m in node.body]
            for cls, fn in members:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("__")):
                    out[f"{mod}.{cls}{fn.name}"] = fn.name
    return out


def _used() -> Counter:
    """Every identifier and identifier-like string literal of the code
    outside the tests."""
    files = [*PKG.rglob("*.py"), ROOT / "__ray_entry__.py",
             ROOT / "bench.py", *(ROOT / "perfbench").rglob("*.py")]
    used = Counter()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name.split(".")[-1]] += 1
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                used[node.value] += 1
    return used


def test_every_library_function_has_a_caller_outside_tests():
    used = _used()
    dead = sorted(q for q, name in _defined().items()
                  if not used[name] and q not in PUBLIC_API)
    assert dead == [], dead


def test_public_api_list_names_defined_functions():
    assert sorted(PUBLIC_API - set(_defined())) == []
