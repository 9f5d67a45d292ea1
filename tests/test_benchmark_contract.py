"""The program names the benchmark binds and counts through.

perfbench/spans.py rebinds functions by module path and reads sizes off
their arguments and results, so renaming any of them breaks the benchmark.
This test loads that file as it is and fails on such a rename.
"""
import importlib
import importlib.util
from pathlib import Path

from fdematel import defuzzify_matrix, parse_survey

HERE = Path(__file__).parent


def test_benchmark_spans_bind_and_count():
    spec = importlib.util.spec_from_file_location("perfbench_spans", HERE.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    for module, path, _ in spans.BINDINGS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, path)

    data = (HERE / "data" / "survey_small.json").read_bytes()
    doc = parse_survey(data)
    assert (doc.catalog.n, doc.k) == (4, 3)
    assert spans.COUNTERS["io.parse_survey"]((data,), doc) == {"io.judgments": 36}
    panel = doc.to_panel()
    direct = defuzzify_matrix(panel)
    assert spans.COUNTERS["cfcs.defuzzify_matrix"]((panel,), direct) == {"cfcs.bnp_count": 36}
