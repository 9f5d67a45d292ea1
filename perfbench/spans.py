"""Spans recorded around the program's public entry points, and the
per-layer metrics derived from them.

The fdematel modules import each other's functions by name, so a function
is traced by rebinding the name where its caller looks it up (BINDINGS).
Spans live in memory and are written out when the run ends. A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import statistics
from time import perf_counter

#: (module, attribute path, span name). The span name's prefix is the
#: module the time is charged to.
BINDINGS = (
    ("fdematel.cli", "parse_survey", "io.parse_survey"),
    ("fdematel.cli", "parse_crisp_matrix", "io.parse_crisp_matrix"),
    ("fdematel.io", "SurveyDocument.to_panel", "io.to_panel"),
    ("fdematel.cli", "defuzzify_matrix", "cfcs.defuzzify_matrix"),
    ("fdematel.cli", "build_report", "report.build_report"),
    ("fdematel.cli", "render_json", "report.render_json"),
    ("fdematel.cli", "scores_from_report", "report.scores_from_report"),
    ("fdematel.cli", "emit_diagram", "diagram.emit_diagram"),
    ("fdematel.report", "analyze", "engine.analyze"),
    ("fdematel.report", "extract_csf", "engine.extract_csf"),
    ("fdematel.engine", "normalize", "engine.normalize"),
    ("fdematel.engine", "total_relation", "engine.total_relation"),
    ("fdematel.engine", "compute_scores", "engine.compute_scores"),
)


def _count_judgments(args, doc):
    return {"io.judgments": sum(len(e.judgments) for e in doc.experts)}


def _count_bnps(args, result):
    panel = args[0]
    return {"cfcs.bnp_count": panel.k * panel.n * (panel.n - 1)}


def _count_output(args, text):
    return {"report.output_bytes": len(text)}


def _count_solve(args, result):
    return {"engine.solve_n": args[0].n}


#: Sizes read at a span's boundary after its clock stops.
COUNTERS = {
    "io.parse_survey": _count_judgments,
    "cfcs.defuzzify_matrix": _count_bnps,
    "report.render_json": _count_output,
    "engine.total_relation": _count_solve,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = []  # [op id, name, value]
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts.extend([self.op, k, v] for k, v in counter(args, result).items())
            return result

        return traced

    def count(self, name, value):
        self.counts.append([self.op, name, value])

    def install(self):
        for module, path, name in BINDINGS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


#: Per-layer metrics: name -> unit, in the order they are reported.
LAYER_UNITS = {
    "io.parse_survey_s": "s",
    "io.to_panel_s": "s",
    "io.parse_crisp_matrix_s": "s",
    "io.input_mb_per_s": "MB/s",
    "io.judgments": "count",
    "cfcs.defuzzify_matrix_s": "s",
    "cfcs.bnp_count": "count",
    "cfcs.ns_per_bnp": "ns",
    "engine.normalize_s": "s",
    "engine.total_relation_s": "s",
    "engine.compute_scores_s": "s",
    "engine.solve_gflop_s": "computed-GFLOP/s",
    "report.build_report_self_s": "s",
    "report.render_json_s": "s",
    "report.output_mb": "MB",
    "report.scores_from_report_s": "s",
    "diagram.emit_diagram_s": "s",
    "cli.self_s": "s",
    "io.share": "ratio",
    "cfcs.share": "ratio",
    "engine.share": "ratio",
    "report.share": "ratio",
    "diagram.share": "ratio",
    "cli.share": "ratio",
    "trace.overhead_share": "ratio",
}

_DURATIONS = {
    "io.parse_survey_s": "io.parse_survey",
    "io.to_panel_s": "io.to_panel",
    "io.parse_crisp_matrix_s": "io.parse_crisp_matrix",
    "cfcs.defuzzify_matrix_s": "cfcs.defuzzify_matrix",
    "engine.normalize_s": "engine.normalize",
    "engine.total_relation_s": "engine.total_relation",
    "engine.compute_scores_s": "engine.compute_scores",
    "report.render_json_s": "report.render_json",
    "report.scores_from_report_s": "report.scores_from_report",
    "diagram.emit_diagram_s": "diagram.emit_diagram",
}

MODULES = ("io", "cfcs", "engine", "report", "diagram", "cli")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, counts, latencies, untraced_latencies):
    """Median per op of every per-layer metric, plus module shares.

    latencies maps each traced op id to its measured op time. A layer the
    workload never enters reports 0.
    """
    ops = {op: {"dur": {}, "self": {}, "count": {}} for op in latencies}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, op) in enumerate(spans):
        rec = ops[op]
        rec["dur"][name] = rec["dur"].get(name, 0.0) + (end - start)
        rec["self"][name] = rec["self"].get(name, 0.0) + (end - start - child_time[idx])
    for op, name, value in counts:
        rec = ops[op]["count"]
        rec[name] = rec.get(name, 0) + value

    per_op = {name: [] for name in LAYER_UNITS}
    module_self = dict.fromkeys(MODULES, 0.0)
    for op, rec in ops.items():
        dur, self_t, cnt = rec["dur"], rec["self"], rec["count"]
        for metric, span in _DURATIONS.items():
            per_op[metric].append(dur.get(span, 0.0))
        parse = dur.get("io.parse_survey", 0.0) + dur.get("io.parse_crisp_matrix", 0.0)
        per_op["io.input_mb_per_s"].append(_ratio(cnt.get("io.input_bytes", 0) / 1e6, parse))
        per_op["io.judgments"].append(cnt.get("io.judgments", 0))
        bnps = cnt.get("cfcs.bnp_count", 0)
        per_op["cfcs.bnp_count"].append(bnps)
        per_op["cfcs.ns_per_bnp"].append(_ratio(dur.get("cfcs.defuzzify_matrix", 0.0) * 1e9, bnps))
        n = cnt.get("engine.solve_n", 0)
        # computed flops: LU factorization 2/3 n^3, then n right-hand sides 2 n^3
        flops = (2.0 / 3.0 + 2.0) * n**3
        per_op["engine.solve_gflop_s"].append(_ratio(flops / 1e9, dur.get("engine.total_relation", 0.0)))
        per_op["report.build_report_self_s"].append(self_t.get("report.build_report", 0.0))
        per_op["report.output_mb"].append(cnt.get("report.output_bytes", 0) / 1e6)
        per_op["cli.self_s"].append(self_t.get("cli.main", 0.0))
        for name, value in self_t.items():
            module_self[name.split(".", 1)[0]] += value
    total = sum(latencies.values())
    out = {name: statistics.median(values) for name, values in per_op.items() if values}
    for module in MODULES:
        out[f"{module}.share"] = _ratio(module_self[module], total)
    # fastest ops, as for latency_min_s: medians move with host noise
    out["trace.overhead_share"] = 1.0 - _ratio(min(untraced_latencies), min(latencies.values()))
    return out
