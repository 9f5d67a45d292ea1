"""Runs one workload's ops in a closed loop, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json

run.py writes the spec (workload, input sizes, seed, seconds, trace) and
reads the result file this process writes. Each op's input is generated
here from the seed before the op starts. One client issues the next op
only after the previous one finished. Each op's time covers the program
call alone; preparing its input, a full garbage collection (so that no op
inherits collector debt from the one before) and checking its output
happen outside it.
Report files are checked after the timed loop. The sensitivity results are
checked after each op, on a few sampled rows, so the checker's arrays stay
small next to the program's. The process's peak RSS is thus that of the
program and this loop, not of the checks.
"""
from __future__ import annotations

import gc
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gen
from spans import Tracer

MAX_ERRORS = 5


def _succeed(code: int, what: str) -> None:
    if code != 0:
        raise RuntimeError(f"`fdematel {what}` exited with code {code}")


class CliOps:
    """Survey and crisp workloads: each op is `fdematel run` on a freshly
    generated input (survey ops also draw the SVG diagram)."""

    inline_check = False

    def __init__(self, spec, out_dir: Path):
        import fdematel.cli

        self.spec = spec
        self.survey = spec["kind"] == "survey"
        self.out = out_dir
        # one input file, rewritten before every op: each op reads input bytes
        # the program has not seen before
        self.path = out_dir / ("input.json" if self.survey else "input.csv")
        self.inputs = gen.InputTally()
        self.cli_main = fdematel.cli.main
        self.main = self.cli_main
        self.tracer = None

    def bind(self, tracer):
        self.tracer = tracer
        self.main = self.cli_main if tracer is None else tracer.wrap("cli.main", self.cli_main)

    def _input(self, i):
        s = self.spec
        return gen.make_input(s["seed"], s["workload"], i, s["kind"], s["dims"])

    def prepare(self, i):
        data, _, stats = self._input(i)
        self.path.write_bytes(data)
        self.inputs.add(stats)
        if self.tracer is not None:
            self.tracer.count("io.input_bytes", len(data))
        return None

    def op(self, i, _):
        path = str(self.path)
        report = self.out / f"op{i}.json"
        if self.survey:
            _succeed(self.main(["run", path, "--output", str(report)]), "run")
            svg = self.out / f"op{i}.svg"
            _succeed(self.main(["diagram", str(report), "--format", "svg", "--output", str(svg)]), "diagram")
        else:
            _succeed(self.main(["run", path, "--zero-diagonal", "--output", str(report)]), "run")
        return i

    def check(self, i):
        # the op's input again, from the same seed: pending ops hold no data
        data, spot, _ = self._input(i)
        report = self.out / f"op{i}.json"
        try:
            doc = json.loads(report.read_text(encoding="utf-8"))
            if self.survey:
                checks.check_report(doc, spot=spot)
                svg = self.out / f"op{i}.svg"
                checks.check_svg(svg.read_text(encoding="utf-8"), len(doc["factors"]))
                svg.unlink()
            else:
                checks.check_report(doc, crisp=gen.read_csv_matrix(data))
        finally:
            report.unlink(missing_ok=True)

    def run_checks(self):
        """Once per survey run: `reproduce` passes, and one input run twice
        gives the same report bytes apart from generated_at.

        Returns (checks attempted, failure messages)."""
        if not self.survey:
            return 0, []
        failures = []
        text = self.out / "reproduce.txt"
        try:
            _succeed(self.cli_main(["reproduce", "--output", str(text)]), "reproduce")
            checks.check_reproduce(text.read_text(encoding="utf-8"))
        except Exception as exc:  # a failed check is counted, not fatal
            failures.append(f"reproduce: {type(exc).__name__}: {exc}")
        try:
            same = self.out / "same.json"
            same.write_bytes(self._input(0)[0])
            reports = []
            for name in ("same-a.json", "same-b.json"):
                _succeed(self.cli_main(["run", str(same), "--output", str(self.out / name)]), "run")
                reports.append((self.out / name).read_bytes())
            checks.check_same_report(*reports)
        except Exception as exc:  # a failed check is counted, not fatal
            failures.append(f"determinism: {type(exc).__name__}: {exc}")
        return 2, failures


class SensitivityOps:
    """Noise-robustness check on one crisp matrix: each op perturbs A by
    seeded multiplicative noise, then analyzes it and extracts the CSFs."""

    inline_check = True
    RESIDUAL_ROWS = 32
    #: Half-width of the multiplicative noise: A is scaled by U(1 - NOISE, 1 + NOISE).
    NOISE = 0.1

    def __init__(self, spec, out_dir: Path):
        from fdematel import engine
        from fdematel.io import parse_crisp_matrix

        data = Path(spec["base_path"]).read_bytes()
        base = parse_crisp_matrix(data)
        self.inputs = gen.InputTally()
        self.inputs.add({"n": base.n, "input_bytes": len(data)})
        self.base = base.entries
        self.catalog = base.catalog
        self.ids = list(base.catalog.ids)
        self.rng = np.random.default_rng([spec["seed"], 1])
        self.engine = engine
        self.bind(None)

    def bind(self, tracer):
        e = self.engine
        wrap = (lambda name, fn: fn) if tracer is None else tracer.wrap
        self.make_direct = wrap("engine.DirectRelationMatrix", e.DirectRelationMatrix)
        self.analyze = wrap("engine.analyze", e.analyze)
        self.extract_csf = wrap("engine.extract_csf", e.extract_csf)

    def prepare(self, i):
        noisy = self.base * self.rng.uniform(1.0 - self.NOISE, 1.0 + self.NOISE, size=self.base.shape)
        rows = self.rng.choice(len(self.ids), size=min(self.RESIDUAL_ROWS, len(self.ids)), replace=False)
        return noisy, rows

    def op(self, i, state):
        noisy, rows = state
        d, t, result = self.analyze(self.make_direct(noisy, self.catalog))
        return noisy, rows, d, t, result, self.extract_csf(result)

    def check(self, outcome):
        noisy, rows, d, t, result, csf = outcome
        s = result.scores
        checks.check_analysis(
            noisy,
            d.entries,
            d.scale_factor,
            t.entries,
            [x.r for x in s],
            [x.c for x in s],
            [x.relation for x in s],
            [x.group.value for x in s],
            csf,
            self.ids,
            rows=rows,
        )

    def run_checks(self):
        return 0, []


class Loop:
    """Closed-loop driver: counts ops, failures and per-op times."""

    def __init__(self, ops):
        self.ops = ops
        self.next_op = 0
        self.attempted = 0
        self.errors = []
        self.pending = []

    def run(self, seconds, tracer=None, max_ops=None):
        """Issue ops until their summed time reaches `seconds` (or max_ops
        ops ran); return {op id: seconds}."""
        ops = self.ops
        ops.bind(tracer)
        latencies = {}
        busy = 0.0
        while busy < seconds and (max_ops is None or len(latencies) < max_ops):
            i = self.next_op
            self.next_op += 1
            if tracer is not None:
                tracer.op = i
            state = ops.prepare(i)
            gc.collect()  # every op starts from the same collector state
            t0 = perf_counter()
            try:
                outcome = ops.op(i, state)
            except Exception as exc:  # a failing op is counted, the loop goes on
                outcome = None
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - t0
            latencies[i] = elapsed
            busy += elapsed
            self.attempted += 1
            if outcome is None:
                continue
            if ops.inline_check:
                self.check(i, outcome)
            else:
                self.pending.append(outcome)
        ops.bind(None)
        return latencies

    def check(self, i, outcome):
        try:
            self.ops.check(outcome)
        except Exception as exc:  # a failed check is counted, the loop goes on
            self.errors.append(f"op {i} check: {type(exc).__name__}: {exc}")

    def check_pending(self):
        for i in self.pending:
            self.check(i, i)
        self.pending = []


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import fdematel

    expected = Path(spec["src"]).resolve() / "fdematel"
    if Path(fdematel.__file__).resolve().parent != expected:
        print(f"worker: imported fdematel from {fdematel.__file__}, not {expected}", file=sys.stderr)
        return 2

    out_dir = Path(spec["out_dir"])
    ops = (SensitivityOps if spec["kind"] == "sensitivity" else CliOps)(spec, out_dir)
    loop = Loop(ops)

    # warm-up: lazy imports and first-call costs are paid before timing
    warm = loop.next_op
    loop.next_op += 1
    try:
        ops.op(warm, ops.prepare(warm))
    except Exception:
        traceback.print_exc()
        return 3
    for leftover in out_dir.glob(f"op{warm}.*"):
        leftover.unlink()

    result = {}
    if spec["trace"]:
        # untraced and traced ops alternate, so host slow periods hit both alike
        tracer = Tracer()
        untraced, traced = {}, {}
        busy = 0.0
        while busy < spec["seconds"]:
            plain = loop.run(math.inf, max_ops=1)
            tracer.install()
            try:
                step = loop.run(math.inf, tracer, max_ops=1)
            finally:
                tracer.uninstall()
            untraced.update(plain)
            traced.update(step)
            busy += sum(plain.values()) + sum(step.values())
        result["latencies"] = list(untraced.values())
        Path(spec["spans_path"]).write_text(
            json.dumps(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "latencies": [[op, t] for op, t in traced.items()],
                }
            ),
            encoding="utf-8",
        )
    else:
        result["latencies"] = list(loop.run(spec["seconds"]).values())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    loop.check_pending()
    run_attempted, run_failures = ops.run_checks()
    result.update(
        attempted=loop.attempted + run_attempted,
        failed=len(loop.errors) + len(run_failures),
        errors=(loop.errors + run_failures)[:MAX_ERRORS],
        fdematel=str(Path(fdematel.__file__).resolve().parent),
        inputs=ops.inputs.summary(),
    )
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
