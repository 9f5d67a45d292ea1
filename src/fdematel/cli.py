"""Command-line interface: run, reproduce, diagram."""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from ._version import __version__
from .cfcs import DefuzzMode, defuzzify_matrix
from .errors import FdematelError, MalformedDocument, VerificationFailed, exit_code_table
from .io import _decode, parse_crisp_matrix, parse_survey
from .diagram import emit_diagram
from .report import (
    TOTAL_CELL_TOL,
    build_report,
    render_json,
    render_reproduction,
    run_reproduction,
    scores_from_report,
)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _epilog() -> str:
    rows = [f"  {code:>3}  {name}" for name, code in exit_code_table().items() if name != "FdematelError"]
    return "error exit codes (one per failure class):\n" + "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdematel",
        description="Fuzzy DEMATEL cause-effect analysis",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"fdematel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="analyze a survey JSON or crisp CSV and emit a report")
    run.add_argument("input", help="survey .json or direct-relation .csv")
    run.add_argument(
        "--input-format",
        choices=["survey", "crisp"],
        help="override the extension-based input detection",
    )
    run.add_argument(
        "--mode",
        choices=sorted(m.value for m in DefuzzMode),
        default="per-expert",
        help="defuzzification path for surveys (default: per-expert)",
    )
    run.add_argument(
        "--zero-diagonal",
        action="store_true",
        help="zero self-influence entries before normalization",
    )
    run.add_argument("--output", type=Path, help="write the report here instead of stdout")

    rep = sub.add_parser("reproduce", help="verify the embedded 29-factor case study")
    rep.add_argument(
        "--tolerance",
        type=_tolerance,
        default=TOTAL_CELL_TOL,
        help=f"per-cell tolerance for the total-relation comparison (default {TOTAL_CELL_TOL})",
    )
    rep.add_argument("--output", type=Path, help="write the verification report here instead of stdout")

    dia = sub.add_parser("diagram", help="emit a cause-effect diagram from a report")
    dia.add_argument("report", help="analysis report JSON produced by `run`")
    dia.add_argument("--format", choices=["svg", "dot", "json"], default="json")
    dia.add_argument("--output", type=Path, help="write the diagram here instead of stdout")
    return parser


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _detect_format(path: str, override) -> str:
    if override:
        return override
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "survey"
    if suffix == ".csv":
        return "crisp"
    raise MalformedDocument(
        f"cannot infer input format from {path!r}; pass --input-format survey|crisp"
    )


def _cmd_run(args) -> int:
    data = Path(args.input).read_bytes()
    kind = _detect_format(args.input, args.input_format)
    if kind == "survey":
        survey = parse_survey(data)
        direct = defuzzify_matrix(survey.to_panel(), DefuzzMode(args.mode))
        mode_label = args.mode
        input_format = "survey-json"
    else:
        direct = parse_crisp_matrix(data)
        mode_label = None
        input_format = "crisp-csv"
    report = build_report(
        direct,
        input_path=str(args.input),
        input_format=input_format,
        defuzz_mode=mode_label,
        zero_diagonal=args.zero_diagonal,
    )
    _emit(render_json(report), args.output)
    return 0


def _cmd_reproduce(args) -> int:
    outcome = run_reproduction(cell_tol=args.tolerance)
    _emit(render_reproduction(outcome), args.output)
    failed = [check for check, ok in outcome["better_outcome"]["passed"].items() if not ok]
    if failed:
        # the other treatment is printed for comparison only
        raise VerificationFailed(f"{outcome['better']} treatment fails: {', '.join(failed)}")
    return 0


def _cmd_diagram(args) -> int:
    try:
        report = json.loads(_decode(Path(args.report).read_bytes(), repr(args.report)))
        result = scores_from_report(report)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedDocument(f"{args.report!r} is not a valid analysis report: {exc}") from None
    _emit(emit_diagram(result, args.format), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "reproduce": _cmd_reproduce, "diagram": _cmd_diagram}[args.command]
    try:
        return handler(args)
    except FdematelError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return type(exc).exit_code
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
