"""Property-based fuzzing of the crisp-matrix CSV parser.

Every input must either parse or raise an FdematelError; a csv.Error,
IndexError or ValueError escaping parse_crisp_matrix is a bug. A matrix
that parses must survive being written back as CSV unchanged. The parser
must also agree with the per-field reference parser in crisp_oracle.
"""
import csv
import io
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import crisp_oracle  # noqa: E402
from fdematel import parse_crisp_matrix  # noqa: E402
from fdematel.errors import FdematelError, NegativeEntry, NonNumericField  # noqa: E402

TABLE5 = resources.files("fdematel").joinpath("data", "table5.csv").read_text(encoding="utf-8")
IDS = ["X1", "X2", "X3"]

FUZZ = settings(max_examples=120, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
DIFF = settings(FUZZ, max_examples=1000)

#: Field texts near the grammar's edges: numbers in odd spellings,
#: non-finite and negative values, quoting, padding and stray separators.
fields = st.sampled_from(
    ["0", "1", "2.5", " 3 ", "1e3", "1e400", "-1", "-0", "nan", "inf", "", "abc", '"4"', '"5', "6,7", "id"]
) | st.text(max_size=5)


def parses_or_fails_typed(text) -> None:
    try:
        direct = parse_crisp_matrix(text)
    except FdematelError:
        return
    ids = direct.catalog.ids
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *ids])
    writer.writerows([fid, *map(repr, row.tolist())] for fid, row in zip(ids, direct.entries))
    again = parse_crisp_matrix(out.getvalue())
    assert again.catalog.ids == ids
    assert again.entries.tobytes() == direct.entries.tobytes()


#: Data cells that are numbers; small_matrices draws from the first four by
#: default, and from all of them to reach the value faults.
NUMBERS = ["0", "1", "2.5", "10", "-1", "-0", "-1e-400", "nan", "-inf", "1e400"]


@st.composite
def small_matrices(draw, cells=st.sampled_from(NUMBERS[:4])):
    """Three-factor CSVs: mostly well-formed rows of cells, with a few
    fields, labels or whole rows replaced, dropped or repeated."""
    header = ["id"] + IDS
    if draw(st.integers(0, 5)) == 0:
        header[draw(st.integers(0, 3))] = draw(fields)
    rows = [header] + [[fid] + [draw(cells) for _ in IDS] for fid in IDS]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["replace", "drop", "append", "duplicate-row", "drop-row"]))
        if action == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(fields)
        elif action == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif action == "append":
            row.append(draw(fields))
        elif action == "duplicate-row":
            rows.append(list(row))
        elif len(rows) > 1:
            rows.remove(row)
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return sep.join(",".join(row) for row in rows) + draw(st.sampled_from(["", sep]))


@st.composite
def table5_mutations(draw):
    """The embedded table5.csv with one to three characters, fields or lines
    replaced, deleted or inserted at random places."""
    lines = TABLE5.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        action = draw(st.sampled_from(["field", "drop-field", "char", "drop-line", "duplicate-line", "swap-lines"]))
        if action == "field":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(fields)
            lines[i] = ",".join(cells)
        elif action == "drop-field":
            del cells[draw(st.integers(0, len(cells) - 1))]
            lines[i] = ",".join(cells)
        elif action == "char":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(list(',"\n\r -e.x\x00'))) + lines[i][at:]
        elif action == "drop-line":
            del lines[i]
        elif action == "duplicate-line":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@FUZZ
@given(small_matrices())
def test_small_matrices_parse_or_fail_typed(text):
    parses_or_fails_typed(text)


@FUZZ
@given(table5_mutations())
def test_table5_mutations_parse_or_fail_typed(text):
    parses_or_fails_typed(text)


@FUZZ
@given(st.text(max_size=40) | st.binary(max_size=40))
def test_arbitrary_text_parses_or_fails_typed(raw):
    parses_or_fails_typed(raw)


def test_table5_round_trips():
    parses_or_fails_typed(TABLE5)
    assert parse_crisp_matrix(TABLE5).n == 29


#: The reference parser's messages for the two factor-list rules, which
#: FactorCatalog words in its own way.
ORACLE_FACTOR_LIST = ("a direct-relation matrix needs at least two factors", "matrix header repeats a factor id")


def outcome(parse, raw):
    try:
        return parse(raw)
    except FdematelError as exc:
        return exc


def is_value_fault(exc) -> bool:
    """A non-finite or negative entry, as opposed to a fault in the text."""
    return isinstance(exc, NegativeEntry) or (
        isinstance(exc, NonNumericField) and not str(exc).endswith("is not a number")
    )


def cell(exc) -> str:
    """The "row 'a', column 'b'" that a value fault's message starts with;
    what follows its last ": " is a float or a field that parsed as one."""
    return str(exc).rsplit(": ", 1)[0]


@DIFF
@given(
    small_matrices()
    | small_matrices(cells=st.sampled_from(NUMBERS))
    | table5_mutations()
    | st.text(max_size=40)
    | st.binary(max_size=40)
)
def test_parser_agrees_with_per_field_oracle(raw):
    """The same matrix bits and ids, or: the same text fault, class and
    message (only the class for the factor-list rules); and a value fault
    only where the oracle raised one of the same class at the same cell.
    The oracle raises the first fault in row-major order; the parser
    raises text faults before value faults."""
    new, old = outcome(parse_crisp_matrix, raw), outcome(crisp_oracle.parse_crisp_matrix, raw)
    if not isinstance(old, FdematelError):
        assert not isinstance(new, FdematelError), new
        assert new.catalog.ids == old.catalog.ids
        assert new.entries.tobytes() == old.entries.tobytes()
        return
    assert isinstance(new, FdematelError)
    if str(old) in ORACLE_FACTOR_LIST:
        assert type(new) is type(old)
    elif not is_value_fault(old):
        assert (type(new), str(new)) == (type(old), str(old))
    if is_value_fault(new):
        assert type(new) is type(old)
        assert cell(new) == cell(old)
