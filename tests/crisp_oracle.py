"""The per-field crisp CSV parser, kept as the reference for the row-wise one.

parse_crisp_matrix below is the library's parser as it stood before each
row was converted with one map(float, ...): it checks every field for
being a number, finite and non-negative as it stores it, and raises the
first fault in row-major order. tests/test_crisp_fuzz.py compares the
library against it.
"""
import csv
from io import StringIO
from typing import Union

import numpy as np

from fdematel.engine import DirectRelationMatrix, FactorCatalog
from fdematel.errors import MalformedDocument, NegativeEntry, NonNumericField, NonSquare

TextSource = Union[str, bytes]


def _decode(data: TextSource, what: str) -> str:
    """UTF-8 text without its byte-order mark, which spreadsheet exports write."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{what} is not valid UTF-8: {exc}") from None
    return data.removeprefix("\ufeff")


def parse_crisp_matrix(data: TextSource) -> DirectRelationMatrix:
    """Parse a crisp direct-relation matrix from CSV.

    Grammar: header "id,<f1>,...,<fN>", then exactly N data rows
    "<fi>,v1,...,vN" in header order; decimal point, UTF-8.
    """
    text = _decode(data, "matrix document")
    try:
        rows = [row for row in csv.reader(StringIO(text)) if row]
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise MalformedDocument(f"matrix document is not valid CSV: {exc}") from None
    if not rows:
        raise MalformedDocument("matrix document is empty")
    header = rows[0]
    if not header or header[0].strip() != "id":
        raise MalformedDocument('matrix header must start with an "id" cell')
    ids = [cell.strip() for cell in header[1:]]
    if len(ids) < 2:
        raise MalformedDocument("a direct-relation matrix needs at least two factors")
    if len(set(ids)) != len(ids):
        raise MalformedDocument("matrix header repeats a factor id")
    data_rows = rows[1:]
    if len(data_rows) != len(ids):
        raise NonSquare(f"matrix has {len(ids)} columns but {len(data_rows)} data rows")
    entries = np.zeros((len(ids), len(ids)))
    for i, row in enumerate(data_rows):
        label = row[0].strip()
        if label != ids[i]:
            raise MalformedDocument(
                f"row {i + 1} is labeled {label!r} but the header order expects {ids[i]!r}"
            )
        if len(row) - 1 != len(ids):
            raise NonSquare(f"row {label!r} has {len(row) - 1} fields, expected {len(ids)}")
        for j, field in enumerate(row[1:]):
            try:
                value = float(field)
            except ValueError:
                raise NonNumericField(f"row {label!r}, column {ids[j]!r}: {field!r} is not a number") from None
            if not np.isfinite(value):
                raise NonNumericField(f"row {label!r}, column {ids[j]!r}: {field!r} is not finite")
            if value < 0:
                raise NegativeEntry(f"row {label!r}, column {ids[j]!r}: negative influence {field}")
            entries[i, j] = value
    return DirectRelationMatrix(entries, FactorCatalog.from_ids(ids))
