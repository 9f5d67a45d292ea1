"""Crisp DEMATEL engine.

Pipeline: direct-relation matrix A -> normalized matrix D (divide by the
maximum row sum) -> total-relation matrix T = D(I - D)^-1 -> per-factor
influence scores -> cause/effect groups and critical success factors.

T is obtained by solving (I - D)^T X^T = D^T with LAPACK gesv (LU with
partial pivoting), never by forming the inverse explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple

import numpy as np

from .errors import (
    NegativeEntry,
    NonNumericField,
    NonSquare,
    SingularSystem,
    ZeroMatrix,
)

#: A total-relation matrix whose largest absolute row sum exceeds this marks
#: (I - D) as numerically singular. Since (I - D)^-1 = I + T exactly and
#: ||I - D||_inf <= 2 for a max-row-sum-normalized D, ||T||_inf gives the
#: condition number kappa_inf(I - D) to within a factor of about 2, read
#: off the solve's own output. An LU solve loses about kappa * u of relative
#: accuracy (Higham, Accuracy and Stability of Numerical Algorithms, ch. 9),
#: so at this limit about 6 significant digits of T are still correct. Equal
#: row sums of A drive the spectral radius of D to 1 and land past it.
SINGULAR_NORM_LIMIT = 1e10

#: Classification threshold: a factor is a net cause only when its relation
#: score exceeds this, so exact zeros land in the effect group.
CAUSE_TIE_EPS = 1e-9

#: Relations inside this band are flagged near-neutral: the sign is within
#: the rounding noise of survey-derived inputs and should not be over-read.
NEAR_NEUTRAL_BAND = 0.05


@dataclass(frozen=True)
class Factor:
    id: str
    name: str


@dataclass(frozen=True)
class FactorCatalog:
    """Ordered factor list; the order is shared by every matrix in a run."""

    factors: Tuple[Factor, ...]

    def __post_init__(self):
        ids = [f.id for f in self.factors]
        if len(ids) < 2:
            raise ValueError("a factor catalog needs at least two factors")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate factor ids: {dupes}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "FactorCatalog":
        return cls(tuple(Factor(i, n) for i, n in pairs))

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "FactorCatalog":
        return cls(tuple(Factor(i, i) for i in ids))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(f.id for f in self.factors)


def _square_readonly(entries, what: str) -> np.ndarray:
    """A read-only float copy of entries; raises NonSquare unless it is a square matrix."""
    arr = np.array(entries, dtype=float, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"{what} matrix must be square, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


#: Terms per block of lines in _two_sum_tree: the tree's three scratch
#: arrays hold about twice this many floats, whatever the matrix size.
_BLOCK_TERMS = 1 << 16


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves r non-finite
def _two_sum_tree(terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of the columns of a 2-D float array, and a mask of the columns
    whose sum is certified to be the correctly rounded exact sum.

    Each block of columns is copied into a scratch array and summed by a
    tree: level by level, the first half of the terms is added to the
    second half, and Knuth's TwoSum gives every addition's rounding error
    e exactly, so the column's exact sum is hi + sum(e). The errors are
    added in floating point, giving t. A last TwoSum rounds hi + t to r
    with a remainder err. A column is certified when r is finite and
    either
    - |err| plus a bound on |t - sum(e)| is below half the smaller gap
      next to r (Rump, Ogita & Oishi, "Accurate floating-point summation
      Part II", 2008), the bound being twice gamma_n * sum|e| (Higham,
      ch. 4) plus the smallest subnormal; this never holds for r == 0, or
    - t is exact: every term, and so every error, is a multiple of q, the
      ulp of the smallest nonzero |term|, and sum|e| <= 2**52 * q keeps
      every partial sum of errors representable. Then r is the rounded
      hi + sum(e), exact ties included. Only the columns the first test
      leaves are checked, as it needs a pass over their terms.
    t starts at +0.0, so r is never -0.0, as with math.fsum.
    """
    n, lines = terms.shape
    k_max = max(1, min(lines, _BLOCK_TERMS // n))
    buffers = (np.empty(n * k_max), np.empty((n + 1) // 2 * k_max))
    z_buf = np.empty(n // 2 * k_max)
    hi = np.empty(lines)
    t = np.zeros(lines)
    mag = np.zeros(lines)
    for j in range(0, lines, k_max):
        k = min(k_max, lines - j)
        cur = buffers[0][: n * k].reshape(n, k)
        np.copyto(cur, terms[:, j : j + k])
        width, level = n, 0
        while width > 1:
            h, odd = divmod(width, 2)
            level += 1
            nxt = buffers[level % 2][: (h + odd) * k].reshape(h + odd, k)
            a, b, s, z = cur[:h], cur[h : 2 * h], nxt[:h], z_buf[: h * k].reshape(h, k)
            np.add(a, b, out=s)
            np.subtract(s, a, out=z)
            np.subtract(b, z, out=b)
            np.subtract(s, z, out=z)
            np.subtract(a, z, out=a)
            np.add(a, b, out=a)  # the errors
            t[j : j + k] += a.sum(axis=0)
            mag[j : j + k] += np.abs(a, out=a).sum(axis=0)
            if odd:
                nxt[h] = cur[2 * h]
            cur, width = nxt, h + odd
        hi[j : j + k] = cur[0]
    r = hi + t
    z = r - hi
    err = np.abs((hi - (r - z)) + (t - z))
    bound = mag * (2.0 * n * 2.0**-53) + 2.0**-1074
    finite = np.isfinite(r)
    certified = finite & (err + bound < np.abs(r - np.nextafter(r, 0.0)) * 0.5)
    rest = np.flatnonzero(finite & ~certified)
    if rest.size:
        left = np.abs(terms[:, rest])
        smallest = np.min(left, axis=0, where=left > 0, initial=np.inf)
        certified[rest] = mag[rest] <= np.spacing(smallest) * 2.0**52  # nan for an all-zero column
    return r, certified


def exact_sums(entries: np.ndarray, axis: int) -> Tuple[float, ...]:
    """Correctly rounded sums of a 2-D array: row sums for axis=1 and
    column sums for axis=0, as with np.sum.

    The sums are bit-identical to math.fsum per row or column: a certified
    TwoSum tree (_two_sum_tree) sums every line at once, and a line it
    cannot certify goes through math.fsum. A correctly rounded sum does not
    depend on the order of its terms, so the sums, their maximum and r - c
    are exactly equivariant under factor reordering. Raises NonNumericField
    when a sum is not finite.
    """
    terms = entries if axis == 0 else entries.T
    sums, certified = _two_sum_tree(terms)
    for i in np.flatnonzero(~certified):
        try:
            sums[i] = math.fsum(terms[:, i])
        except OverflowError:
            sums[i] = math.inf
        if not math.isfinite(sums[i]):
            line = "column" if axis == 0 else "row"
            raise NonNumericField(f"the sum of {line} {i} (0-based) is not a finite float")
    return tuple(sums.tolist())


@dataclass(frozen=True, eq=False)
class DirectRelationMatrix:
    """Crisp square matrix A; entry (i, j) is the influence of i on j."""

    entries: np.ndarray
    catalog: FactorCatalog

    def __post_init__(self):
        arr = _square_readonly(self.entries, "direct-relation")
        if arr.shape[0] != self.catalog.n:
            raise NonSquare(
                f"matrix is {arr.shape[0]}x{arr.shape[1]} but the catalog lists {self.catalog.n} factors"
            )
        if not np.all(np.isfinite(arr)):
            raise NonNumericField("direct-relation matrix contains non-finite entries")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise NegativeEntry(
                f"negative influence {arr[i, j]} at ({self.catalog.ids[i]}, {self.catalog.ids[j]})"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.catalog.n

    def with_zero_diagonal(self) -> "DirectRelationMatrix":
        """Copy with self-influence entries forced to zero."""
        arr = self.entries.copy()
        np.fill_diagonal(arr, 0.0)
        return DirectRelationMatrix(arr, self.catalog)


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Matrix D = A / s where s is the maximum row sum of A."""

    entries: np.ndarray
    scale_factor: float = 1.0

    def __post_init__(self):
        arr = _square_readonly(self.entries, "normalized")
        # written so that NaN fails too
        if not (np.all(arr >= 0) and np.all(arr <= 1.0 + 1e-12)):
            raise ValueError("normalized entries must lie in [0, 1]")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class TotalRelationMatrix:
    """Matrix T capturing direct plus all indirect influence paths."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_readonly(self.entries, "total-relation")
        if not np.all(np.isfinite(arr)):
            raise NonNumericField("total-relation matrix contains non-finite entries")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class Group(Enum):
    CAUSE = "Cause"
    EFFECT = "Effect"


@dataclass(frozen=True)
class FactorScore:
    id: str
    name: str
    r: float
    c: float
    prominence: float
    relation: float
    group: Group

    @property
    def near_neutral(self) -> bool:
        return abs(self.relation) < NEAR_NEUTRAL_BAND


@dataclass(frozen=True)
class DematelResult:
    """Per-factor scores in catalog order."""

    scores: Tuple[FactorScore, ...]

    def by_id(self, factor_id: str) -> FactorScore:
        for s in self.scores:
            if s.id == factor_id:
                return s
        raise KeyError(factor_id)


def normalize(a: DirectRelationMatrix) -> NormalizedMatrix:
    """Divide A by its maximum row sum.

    Raises ZeroMatrix when every entry is zero (the divisor would vanish).
    """
    s = max(exact_sums(a.entries, axis=1))
    if s <= 0.0:
        raise ZeroMatrix("cannot normalize an all-zero direct-relation matrix")
    return NormalizedMatrix(a.entries / s, scale_factor=s)


def total_relation(d: NormalizedMatrix) -> TotalRelationMatrix:
    """Solve T = D(I - D)^-1 as (I - D)^T T^T = D^T.

    Raises SingularSystem when LAPACK meets an exactly zero pivot or when
    ||T||_inf exceeds SINGULAR_NORM_LIMIT (NaN included): either way
    I - D is too close to singular for T to be trusted.
    """
    system = np.eye(d.n) - d.entries
    try:
        t = np.linalg.solve(system.T, d.entries.T).T
        singular = not np.abs(t).sum(axis=1).max() <= SINGULAR_NORM_LIMIT
    except np.linalg.LinAlgError:  # an exactly zero pivot
        singular = True
    if singular:
        raise SingularSystem(
            f"I - D is numerically singular (||T||_inf over {SINGULAR_NORM_LIMIT:g}: the spectral "
            "radius of D is 1 within rounding; equal row sums of the direct-relation matrix do this)"
        )
    return TotalRelationMatrix(t)


def compute_scores(t: TotalRelationMatrix, catalog: FactorCatalog) -> DematelResult:
    """Row/column sums of T and the derived prominence/relation scores.

    relation > CAUSE_TIE_EPS puts a factor in the cause group; anything
    else, including an exact zero, lands in the effect group.
    """
    if t.n != catalog.n:
        raise NonSquare(f"matrix is {t.n}x{t.n} but the catalog lists {catalog.n} factors")
    r = exact_sums(t.entries, axis=1)
    c = exact_sums(t.entries, axis=0)
    scores = []
    for i, factor in enumerate(catalog.factors):
        relation = r[i] - c[i]
        group = Group.CAUSE if relation > CAUSE_TIE_EPS else Group.EFFECT
        scores.append(
            FactorScore(
                id=factor.id,
                name=factor.name,
                r=r[i],
                c=c[i],
                prominence=r[i] + c[i],
                relation=relation,
                group=group,
            )
        )
    return DematelResult(tuple(scores))


def extract_csf(result: DematelResult) -> Tuple[str, ...]:
    """Ordered ids of the critical success factors: every cause-group
    factor, strongest relation first. Ties keep catalog order (sorted() is
    stable and the scores arrive in catalog order).
    """
    cause = [s for s in result.scores if s.group is Group.CAUSE]
    return tuple(s.id for s in sorted(cause, key=lambda s: -s.relation))


def analyze(direct: DirectRelationMatrix) -> Tuple[NormalizedMatrix, TotalRelationMatrix, DematelResult]:
    """Run the full crisp pipeline on a direct-relation matrix."""
    d = normalize(direct)
    t = total_relation(d)
    return d, t, compute_scores(t, direct.catalog)
