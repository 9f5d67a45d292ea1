"""Seeded input generator for the benchmark.

Everything is derived from the command-line seed; nothing is downloaded.
Every op gets an input of its own, the index-th of its workload, and the
same (seed, workload, index, size) always yields byte-identical bytes.

Survey panels are correlated, as real panels are: every ordered pair of
factors has a latent influence level, and each expert's term deviates from
it by at most one step on the five-term scale.
"""
from __future__ import annotations

import zlib

import numpy as np

#: Verbal labels of the five-term scale, weakest to strongest. The index of
#: a label is its term code in the generated term tensors.
TERMS = ("no effect", "little effect", "medium effect", "high effect", "very high effect")

#: The paper's triangular fuzzy numbers for TERMS, used by the output check
#: to rebuild expected CFCS values independently of the survey parser.
TERM_TRIPLES = (
    (0.0, 0.0, 0.25),
    (0.0, 0.25, 0.5),
    (0.25, 0.5, 0.75),
    (0.5, 0.75, 1.0),
    (0.75, 1.0, 1.0),
)

#: Latent level distribution: most pairs of factors barely interact.
LATENT_P = (0.25, 0.30, 0.25, 0.15, 0.05)
#: Per-expert deviation from the latent level: -1, 0, +1 steps.
DEVIATION_P = (0.2, 0.6, 0.2)

#: Off-diagonal cells per survey whose CFCS value the output check recomputes.
SPOT_CELLS = 24


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, input index)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def factor_ids(n: int) -> list:
    return [f"X{i + 1}" for i in range(n)]


def survey_terms(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Term codes of shape (k, n, n); the diagonal holds -1 (no judgment)."""
    latent = rng.choice(len(TERMS), size=(n, n), p=LATENT_P)
    deviation = rng.choice(3, size=(k, n, n), p=DEVIATION_P) - 1
    terms = np.clip(latent[None, :, :] + deviation, 0, len(TERMS) - 1).astype(np.int8)
    idx = np.arange(n)
    terms[:, idx, idx] = -1
    return terms


def survey_json(terms: np.ndarray) -> bytes:
    """Survey document in the format `fdematel run` reads."""
    k, n, _ = terms.shape
    ids = factor_ids(n)
    factors = ",".join(f'{{"id":"{fid}","name":"Factor {fid}"}}' for fid in ids)
    experts = []
    for e in range(k):
        grid = terms[e].tolist()
        judgments = ",".join(
            f'{{"from":"{ids[i]}","to":"{ids[j]}","term":"{TERMS[grid[i][j]]}"}}'
            for i in range(n)
            for j in range(n)
            if i != j
        )
        experts.append(f'{{"id":"E{e + 1}","judgments":[{judgments}]}}')
    return f'{{"factors":[{factors}],"experts":[{",".join(experts)}]}}\n'.encode()


def spot_cells(rng: np.random.Generator, terms: np.ndarray) -> list:
    """Seeded off-diagonal cells with their expert terms: [i, j, [codes]]."""
    n = terms.shape[1]
    flat = [(i, j) for i in range(n) for j in range(n) if i != j]
    picks = rng.choice(len(flat), size=min(SPOT_CELLS, len(flat)), replace=False)
    return [[flat[p][0], flat[p][1], terms[:, flat[p][0], flat[p][1]].tolist()] for p in sorted(picks)]


def crisp_matrix(rng: np.random.Generator, n: int, zero_diagonal: bool = False) -> np.ndarray:
    """Crisp direct-relation matrix on the 0-4 scale with 4 decimals.

    Four decimals survive the report's 12-significant-digit rounding
    exactly, so the check can compare the report to the CSV bit for bit.
    """
    a = np.round(rng.uniform(0.0, 4.0, size=(n, n)), 4)
    if zero_diagonal:
        np.fill_diagonal(a, 0.0)
    return a


def crisp_csv(matrix: np.ndarray) -> bytes:
    """Matrix as the "id,<f1>,...,<fN>" CSV that `fdematel run` reads."""
    ids = factor_ids(matrix.shape[0])
    lines = ["id," + ",".join(ids)]
    for fid, row in zip(ids, matrix.tolist()):
        lines.append(fid + "," + ",".join(f"{v:.4f}" for v in row))
    return ("\n".join(lines) + "\n").encode()


def read_csv_matrix(data: bytes) -> np.ndarray:
    """Parse a generated CSV back into floats, independently of fdematel."""
    rows = data.decode().strip().split("\n")[1:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


def survey_stats(terms: np.ndarray) -> dict:
    """Size, term histogram and the share of cells whose multiset of expert
    terms repeats another cell's (the most a cache of CFCS results keyed on
    that multiset could reuse)."""
    k, n, _ = terms.shape
    off = ~np.eye(n, dtype=bool)
    cells = np.sort(terms[:, off].T, axis=1)  # one row per cell, terms sorted
    _, inverse, counts = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
    repeated = int((counts[inverse.ravel()] > 1).sum())
    hist = np.bincount(terms[:, off].ravel(), minlength=len(TERMS))
    return {
        "n": n,
        "k": k,
        "judgments": int(k * n * (n - 1)),
        "term_histogram": {TERMS[t]: int(c) for t, c in enumerate(hist)},
        "distinct_cell_multisets": int(len(counts)),
        "repeat_share": repeated / cells.shape[0],
    }


def make_input(seed: int, workload: str, index: int, kind: str, dims: dict):
    """The index-th input of a workload: (file bytes, spot cells, stats).

    kind is "survey" (a JSON survey; spot cells for the output check) or
    "crisp" / "sensitivity" (a CSV matrix; the latter with a zero diagonal,
    spot cells None).
    """
    rng = rng_for(seed, workload, index)
    if kind == "survey":
        terms = survey_terms(rng, dims["n"], dims["k"])
        data = survey_json(terms)
        return data, spot_cells(rng, terms), dict(survey_stats(terms), input_bytes=len(data))
    data = crisp_csv(crisp_matrix(rng, dims["n"], zero_diagonal=kind == "sensitivity"))
    return data, None, {"n": dims["n"], "input_bytes": len(data)}


class InputTally:
    """Running record of a run's inputs, in constant memory however many
    ops run: sizes, and for surveys the pooled term histogram and the mean
    repeat share."""

    def __init__(self):
        self.files = 0
        self.input_bytes = 0
        self.repeat_share = 0.0
        self.first = None
        self.histogram = dict.fromkeys(TERMS, 0)

    def add(self, stats: dict) -> None:
        self.files += 1
        self.input_bytes += stats["input_bytes"]
        self.first = self.first or stats
        for term, count in stats.get("term_histogram", {}).items():
            self.histogram[term] += count
        self.repeat_share += stats.get("repeat_share", 0.0)

    def summary(self) -> dict:
        first = self.first
        out = {"n": first["n"], "k": first.get("k"), "files": self.files}
        out["input_bytes_per_file"] = self.input_bytes / self.files
        if "judgments" in first:
            out["judgments_per_file"] = first["judgments"]
            out["term_histogram"] = self.histogram
            out["repeat_share"] = self.repeat_share / self.files
        return out
