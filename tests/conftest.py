import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import strategies as st

from wood.data import Dataset, Role
from wood.errors import InputError
from wood.trainer import Checkpoint, TrainConfig, _json_fields
from wood.transport import TransportResult, sinkhorn_batch


@pytest.fixture
def rng():
    return np.random.default_rng(424242)


def random_simplex(rng, k, floor=0.0):
    """Dirichlet sample, optionally smoothed away from the boundary."""
    p = rng.dirichlet(np.ones(k))
    if floor:
        p = (1.0 - k * floor) * p + floor
    return p


def solve_one(r1, r2, C, cfg):
    """One transport problem solved as a batch of one by ``sinkhorn_batch``:
    every field is that problem's scalar, and ``log_v`` its ``(K,)`` row."""
    result = sinkhorn_batch(np.asarray(r1)[None], np.asarray(r2)[None], C, cfg)
    return TransportResult(**{name: values[0] for name, values in vars(result).items()})


def make_checkpoint(model, normalization=None, cfg=None, rng_digest="d"):
    """A ``Checkpoint`` of ``model`` with the ``train_config`` that ``fit`` records for ``cfg``."""
    train_config = asdict(cfg or TrainConfig(epochs=1), dict_factory=_json_fields)
    return Checkpoint(model, normalization or {}, train_config, rng_digest)


def edit_json(path, **fields):
    """Replace top-level fields of the JSON object saved at ``path``."""
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def _stratified_counts(n, fractions):
    # Largest-remainder allocation: exact totals, deterministic.
    raw = [n * f for f in fractions]
    counts = [int(np.floor(x)) for x in raw]
    remainder = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def split(ds, fractions, seed):
    """Partition into (train, calibration, test), stratified when labeled.

    Fractions must be positive and sum to 1. The three parts are disjoint
    and exhaustive; identical seeds give identical partitions. The c06
    workload in ``benchmarks/workloads.py`` mirrors these RNG calls to draw
    the acceptance suite's training slices, so their order is fixed.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise InputError(f"expected 3 fractions, got {len(fractions)}")
    if any(f <= 0 for f in fractions):
        raise InputError(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {sum(fractions)!r}")

    rng = np.random.default_rng(seed)
    labeled = ds.role is Role.IND
    if labeled:
        groups = [np.flatnonzero(ds.labels == c) for c in range(ds.n_classes)]
    else:
        groups = [np.arange(ds.n)]
    parts = [[], [], []]
    for c, idx in enumerate(groups):
        if labeled and idx.size < 3:
            raise InputError(f"class {c} has only {idx.size} samples; cannot stratify into 3 splits")
        idx = rng.permutation(idx)
        start = 0
        for part, count in zip(parts, _stratified_counts(idx.size, fractions)):
            part.append(idx[start : start + count])
            start += count

    out = []
    for chunks in parts:
        indices = np.sort(np.concatenate(chunks))
        labels = ds.labels[indices] if labeled else None
        n_classes = ds.n_classes if labeled else None
        out.append(Dataset(ds.features[indices], labels, ds.role, n_classes, ds.normalization))
    return tuple(out)


# Dataset-CSV cells and labels. The plain ones both readers accept, the
# next only float() or int() accepts, and the rest are malformed or out of
# range or a non-ASCII byte.
CSV_CELLS = ["0.5", "-2.25", "7", "nan", "inf", "-0.0", "1e-320", " 1.5 ", "1_0", "", "\xe9"]
CSV_LABELS = ["0", "2", "+1", " 1 ", "007", "-1", "1_0", "3.0", "99999999999999999999", "\xe9"]
PLAIN_CELLS = 8
PLAIN_LABELS = 6
ROW_KINDS = {"plain": 0, "loose": 0, "any": 0, "short": -1, "long": 1}


@st.composite
def csv_texts(draw, dim, has_label):
    """Text of a dataset CSV with ``dim`` feature columns: rows of plain,
    loose or any cells, ragged rows, blank and whitespace-only lines, LF, CRLF,
    lone CR or mixed line ends, or a header alone."""
    header = [f"f{i}" for i in range(dim)] + (["label"] if has_label else [])
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["plain", "plain", *ROW_KINDS, "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        else:
            extra = {"plain": 0, "loose": 1}.get(kind, len(CSV_CELLS))
            cells_from = st.sampled_from(CSV_CELLS[: PLAIN_CELLS + extra])
            cells = [draw(cells_from) for _ in range(dim + ROW_KINDS[kind])]
            if has_label:
                cells.append(draw(st.sampled_from(CSV_LABELS[: PLAIN_LABELS + extra])))
            lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if newline == "mixed" else newline
        for _ in lines
    ]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.removesuffix(ends[-1])
