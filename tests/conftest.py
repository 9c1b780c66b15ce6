import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def rng():
    return np.random.default_rng(424242)


def random_simplex(rng, k, floor=0.0):
    """Dirichlet sample, optionally smoothed away from the boundary."""
    p = rng.dirichlet(np.ones(k))
    if floor:
        p = (1.0 - k * floor) * p + floor
    return p


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
    loose or any cells, ragged rows, blank and whitespace-only lines, LF or CRLF
    line ends, or a header alone."""
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
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")
