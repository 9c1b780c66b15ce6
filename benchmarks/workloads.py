"""The three workloads: seeded inputs, and the timed operation each repeats.

The benchmark owns input generation. The program sees only the CSV and IDX
files written here; it is driven through its public entry points
(``wood.cli.main`` in-process, and ``wood.data.load_idx_pair`` ->
``wood.trainer.fit`` -> ``wood.trainer.save_checkpoint`` for IDX input,
which the CLI does not read). Module attributes are looked up at call time so
that an installed tracer sees every call.

Each workload keeps its task fixed (class centres, image prototypes, the c06
training set) and draws the samples from ``--seed``, so seeds change the
inputs without changing how hard the task is.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("c06", "idx-sinkhorn", "score")

# Seed of the fixed task definitions (centres and prototypes).
TASK_SEED = 2112_06384

# c06: the acceptance-suite recipe (3 blobs at radius 4, a ring of radius 0.5
# in the hole at their centroid, 60/20/20 split) at its seeds.
C06_BLOB_SEED = 7
C06_RING_SEED = 8
C06_TRAIN = 360  # the first 60% of 3 x 200 blob points
C06_EPOCHS = 50
C06_TEST_PER_CLASS = 400
C06_TEST_RING = 1200

# idx-sinkhorn: MNIST-shaped images, binary costs on the Sinkhorn path.
IDX_K = 10
IDX_SIDE = 28
IDX_TRAIN = 1000
IDX_OOD_POOL = 500
IDX_TEST = 1000
IDX_EPOCHS = 2
IDX_NOISE = 0.08
IDX_SHIFT = 1

# score: a fixed K=10 checkpoint scoring large CSVs.
SCORE_K = 10
SCORE_DIM = 8
SCORE_TRAIN = 2000
SCORE_EPOCHS = 5
SCORE_ROWS = 25_000

B_IND = 50  # InD rows per training batch
B_OOD = 10  # OOD rows per training batch
EPSILON = 0.5  # decision threshold passed to ``wood score``
TNR = 0.95
CALIB_FRAC = 0.2
LAMBDA = 50.0


@dataclass(frozen=True)
class Step:
    """One call of an op; its wall time feeds ``metric`` at ``rows`` rows."""

    metric: str
    rows: int
    argv: tuple[str, ...] | None  # a CLI call, or None for IDX training


@dataclass(frozen=True)
class Plan:
    """Everything about a workload that follows from (name, work dir, seed)."""

    name: str
    work: Path
    seed: int
    matrix: str  # cost family used for scoring and evaluation
    n_classes: int
    steps: tuple[Step, ...]
    checkpoint: Path

    @property
    def scores_csv(self) -> Path:
        return self.work / "out" / "score" / "scores.csv"

    @property
    def report_txt(self) -> Path:
        return self.work / "out" / "evaluate" / "report.txt"


@dataclass
class Inputs:
    """The arrays behind the test files: ``wood evaluate`` reads the InD and
    OOD files, and ``wood score`` scores the OOD file."""

    ind_x: np.ndarray
    ind_y: np.ndarray
    ood_x: np.ndarray


def output_digests(plan: Plan) -> dict[str, str | None]:
    """SHA-256 of each output file an op writes (None when missing)."""
    paths = {"checkpoint": plan.checkpoint, "scores": plan.scores_csv,
             "report": plan.report_txt}
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            for key, path in paths.items()}


def rows_stepped(n_ind: int, epochs: int) -> int:
    """InD plus OOD rows one training run steps through."""
    return epochs * (n_ind + B_OOD * math.ceil(n_ind / B_IND))


def _train_argv(ind: Path, ood: Path, out: Path, epochs: int, matrix: str, path: str,
                seed: int, hidden: tuple[int, ...]) -> tuple[str, ...]:
    return (
        "train", "--ind", str(ind), "--ood", str(ood), "--out", str(out),
        "--epochs", str(epochs), "--beta", "0.1", "--b-ind", str(B_IND), "--b-ood", str(B_OOD),
        "--matrix", matrix, "--eval-path", path, "--lambda", repr(LAMBDA),
        "--lr", "0.01", "--momentum", "0.9", "--seed", str(seed),
        "--hidden", ",".join(str(h) for h in hidden),
    )


def _score_argv(checkpoint: Path, features: Path, out: Path, matrix: str) -> tuple[str, ...]:
    # Every score flag is explicit, so changes to the CLI defaults cannot
    # change what is measured.
    return (
        "score", "--checkpoint", str(checkpoint), "--features", str(features),
        "--matrix", matrix, "--eval-path", "closed", "--lambda", repr(LAMBDA),
        "--epsilon", repr(EPSILON), "--tnr", repr(TNR), "--out", str(out),
    )


def _evaluate_argv(checkpoint: Path, ind: Path, ood: Path, out: Path, matrix: str,
                   seed: int) -> tuple[str, ...]:
    return (
        "evaluate", "--checkpoint", str(checkpoint), "--ind", str(ind), "--ood", str(ood),
        "--tnr", repr(TNR), "--matrix", matrix, "--eval-path", "closed",
        "--lambda", repr(LAMBDA), "--calib-frac", repr(CALIB_FRAC), "--seed", str(seed),
        "--out", str(out),
    )


def make_plan(name: str, work: Path, seed: int) -> Plan:
    out = work / "out"
    if name == "c06":
        train_rows = rows_stepped(C06_TRAIN, C06_EPOCHS)
        checkpoint = out / "train" / "checkpoint.json"
        steps = (
            Step("train_rows_per_s", train_rows,
                 _train_argv(work / "ind_train.csv", work / "ood_train.csv", out / "train",
                             C06_EPOCHS, "dynamic", "closed", C06_BLOB_SEED, (128, 64))),
            Step("score_rows_per_s", C06_TEST_RING,
                 _score_argv(checkpoint, work / "ood_test.csv", out / "score", "dynamic")),
            Step("evaluate_rows_per_s", 3 * C06_TEST_PER_CLASS + C06_TEST_RING,
                 _evaluate_argv(checkpoint, work / "ind_test.csv", work / "ood_test.csv",
                                out / "evaluate", "dynamic", seed)),
        )
        return Plan(name, work, seed, "dynamic", 3, steps, checkpoint)
    if name == "idx-sinkhorn":
        train_rows = rows_stepped(IDX_TRAIN, IDX_EPOCHS)
        checkpoint = out / "checkpoint.json"
        steps = (
            Step("train_rows_per_s", train_rows, None),
            Step("score_rows_per_s", IDX_TEST,
                 _score_argv(checkpoint, work / "ood_test.csv", out / "score", "binary")),
            Step("evaluate_rows_per_s", 2 * IDX_TEST,
                 _evaluate_argv(checkpoint, work / "ind_test.csv", work / "ood_test.csv",
                                out / "evaluate", "binary", seed)),
        )
        return Plan(name, work, seed, "binary", IDX_K, steps, checkpoint)
    if name == "score":
        # The checkpoint is trained from the task seed, so it is the same for
        # every seed and every op; scoring and evaluation dominate the op.
        train_rows = rows_stepped(SCORE_TRAIN, SCORE_EPOCHS)
        checkpoint = out / "train" / "checkpoint.json"
        steps = (
            Step("train_rows_per_s", train_rows,
                 _train_argv(work / "train_ind.csv", work / "train_ood.csv", out / "train",
                             SCORE_EPOCHS, "dynamic", "closed", TASK_SEED, (64, 32))),
            Step("score_rows_per_s", SCORE_ROWS,
                 _score_argv(checkpoint, work / "ood.csv", out / "score", "dynamic")),
            Step("evaluate_rows_per_s", 2 * SCORE_ROWS,
                 _evaluate_argv(checkpoint, work / "ind.csv", work / "ood.csv",
                                out / "evaluate", "dynamic", seed)),
        )
        return Plan(name, work, seed, "dynamic", SCORE_K, steps, checkpoint)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Running a step (in the measuring process).
# ---------------------------------------------------------------------------


def run_step(plan: Plan, step: Step) -> None:
    """Run one call; raises if the program reports a failure."""
    if step.argv is not None:
        cli = importlib.import_module("wood.cli")
        code = cli.main(list(step.argv))
        if code != 0:
            raise RuntimeError(f"wood {step.argv[0]} exited with code {code}")
        return
    data = importlib.import_module("wood.data")
    geometry = importlib.import_module("wood.geometry")
    trainer = importlib.import_module("wood.trainer")
    transport = importlib.import_module("wood.transport")
    ind = data.load_idx_pair(plan.work / "train-images-idx3-ubyte.gz",
                             plan.work / "train-labels-idx1-ubyte.gz", data.Role.IND)
    ood = data.load_idx_pair(plan.work / "ood-images-idx3-ubyte.gz", None, data.Role.OOD)
    score = geometry.ScoreConfig(transport.CostKind.BINARY, geometry.EvalPath.SINKHORN,
                                 transport.SinkhornConfig(lam=LAMBDA))
    cfg = trainer.TrainConfig(epochs=IDX_EPOCHS, beta=0.1, b_ind=B_IND, b_ood=B_OOD, lr=0.01,
                              momentum=0.9, seed=plan.seed, score=score)
    ckpt, _ = trainer.fit(ind, ood, cfg, hidden=(128, 64))
    plan.checkpoint.parent.mkdir(parents=True, exist_ok=True)
    trainer.save_checkpoint(ckpt, plan.checkpoint)


# ---------------------------------------------------------------------------
# Input generation (set-up).
# ---------------------------------------------------------------------------


def write_csv(path: Path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Headered CSV in the layout ``wood`` reads; ``repr`` floats reload exactly."""
    header = [f"f{i}" for i in range(x.shape[1])] + (["label"] if y is not None else [])
    lines = [",".join(header)]
    if y is None:
        lines += [",".join(map(repr, row)) for row in x.tolist()]
    else:
        lines += [",".join(map(repr, row)) + f",{label}" for row, label in
                  zip(x.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _blobs(rng, centers: np.ndarray, n_per_class: int, noise: float):
    k, dim = centers.shape
    x = np.vstack([centers[c] + noise * rng.standard_normal((n_per_class, dim))
                   for c in range(k)])
    return x, np.repeat(np.arange(k), n_per_class)


def _ring(rng, n: int, radius: float, noise: float) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radii = radius + noise * rng.uniform(-1.0, 1.0, size=n)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def _c06_centers() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(3) / 3
    return 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _c06_train() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The acceptance suite's training slices, drawn the same way: blobs with
    # seed 7, ring with seed 8, and a 60/20/20 split (stratified by class)
    # with seed 7, whose first part is training.
    x, y = _blobs(np.random.default_rng(C06_BLOB_SEED), _c06_centers(), 200, 0.5)
    ring = _ring(np.random.default_rng(C06_RING_SEED), 600, 0.5, 0.5)
    rng = np.random.default_rng(C06_BLOB_SEED)
    keep = [rng.permutation(np.flatnonzero(y == c))[:120] for c in range(3)]
    ind_idx = np.sort(np.concatenate(keep))
    ood_idx = np.sort(np.random.default_rng(C06_BLOB_SEED).permutation(600)[:360])
    return x[ind_idx], y[ind_idx], ring[ood_idx]


def _strokes(rng, n: int, side: int) -> np.ndarray:
    # Digit-like prototypes: each is the sum of three soft line segments.
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    out = np.zeros((n, side, side))
    for i in range(n):
        for _ in range(3):
            cy, cx = rng.uniform(7, side - 7, size=2)
            theta = rng.uniform(0, np.pi)
            half = rng.uniform(3, 8)
            dy, dx = np.sin(theta), np.cos(theta)
            t = np.clip((yy - cy) * dy + (xx - cx) * dx, -half, half)
            dist2 = (yy - cy - t * dy) ** 2 + (xx - cx - t * dx) ** 2
            out[i] += np.exp(-dist2 / (2 * 1.3**2))
    return np.clip(out, 0.0, 1.0)


def _garments(rng, n: int, side: int) -> np.ndarray:
    # Garment-like prototypes (the FashionMNIST stand-in): filled ellipses
    # and rectangles with soft edges.
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    out = np.zeros((n, side, side))
    for i in range(n):
        cy, cx = rng.uniform(11, side - 11, size=2)
        ry, rx = rng.uniform(5, 11, size=2)
        if i % 2:
            inside = np.maximum(np.abs(yy - cy) / ry, np.abs(xx - cx) / rx)
        else:
            inside = np.sqrt(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2)
        out[i] = rng.uniform(0.5, 0.9) / (1.0 + np.exp(6.0 * (inside - 1.0)))
    return out


def _images(rng, prototypes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # Shift each prototype by up to IDX_SHIFT pixels, scale its ink, add noise.
    base = prototypes[labels]
    shifts = rng.integers(-IDX_SHIFT, IDX_SHIFT + 1, size=(labels.size, 2))
    shifted = np.empty_like(base)
    for dy in range(-IDX_SHIFT, IDX_SHIFT + 1):
        for dx in range(-IDX_SHIFT, IDX_SHIFT + 1):
            pick = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            shifted[pick] = np.roll(base[pick], (dy, dx), axis=(1, 2))
    ink = rng.uniform(0.7, 1.0, size=(labels.size, 1, 1))
    noisy = shifted * ink + IDX_NOISE * rng.standard_normal(shifted.shape)
    return np.round(255.0 * np.clip(noisy, 0.0, 1.0)).astype(np.uint8)


def generate(plan: Plan) -> Inputs:
    """Write the workload's input files; returns the arrays behind them."""
    plan.work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([plan.seed, WORKLOADS.index(plan.name)])
    if plan.name == "c06":
        x_train, y_train, ring_train = _c06_train()
        write_csv(plan.work / "ind_train.csv", x_train, y_train)
        write_csv(plan.work / "ood_train.csv", ring_train)
        x_test, y_test = _blobs(rng, _c06_centers(), C06_TEST_PER_CLASS, 0.5)
        ring_test = _ring(rng, C06_TEST_RING, 0.5, 0.5)
        write_csv(plan.work / "ind_test.csv", x_test, y_test)
        write_csv(plan.work / "ood_test.csv", ring_test)
        return Inputs(x_test, y_test, ring_test)

    if plan.name == "idx-sinkhorn":
        data = importlib.import_module("wood.data")
        task = np.random.default_rng(TASK_SEED)
        digits = _strokes(task, IDX_K, IDX_SIDE)
        garments = _garments(task, IDX_K, IDX_SIDE)
        y_train = rng.integers(0, IDX_K, size=IDX_TRAIN)
        data.write_idx(plan.work / "train-images-idx3-ubyte.gz", _images(rng, digits, y_train))
        data.write_idx(plan.work / "train-labels-idx1-ubyte.gz", y_train.astype(np.uint8))
        data.write_idx(plan.work / "ood-images-idx3-ubyte.gz",
                       _images(rng, garments, rng.integers(0, IDX_K, size=IDX_OOD_POOL)))
        y_test = rng.integers(0, IDX_K, size=IDX_TEST)
        ind_test = _images(rng, digits, y_test)
        ood_test = _images(rng, garments, rng.integers(0, IDX_K, size=IDX_TEST))
        # Pixels become the features load_idx_pair would make of them.
        ind_x = ind_test.reshape(IDX_TEST, -1) / 255.0
        ood_x = ood_test.reshape(IDX_TEST, -1) / 255.0
        write_csv(plan.work / "ind_test.csv", ind_x, y_test)
        write_csv(plan.work / "ood_test.csv", ood_x)
        return Inputs(ind_x, y_test, ood_x)

    # score
    centers = 1.6 * np.random.default_rng(TASK_SEED).standard_normal((SCORE_K, SCORE_DIM))

    def ind(n, rng):
        y = rng.integers(0, SCORE_K, size=n)
        return centers[y] + rng.standard_normal((n, SCORE_DIM)), y

    def ood(n, rng):
        return 1.6 * rng.standard_normal((n, SCORE_DIM))

    x_ind, y_ind = ind(SCORE_ROWS, rng)
    x_ood = ood(SCORE_ROWS, rng)
    write_csv(plan.work / "ind.csv", x_ind, y_ind)
    write_csv(plan.work / "ood.csv", x_ood)
    train = np.random.default_rng([TASK_SEED, 1])
    write_csv(plan.work / "train_ind.csv", *ind(SCORE_TRAIN, train))
    write_csv(plan.work / "train_ood.csv", ood(SCORE_TRAIN, train))
    return Inputs(x_ind, y_ind, x_ood)
