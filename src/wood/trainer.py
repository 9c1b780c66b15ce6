"""Mixed-batch training loop, metrics logging, and checkpoint persistence.

Each step draws a batch of labeled InD samples (shuffled without
replacement per epoch) plus a smaller batch of unlabeled OOD samples
(uniform with replacement), evaluates the combined loss, backpropagates the
explicit softmax-output gradients, and applies one SGD-with-momentum
update. Everything is deterministic given (seed, data, config) and the
BLAS thread count: the last bits of a matrix product can differ between
thread counts, so each command's ``run_config.txt`` records the count. The
CPU count changes no bit of any output: a dataset CSV parsed, or a
checkpoint written, in two processes has the bits of one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from ._split import beside
from .data import Dataset, read_text
from .errors import InputError, NumericError
from .geometry import ScoreConfig
from .loss import LossValue, _loss_and_grad
from .model import MlpModel, ParamGrads, _backward, _flat_layers, _forward, init

CHECKPOINT_VERSION = 1

# The only hidden-layer activation the model implements.
ACTIVATION = "relu"

# Hidden-layer widths when none are given.
DEFAULT_HIDDEN = (128, 64)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    beta: float = 0.1
    b_ind: int = 50
    b_ood: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    score: ScoreConfig = field(default_factory=ScoreConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.b_ind < 1:
            raise InputError(f"b_ind must be >= 1, got {self.b_ind}")
        if self.b_ood < 0:
            raise InputError(f"b_ood must be >= 0, got {self.b_ood}")
        # lr == 0 is allowed as a diagnostic no-op update.
        if not 0.0 <= self.lr < math.inf:
            raise InputError(f"lr must be finite and nonnegative, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise InputError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.beta < math.inf:
            raise InputError(f"beta must be finite and nonnegative, got {self.beta}")


@dataclass
class Batch:
    """One mixed batch: the rows of ``x`` are the InD samples labeled by
    ``y_ind``, then the OOD samples, which are identified structurally and
    carry no labels."""

    x: np.ndarray
    y_ind: np.ndarray


def make_batches(ind_set: Dataset, ood_set: Dataset | None, cfg: TrainConfig, epoch_rng):
    """Yield one epoch of mixed batches.

    InD indices are a fresh permutation chunked by ``b_ind`` (the final
    chunk may be short); OOD indices are drawn uniformly with replacement
    per batch. RNG call order (permutation first, then one draw per batch)
    is part of the determinism contract. Each batch gathers its rows
    straight into one array, the input of the forward pass.
    """
    if ind_set.n == 0:
        raise InputError("InD dataset is empty")
    if cfg.b_ood > 0 and (ood_set is None or ood_set.n == 0):
        raise InputError("b_ood > 0 requires a non-empty OOD dataset")
    if cfg.b_ood > 0 and ood_set.dim != ind_set.dim:
        raise InputError(
            f"OOD feature dim {ood_set.dim} does not match InD feature dim {ind_set.dim}"
        )
    perm = epoch_rng.permutation(ind_set.n)
    for start in range(0, ind_set.n, cfg.b_ind):
        idx = perm[start : start + cfg.b_ind]
        # The indices are in range by construction; with mode="clip" take
        # writes into ``out`` directly instead of through a buffer.
        x = np.empty((idx.size + cfg.b_ood, ind_set.dim))
        ind_set.features.take(idx, axis=0, out=x[: idx.size], mode="clip")
        if cfg.b_ood > 0:
            ood_idx = epoch_rng.integers(0, ood_set.n, size=cfg.b_ood)
            ood_set.features.take(ood_idx, axis=0, out=x[idx.size :], mode="clip")
        yield Batch(x=x, y_ind=ind_set.labels[idx])


class MomentumState:
    """SGD-with-momentum velocity, one flat vector laid out like ``model.params``,
    plus the per-step buffers :func:`train_step` overwrites: the parameter
    gradients and the scaled update."""

    def __init__(self, model: MlpModel):
        self.velocity = np.zeros_like(model.params)
        self.grads = ParamGrads(model.layer_dims)
        self.update = np.empty_like(model.params)


def _all_finite(flat: np.ndarray) -> bool:
    # A NaN or an infinity makes the dot product non-finite, so one BLAS
    # reduction settles the common case; only a non-finite product (which
    # entries above 1e154 give too) pays for the entrywise test.
    return math.isfinite(flat @ flat) or bool(np.isfinite(flat).all())


def _check_finite(grads: ParamGrads, grad_probs: np.ndarray, cfg: TrainConfig, batch_id) -> None:
    if _all_finite(grads.flat):
        return
    bad_rows = np.flatnonzero(~np.isfinite(grad_probs).all(axis=1))
    sample = int(bad_rows[0]) if bad_rows.size else -1
    raise NumericError(
        "non-finite gradient encountered"
        f" (lam={cfg.score.sinkhorn.lam}, batch={batch_id}, sample={sample})"
    )


@np.errstate(over="ignore", invalid="ignore")
def train_step(
    model: MlpModel,
    batch: Batch,
    cfg: TrainConfig,
    state: MomentumState,
    batch_id=None,
) -> LossValue:
    """One forward/backward/update cycle; returns the pre-update loss.

    The model is updated in place. A diverged model (non-finite softmax
    outputs, gradients or updated parameters) raises NumericError naming
    the batch; the step checks finiteness itself, so NumPy's overflow
    warnings are silenced rather than printed.

    The batch is not validated again: it must be one :func:`make_batches`
    builds from Datasets the model fits, as :func:`fit` guarantees. That is,
    finite float64 features ``x`` of width ``model.input_dim`` (the Datasets
    checked them, ``make_batches`` their widths) and integer labels in
    ``[0, model.n_classes)``. The step itself checks that the softmax rows
    are finite, so they are simplex rows, and the loss and its Sinkhorn
    solves take them as they are.
    """
    trace = _forward(model, batch.x)
    # With its largest logit subtracted first, a softmax row is finite or all
    # NaN, so one sum settles it; only a NaN pays for the row scan.
    if not math.isfinite(np.add.reduce(trace.probs, axis=None)):
        bad = ~np.isfinite(trace.probs).all(axis=1)
        raise NumericError(
            "model diverged: non-finite softmax output"
            f" (lr={cfg.lr}, batch={batch_id}, sample={int(bad.argmax())})"
        )
    try:
        loss_value, grad_probs = _loss_and_grad(trace.probs, batch.y_ind, cfg.beta, cfg.score)
    except NumericError as exc:
        raise NumericError(f"{exc} (batch={batch_id})") from exc

    grads = _backward(model, trace, grad_probs, state.grads)
    _check_finite(grads, grad_probs, cfg, batch_id)

    velocity = state.velocity
    velocity *= cfg.momentum
    velocity += grads.flat
    model.params -= np.multiply(velocity, cfg.lr, out=state.update)
    if not _all_finite(model.params):
        raise NumericError(
            f"model diverged: non-finite parameter after the update (lr={cfg.lr}, batch={batch_id})"
        )
    return loss_value


@dataclass
class EpochMetrics:
    epoch: int
    ce_term: float
    ood_term: float
    total: float
    alpha_m: float
    m: float
    wall_ms: float


METRICS_COLUMNS = ("epoch", "ce_term", "ood_term", "total", "alpha_M", "m", "wall_ms")


def metrics_csv_lines(metrics: list[EpochMetrics]) -> list[str]:
    """Render the per-epoch log as CSV lines (repr floats, exact reload)."""
    lines = [",".join(METRICS_COLUMNS)]
    lines += (",".join(map(repr, vars(row).values())) for row in metrics)
    return lines


def _json_fields(pairs) -> dict:
    # asdict keeps enum members; the checkpoint stores their values.
    return {key: value.value if isinstance(value, Enum) else value for key, value in pairs}


@dataclass
class Checkpoint:
    """The trained model with its input normalization, training config and RNG digest."""

    model: MlpModel
    normalization: dict
    train_config: dict
    rng_digest: str


# A checkpoint of at least this many parameters renders in two processes.
# A parameter takes about 1 us to render, 0.8 us of it float repr, so the
# half of 20k that a forked child takes over is about 10 ms: two forks of a
# training process (about 5 ms each, with the write faults that follow).
_SPLIT_PARAMS = 20_000


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write ``ckpt`` as the text of ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` and a newline. ``weights`` sorts after every
    other key, so its rows end the text. They render in chunks of up to 16
    rows of one matrix, one encoder call each, and the chunks are cut in two
    at the first chunk boundary where the parameters before it, in the JSON
    order (the biases, then the rows of each matrix), reach half of them.
    At least ``_SPLIT_PARAMS`` parameters render the two halves in two
    processes (:func:`wood._split.beside`); where no child is forked, one
    process renders both halves in turn.

    Then write the sidecar ``<path>.params``, which :func:`load_checkpoint`
    reads instead of parsing the parameters' text: a line with the hex
    sha256 of the checkpoint's bytes followed by the rest of the sidecar,
    a line with every field but ``weights`` and ``biases`` as the checkpoint
    renders them, and ``model.params`` as little-endian float64."""
    model, weights = ckpt.model, ckpt.model.weights
    dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    fields = {
        "format_version": CHECKPOINT_VERSION,
        "layer_dims": list(model.layer_dims),
        "activation": ACTIVATION,
        "normalization": ckpt.normalization,
        "n_classes": model.n_classes,
        "train_config": ckpt.train_config,
        "rng_digest": ckpt.rng_digest,
    }
    head = dump({**fields, "biases": [b.tolist() for b in model.biases]})[:-1] + ',"weights":[['
    # One encoder call per chunk of up to 16 rows of a matrix: 16 and 64 rows
    # cost the same per float, and about 4% less than one call per matrix.
    chunks = [(i, a) for i, w in enumerate(weights) for a in range(0, len(w), 16)]
    # Their cumulative sums: the parameters before each chunk, biases first, then all.
    sizes = [sum(b.size for b in model.biases)] + [weights[i][a : a + 16].size for i, a in chunks]
    cut = int(np.searchsorted(np.cumsum(sizes), model.params.size // 2))

    def render(part) -> bytes:
        # Each chunk's rows without the brackets around them, after a comma
        # inside a matrix and after "],[" that starts each later matrix.
        return "".join(
            ("," if a else "],[" if i else "") + dump(weights[i][a : a + 16].tolist())[1:-1]
            for i, a in part
        ).encode("ascii")

    big = model.params.size >= _SPLIT_PARAMS
    halves = beside(lambda: render(chunks[:cut]), lambda: render(chunks[cut:]), big)
    parts = (head.encode("ascii"), *halves, b"]]}\n")
    with open(path, "wb") as file:
        file.writelines(parts)
    rest = (dump(fields).encode("ascii") + b"\n", model.params.astype("<f8", copy=False))
    digest = hashlib.sha256()
    for part in (*parts, *rest):
        digest.update(part)
    with open(f"{path}.params", "wb") as file:
        file.writelines((digest.hexdigest().encode("ascii") + b"\n", *rest))


_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` if its JSON type is ``kind``; nothing is converted, so a bool
    is not an integer and a list of pairs is not an object."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _numbers(value, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float64 array; a bool, a string or a
    null among them (or a ragged list) is malformed."""
    values = np.array(value, dtype=object)
    if not set(map(type, values.flat)) <= {int, float}:
        raise TypeError(f"{what} must be lists of numbers")
    return values.astype(np.float64)


def _checkpoint(path, payload, params: np.ndarray | None = None) -> Checkpoint:
    """The checkpoint that the decoded JSON ``payload`` of ``path`` holds,
    checked once; ``params``, the parameters in ``_flat_layers`` order,
    stand in for the payload's ``weights`` and ``biases`` where given."""
    if not isinstance(payload, dict):
        raise InputError(f"{path}: checkpoint must be a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported version {version!r}")
    try:
        layer_dims = [_typed(d, int, "a layer_dims entry") for d in payload["layer_dims"]]
        if params is None:
            weights = [_numbers(w, "weights") for w in payload["weights"]]
            biases = [_numbers(b, "biases") for b in payload["biases"]]
        activation = _typed(payload["activation"], str, "activation")
        normalization = _typed(payload["normalization"], dict, "normalization")
        n_classes = _typed(payload["n_classes"], int, "n_classes")
        train_config = _typed(payload["train_config"], dict, "train_config")
        rng_digest = _typed(payload["rng_digest"], str, "rng_digest")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed checkpoint field: {exc}") from exc
    if activation != ACTIVATION:
        raise InputError(f"{path}: unsupported activation {activation!r}")
    try:
        if params is not None:
            # Views of the vector, which the model copies in; a vector of
            # another length raises ValueError.
            _, weights, biases = _flat_layers(layer_dims, params)
        model = MlpModel(layer_dims, weights, biases)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if n_classes != model.n_classes:
        raise InputError(
            f"{path}: n_classes {n_classes} disagrees with output width {model.n_classes}"
        )
    if n_classes < 2:
        raise InputError(f"{path}: a checkpoint needs at least 2 classes, got {n_classes}")
    if not np.isfinite(model.params).all():
        raise InputError(f"{path}: non-finite weights or biases")
    return Checkpoint(model, normalization, train_config, rng_digest)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint and build its model, checking both once.

    The parameters come from the sidecar that :func:`save_checkpoint` wrote
    beside it where the sidecar's digest matches; otherwise, or where the
    sidecar fails a check, from the checkpoint's text, which alone raises."""
    raw = Path(path).read_bytes()
    try:
        digest, _, rest = Path(f"{path}.params").read_bytes().partition(b"\n")
        computed = hashlib.sha256(raw)
        computed.update(rest)
        if computed.hexdigest().encode("ascii") == digest:
            header, _, block = rest.partition(b"\n")
            return _checkpoint(path, json.loads(header), np.frombuffer(block, "<f8"))
    except (OSError, ValueError, RecursionError, InputError):
        pass  # a missing or unusable sidecar: the text decides
    try:
        payload = json.loads(read_text(path, "ascii", raw))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: corrupt checkpoint at byte {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{path}: corrupt checkpoint: nested too deeply to parse") from None
    return _checkpoint(path, payload)


def _rng_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
    return hashlib.sha256(state.encode("ascii")).hexdigest()


def fit(
    ind_set: Dataset,
    ood_set: Dataset | None,
    cfg: TrainConfig,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    on_epoch=lambda row: None,
) -> tuple[Checkpoint, list[EpochMetrics]]:
    """Train a fresh MLP on the datasets; returns a checkpoint that holds
    the trained model itself, and the epoch log. ``on_epoch`` is called
    with each epoch's row as the epoch ends, so a caller keeps the epochs
    that a run finished before it raised.

    Architecture is input -> hidden... -> K. Seeding: the config seed is
    split into one stream for weight init and one for batch construction.
    The Datasets checked their features and labels and :func:`make_batches`
    that their widths agree, so every batch meets :func:`train_step`'s
    contract.
    """
    n_classes = ind_set.n_classes
    if n_classes < 2:
        raise InputError(f"training needs at least 2 classes, got {n_classes}")
    init_seed, batch_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    model = init((ind_set.dim, *hidden, n_classes), init_seed)
    rng = np.random.default_rng(batch_seed)
    state = MomentumState(model)

    metrics: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        losses = [
            train_step(model, batch, cfg, state, batch_id=(epoch, batch_id))
            for batch_id, batch in enumerate(make_batches(ind_set, ood_set, cfg, rng))
        ]
        wall_ms = (time.perf_counter() - started) * 1000.0
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                ce_term=float(np.mean([l.ce_term for l in losses])),
                ood_term=float(np.mean([l.ood_term for l in losses])),
                total=float(np.mean([l.total for l in losses])),
                alpha_m=max(l.alpha_m for l in losses),
                m=min(l.m for l in losses),
                wall_ms=wall_ms,
            )
        )
        on_epoch(metrics[-1])
    train_config = asdict(cfg, dict_factory=_json_fields)
    return Checkpoint(model, ind_set.normalization, train_config, _rng_digest(rng)), metrics
