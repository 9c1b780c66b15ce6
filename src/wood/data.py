"""Dataset containers, IDX image-file ingestion, synthetic generators.

Out-of-distribution datasets are structurally unlabeled: the ``labels``
accessor raises for OOD-role datasets, so no downstream computation can
consume a label it should not have.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from stat import S_ISREG

import numpy as np

from ._split import beside
from .errors import InputError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class Role(Enum):
    IND = "ind"
    OOD = "ood"


class Dataset:
    """Immutable feature matrix with optional labels.

    ``normalization`` records how raw values were scaled at load time so a
    checkpoint can echo it.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray | None,
        role: Role,
        n_classes: int | None = None,
        normalization: dict | None = None,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise InputError(f"features must be 2-D, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise InputError("features contain non-finite values")
        self.features = features
        self.role = role
        self.normalization = dict(normalization) if normalization else {"kind": "identity"}
        if role is Role.OOD:
            self._labels = None
            self._n_classes = None
        else:
            if labels is None:
                raise InputError("InD dataset requires labels")
            given = np.asarray(labels)
            # A fractional, NaN or out-of-range label changes on the cast,
            # which the comparison below catches.
            with np.errstate(invalid="ignore"):
                labels = given.astype(np.int64, copy=False)
            if labels.shape != (features.shape[0],):
                raise InputError(
                    f"labels shape {labels.shape} does not match {features.shape[0]} samples"
                )
            changed = np.flatnonzero(labels != given)
            if changed.size:
                row = int(changed[0])
                raise InputError(f"label {given.tolist()[row]!r} in row {row} is not an integer")
            if np.any(labels < 0):
                raise InputError("labels must be nonnegative class indices")
            if n_classes is None and labels.size == 0:
                raise InputError("InD dataset has no rows to infer n_classes from")
            self._labels = labels
            self._n_classes = int(n_classes) if n_classes is not None else int(labels.max()) + 1
            if np.any(labels >= self._n_classes):
                raise InputError(
                    f"label {int(labels.max())} is out of range for {self._n_classes} classes"
                )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labels(self) -> np.ndarray:
        if self.role is Role.OOD:
            raise InputError("OOD datasets carry no labels")
        return self._labels

    @property
    def n_classes(self) -> int:
        if self.role is Role.OOD:
            raise InputError("OOD datasets carry no class structure")
        return self._n_classes


class SyntheticKind(Enum):
    GAUSSIAN_BLOBS = "blobs"
    RING = "ring"
    SHIFTED_BLOB = "shifted"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic generators.

    ``n_per_class`` is per-class for blobs and the total count for the
    unlabeled OOD kinds. ``separation`` places blob centers (radius of the
    center circle) or sets the ring radius / shifted-blob displacement base.
    """

    kind: SyntheticKind
    k: int = 3
    n_per_class: int = 200
    dim: int = 2
    separation: float = 4.0
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise InputError(f"need k >= 2 classes, got {self.k}")
        if self.n_per_class < 1:
            raise InputError(f"need n_per_class >= 1, got {self.n_per_class}")
        if self.dim < 2:
            raise InputError(f"need dim >= 2, got {self.dim}")
        if self.separation <= 0 or self.noise <= 0:
            raise InputError("separation and noise must be positive")


def _blob_centers(k: int, dim: int, separation: float) -> np.ndarray:
    # Centers sit on a circle in the first two coordinates; equally spaced
    # angles make the centroid exactly the origin.
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = np.zeros((k, dim))
    centers[:, 0] = separation * np.cos(angles)
    centers[:, 1] = separation * np.sin(angles)
    return centers


def synth(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset for the given spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind is SyntheticKind.GAUSSIAN_BLOBS:
        centers = _blob_centers(spec.k, spec.dim, spec.separation)
        features = np.vstack(
            [
                centers[c] + spec.noise * rng.standard_normal((spec.n_per_class, spec.dim))
                for c in range(spec.k)
            ]
        )
        labels = np.repeat(np.arange(spec.k), spec.n_per_class)
        return Dataset(features, labels, Role.IND, n_classes=spec.k)

    if spec.kind is SyntheticKind.RING:
        # Annulus of radius `separation` around the blob centroid (the
        # origin): every point's radius stays within `noise` of it.
        n = spec.n_per_class
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = spec.separation + spec.noise * rng.uniform(-1.0, 1.0, size=n)
        features = np.zeros((n, spec.dim))
        features[:, 0] = radii * np.cos(angles)
        features[:, 1] = radii * np.sin(angles)
        return Dataset(features, None, Role.OOD)

    if spec.kind is SyntheticKind.SHIFTED_BLOB:
        n = spec.n_per_class
        center = np.zeros(spec.dim)
        center[0] = 3.0 * spec.separation
        features = center + spec.noise * rng.standard_normal((n, spec.dim))
        return Dataset(features, None, Role.OOD)

    raise InputError(f"unknown synthetic kind {spec.kind!r}")


def _read_idx(path: str | Path, expected_magic: int) -> np.ndarray:
    """The tensor of the IDX file ``path`` (gzip detected by its magic), whose
    magic must be ``expected_magic``."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if len(blob) < 4:
        raise InputError(f"{path}: truncated IDX header at byte {len(blob)}")
    (magic,) = struct.unpack(">I", blob[:4])
    ndim = magic & 0xFF
    # Only unsigned-byte tensors of sane rank are valid here; anything else
    # is a wrong or corrupted magic.
    if (magic >> 8) != 0x08 or not 1 <= ndim <= 4:
        raise InputError(f"{path}: bad magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise InputError(f"{path}: truncated IDX header at byte {len(blob)}")
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    expected = header_len + math.prod(dims)
    if len(blob) < expected:
        raise InputError(
            f"{path}: truncated IDX payload at byte {len(blob)} (expected {expected})"
        )
    if magic != expected_magic:
        raise InputError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    try:
        return np.frombuffer(blob[header_len:expected], dtype=np.uint8).reshape(dims)
    except ValueError:  # an empty tensor whose other dims multiply past NumPy's size limit
        raise InputError(f"{path}: IDX dims {dims} are too large for one array") from None


def load_idx_pair(
    images_path: str | Path,
    labels_path: str | Path | None,
    role: Role = Role.IND,
) -> Dataset:
    """Load a big-endian IDX image/label file pair (gzip detected by magic).

    Pixels are scaled to [0, 1] and flattened to one row per image. For the
    OOD role (or a missing labels file) labels are dropped entirely. Every
    ``InputError`` names the file it is about.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    n = images.shape[0]
    if n == 0:
        raise InputError(f"{images_path}: no images")
    if images.size == 0:
        raise InputError(f"{images_path}: images have no pixels, dims {images.shape}")
    features = images.reshape(n, -1) / 255.0

    labels = None
    if labels_path is not None:
        larray = _read_idx(labels_path, IDX_LABELS_MAGIC)
        if larray.shape[0] != n:
            message = f"{larray.shape[0]} labels for {n} images in {images_path}"
            raise InputError(f"{labels_path}: {message}")
        labels = larray.astype(np.int64)
    elif role is Role.IND:
        raise InputError(f"{images_path}: InD IDX pair requires a labels file")

    return Dataset(
        features,
        labels,
        role,
        normalization={"kind": "pixel_scale", "scale": 255.0},
    )


def write_idx(path: str | Path, array: np.ndarray) -> None:
    """Write a uint8 tensor in IDX format (1-D = labels, 3-D = images).

    Gzip-compresses at deflate level 1 when the path ends in ``.gz``: about
    8 times faster than level 9 for files about 3.6% larger, and the reader
    takes any level. Round-trips bit-exactly through :func:`load_idx_pair`'s
    reader.
    """
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 1:
        magic = IDX_LABELS_MAGIC
    elif array.ndim == 3:
        magic = IDX_IMAGES_MAGIC
    else:
        raise InputError(f"IDX writer supports 1-D or 3-D uint8 tensors, got {array.ndim}-D")
    blob = struct.pack(">I", magic)
    blob += struct.pack(f">{array.ndim}I", *array.shape)
    blob += array.tobytes()
    path = Path(path)
    if path.suffix == ".gz":
        # mtime=0 keeps the compressed bytes deterministic.
        path.write_bytes(gzip.compress(blob, compresslevel=1, mtime=0))
    else:
        path.write_bytes(blob)


def save_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Write features (and labels for InD data) as a headered CSV.

    Floats are rendered with ``repr`` so files are deterministic and values
    reload exactly.
    """
    header = [f"f{i}" for i in range(ds.dim)]
    rows = ds.features.tolist()
    if ds.role is Role.IND:
        header.append("label")
        rows = [[*row, label] for row, label in zip(rows, ds.labels.tolist())]
    lines = [",".join(header)]
    lines += (",".join(map(repr, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_text(path: str | Path, encoding: str, raw: bytes | None = None) -> str:
    """The text of ``path`` (decoded from ``raw``, where its bytes are already
    read), with universal newlines as a text-mode file reads it. A byte that
    is not ``encoding`` raises ``InputError`` naming the path and the byte's
    offset."""
    try:
        text = (Path(path).read_bytes() if raw is None else raw).decode(encoding)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        message = f"{path}: byte 0x{byte:02x} at offset {exc.start} is not {encoding}"
        raise InputError(message) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_dataset_csv(path: str | Path, role: Role) -> Dataset:
    """Load a dataset CSV written by :func:`save_dataset_csv`.

    The file is ASCII text: a header ``f0,...,f{d-1}`` (``d >= 1``) with an
    optional last column ``label``, then one row per line, no blank lines.
    Feature cells are what ``float()`` accepts and labels what ``int()``
    accepts. Every ``InputError`` names the file, and a bad row ``path:line``.

    A file of at least ``_SPLIT_BYTES`` bytes has its rows cut at a line end
    into two byte ranges, the second parsed in a forked child
    (:func:`_parse_rows_fast`); where no child is forked, one process parses
    both ranges in turn.
    """
    parsed = _parse_rows_fast(path)
    if parsed is None:
        # Only the lines stay referenced: the file's text goes once it is split.
        lines = read_text(path, "ascii").split("\n")
        dim, has_label = _columns(path, lines.pop(0))
        if lines[-1:] == [""]:  # the newline that ends the last row starts no row
            lines.pop()
        parsed = _parse_rows(path, lines, dim, has_label)
    features, labels = parsed
    try:
        return Dataset(features, labels if role is Role.IND else None, role)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _columns(path, header: str) -> tuple[int, bool]:
    """``(dim, has_label)`` of the header line ``header``."""
    header = header.strip()
    if not header:
        raise InputError(f"{path}: empty CSV")
    columns = header.split(",")
    has_label = columns[-1] == "label"
    dim = len(columns) - has_label
    if dim == 0:
        raise InputError(f"{path}: no feature columns")
    return dim, has_label


# A file of at least this many bytes parses in two processes. A fork of the
# loader and the restart of the BLAS threads that OpenBLAS stops before a
# fork cost about 5 ms; 400 kB of 4-byte cells ("0.5,") take about 30 ms to
# parse, so the half that the child takes over is worth three forks.
_SPLIT_BYTES = 400_000


class _Declined(Exception):
    """NumPy's C reader declined a byte range: :func:`_parse_rows` decides."""


def _line_end(file, offset: int) -> tuple[bytes, int]:
    """The bytes of ``file`` from ``offset`` to the first line end (``\\n``,
    ``\\r\\n`` or ``\\r``, as universal newlines read them) at or after it, and
    the offset just past that line end (the file's size where there is none)."""
    file.seek(offset)
    line = file.readline()  # up to and including the first \n
    cr = line.find(b"\r")
    if cr < 0:
        return line.removesuffix(b"\n"), offset + len(line)
    return line[:cr], offset + cr + (2 if line[cr + 1 : cr + 2] == b"\n" else 1)


def _cut_from(body: int, size: int) -> int:
    """Where the search for the line end that cuts the rows at ``[body,
    size)`` starts: the middle of their bytes."""
    return (body + size) // 2


def _ranges(path):
    """``(dim, has_label, body, cut, size)`` of the dataset CSV ``path``: the
    rows are the bytes ``[body, size)``, to be cut at ``cut`` (``size`` for a
    file under ``_SPLIT_BYTES``). ``None`` where the file cannot be read
    twice or its header is bad: the one-process load names the error."""
    try:
        stat = os.stat(path)
        if not S_ISREG(stat.st_mode):  # a pipe, which can be opened and read only once
            return None
        size = stat.st_size
        with open(path, "rb") as file:
            header, body = _line_end(file, 0)
            dim, has_label = _columns(path, header.decode("ascii"))
            cut = size
            if size >= _SPLIT_BYTES:
                _, cut = _line_end(file, _cut_from(body, size))
    except (OSError, ValueError, InputError):
        return None
    return dim, has_label, body, cut, size


def _parse_rows_fast(path):
    """``(features, labels)`` of the dataset CSV ``path`` parsed by NumPy's C
    reader, or ``None`` where it declines them and the one-process
    :func:`_parse_rows` decides.

    The rows are cut at the first line end after about the middle of their
    bytes (:func:`_ranges`). Each range is read, decoded and parsed on its
    own, the second in a forked child (:func:`wood._split.beside`) while the
    first parses here; a file that is not cut has an empty second range.
    Each line parses on its own, so the ranges give the bits of the whole.
    The C reader parses a cell to the same bits as ``float()`` or ``int()``.
    A range is declined where it is not ASCII, or the C reader raises
    ``ValueError``, warns (it only warns when there are no rows) or skips
    blank lines, which :func:`_parse_rows` rejects: then it returns fewer
    rows than lines. A range that the child declines is parsed again here
    before the decline reaches the caller: a bad file costs one more range
    parse."""
    ranges = _ranges(path)
    if ranges is None:
        return None
    dim, has_label, body, cut, size = ranges
    dtype = np.dtype([("x", np.float64, (dim,))] + ([("y", np.int64)] if has_label else []))

    def parse(start: int, stop: int) -> np.ndarray:
        try:
            with open(path, "rb") as file:
                file.seek(start)
                text = file.read(stop - start).decode("ascii")
            if "\r" in text:  # universal newlines, as read_text reads them
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            # Only the lines stay referenced: the text goes once it is split.
            lines = text.split("\n")
            del text
            if lines[-1:] == [""]:
                lines.pop()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning) as exc:
            raise _Declined from exc
        if rows.shape != (len(lines),):  # the C reader skipped a blank line
            raise _Declined
        return rows

    def there() -> np.ndarray:  # an empty part where the file is not cut
        return parse(cut, size) if cut < size else np.empty(0, dtype)

    try:
        mine, theirs = beside(lambda: parse(body, cut), there, cut < size)
    except _Declined:
        return None
    parts = (mine, np.frombuffer(theirs, dtype))
    labels = np.concatenate([rows["y"] for rows in parts]) if has_label else None
    return np.concatenate([rows["x"] for rows in parts]), labels


def _parse_rows(path, lines: list[str], dim: int, has_label: bool):
    """``(features, labels)`` of the CSV rows ``lines``, one line at a time:
    the reference for :func:`_parse_rows_fast`, and the parser that names
    the line of a bad row."""
    n_columns = dim + (1 if has_label else 0)
    features = []
    labels = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.strip().split(",")
        if len(cells) != n_columns:
            raise InputError(f"{path}:{lineno}: expected {n_columns} cells")
        try:
            features.append([float(c) for c in cells[:dim]])
            if has_label:
                labels.append(np.int64(int(cells[dim])))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not features:
        raise InputError(f"{path}: no data rows")
    return np.array(features), (np.array(labels, dtype=np.int64) if has_label else None)
