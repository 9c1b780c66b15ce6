"""Dataset containers, synthetic generators, splits, and IDX ingestion."""

import contextlib
import gzip
import io
import math
import os
import re
import signal
import struct
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wood.data
from wood.data import (
    IDX_IMAGES_MAGIC,
    Dataset,
    Role,
    SyntheticKind,
    SyntheticSpec,
    _parse_rows,
    _parse_rows_fast,
    _read_idx,
    load_dataset_csv,
    load_idx_pair,
    save_dataset_csv,
    synth,
    write_idx,
)
from wood.errors import InputError

from conftest import csv_texts, split


def blob_spec(**overrides):
    base = dict(
        kind=SyntheticKind.GAUSSIAN_BLOBS,
        k=3,
        n_per_class=200,
        dim=2,
        separation=4.0,
        noise=0.5,
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSynth:
    def test_blobs_shape_and_clusters(self):
        ds = synth(blob_spec())
        assert ds.n == 600
        assert ds.dim == 2
        assert ds.n_classes == 3
        centroids = np.array(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        )
        for a in range(3):
            for b in range(a + 1, 3):
                dist = np.linalg.norm(centroids[a] - centroids[b])
                assert dist >= 3 * 0.5

    def test_deterministic(self):
        a = synth(blob_spec())
        b = synth(blob_spec())
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_ring_radii_within_noise_of_separation(self):
        spec = SyntheticSpec(
            SyntheticKind.RING, n_per_class=100, dim=2, separation=4.0, noise=0.5, seed=1
        )
        ds = synth(spec)
        assert ds.n == 100
        assert ds.role is Role.OOD
        radii = np.linalg.norm(ds.features, axis=1)
        assert np.all(np.abs(radii - 4.0) <= 0.5 + 1e-12)

    def test_ring_is_unlabeled(self):
        ds = synth(SyntheticSpec(SyntheticKind.RING, n_per_class=10))
        with pytest.raises(InputError):
            _ = ds.labels

    def test_shifted_blob_displacement(self):
        spec = SyntheticSpec(
            SyntheticKind.SHIFTED_BLOB, n_per_class=300, dim=3, separation=4.0, noise=0.5, seed=2
        )
        ds = synth(spec)
        center = ds.features.mean(axis=0)
        np.testing.assert_allclose(center, [12.0, 0.0, 0.0], atol=0.15)

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            SyntheticSpec(SyntheticKind.RING, n_per_class=0)
        with pytest.raises(InputError):
            SyntheticSpec(SyntheticKind.GAUSSIAN_BLOBS, separation=-1.0)


class TestSplit:
    def test_stratified_counts(self):
        ds = synth(blob_spec(k=10, n_per_class=10))
        train, calib, test = split(ds, (0.6, 0.2, 0.2), seed=0)
        assert (train.n, calib.n, test.n) == (60, 20, 20)
        for part in (train, calib, test):
            counts = np.bincount(part.labels, minlength=10)
            assert np.all(counts == part.n // 10)

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = synth(blob_spec(n_per_class=50))
        parts = split(ds, (0.5, 0.25, 0.25), seed=3)
        stacked = np.vstack([p.features for p in parts])
        assert stacked.shape == ds.features.shape
        original = {tuple(row) for row in ds.features}
        recombined = {tuple(row) for row in stacked}
        assert original == recombined

    def test_bad_fractions(self):
        ds = synth(blob_spec(n_per_class=10))
        with pytest.raises(InputError):
            split(ds, (0.5, 0.5, 0.1), seed=0)
        with pytest.raises(InputError):
            split(ds, (0.8, 0.2, -0.0), seed=0)

    def test_deterministic(self):
        ds = synth(blob_spec(n_per_class=20))
        a = split(ds, (0.6, 0.2, 0.2), seed=9)
        b = split(ds, (0.6, 0.2, 0.2), seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_unlabeled_split(self):
        ds = synth(SyntheticSpec(SyntheticKind.RING, n_per_class=100))
        train, calib, test = split(ds, (0.6, 0.2, 0.2), seed=1)
        assert (train.n, calib.n, test.n) == (60, 20, 20)

    def test_impossible_stratification(self):
        features = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 1])
        ds = Dataset(features, labels, Role.IND)
        with pytest.raises(InputError):
            split(ds, (0.6, 0.2, 0.2), seed=0)


class TestIdx:
    def test_round_trip_plain_and_gzip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 3, size=7, dtype=np.uint8)
        for suffix in ("", ".gz"):
            ip = tmp_path / f"imgs{suffix or '.idx'}{suffix}"
            lp = tmp_path / f"lbls{suffix or '.idx'}{suffix}"
            write_idx(ip, images)
            write_idx(lp, labels)
            ds = load_idx_pair(ip, lp)
            assert ds.n == 7
            assert ds.dim == 20
            np.testing.assert_array_equal(ds.labels, labels)
            np.testing.assert_allclose(
                ds.features, images.reshape(7, -1) / 255.0, atol=0
            )

    def test_write_read_write_identical_bytes(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        p1 = tmp_path / "a.idx"
        p2 = tmp_path / "b.idx"
        write_idx(p1, images)
        reloaded = (np.frombuffer(p1.read_bytes()[16:], dtype=np.uint8)).reshape(3, 2, 2)
        write_idx(p2, reloaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labels_fed_as_images(self, tmp_path):
        labels = np.zeros(5, dtype=np.uint8)
        lp = tmp_path / "labels.idx"
        write_idx(lp, labels)
        with pytest.raises(InputError, match="magic"):
            load_idx_pair(lp, lp)

    def test_count_mismatch(self, tmp_path):
        for n_images, n_labels in ((4, 5), (5, 4)):
            write_idx(tmp_path / "imgs.idx", np.zeros((n_images, 2, 2), dtype=np.uint8))
            write_idx(tmp_path / "lbls.idx", np.zeros(n_labels, dtype=np.uint8))
            message = f"{n_labels} labels for {n_images} images in {tmp_path}/imgs.idx"
            message = f"^{tmp_path}/lbls.idx: {message}$"
            with pytest.raises(InputError, match=message):
                load_idx_pair(tmp_path / "imgs.idx", tmp_path / "lbls.idx")

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx(path, np.zeros((4, 3, 3), dtype=np.uint8))
        raw = path.read_bytes()
        path.write_bytes(raw[:20])
        with pytest.raises(InputError, match="byte"):
            load_idx_pair(path, None)

    def test_write_idx_bytes(self, tmp_path, rng):
        # The same tensor gives the same bytes, and the gzip file holds the
        # plain file's bytes.
        images = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        for name in ("a.idx", "b.idx", "a.gz", "b.gz"):
            write_idx(tmp_path / name, images)
        plain = (tmp_path / "a.idx").read_bytes()
        assert (tmp_path / "b.idx").read_bytes() == plain
        assert (tmp_path / "b.gz").read_bytes() == (tmp_path / "a.gz").read_bytes()
        assert gzip.decompress((tmp_path / "a.gz").read_bytes()) == plain

    @pytest.mark.parametrize("role", list(Role))
    def test_zero_images(self, tmp_path, role):
        path = tmp_path / "imgs.gz"
        write_idx(path, np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx(tmp_path / "lbls.gz", np.zeros(0, dtype=np.uint8))
        with pytest.raises(InputError, match=f"^{path}: no images$"):
            load_idx_pair(path, tmp_path / "lbls.gz", role=role)

    @pytest.mark.parametrize("role", list(Role))
    @pytest.mark.parametrize("dims", [(4, 0, 5), (4, 5, 0)])
    def test_images_without_pixels(self, tmp_path, role, dims):
        path = tmp_path / "imgs.gz"
        write_idx(path, np.zeros(dims, dtype=np.uint8))
        write_idx(tmp_path / "lbls.gz", np.zeros(4, dtype=np.uint8))
        message = f"{path}: images have no pixels, dims {dims}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_idx_pair(path, tmp_path / "lbls.gz", role=role)

    def test_ind_without_labels_file(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx(path, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(InputError, match=f"^{path}: InD IDX pair requires a labels file$"):
            load_idx_pair(path, None)

    @pytest.mark.parametrize(
        "dims", [(1 << 22, 1 << 21, 1 << 21), ((1 << 32) - 1,) * 3]
    )
    def test_payload_size_is_exact(self, tmp_path, dims):
        # Both products reach 2**64 or more, which an int64 product wraps.
        path = tmp_path / "imgs.idx"
        path.write_bytes(struct.pack(">4I", IDX_IMAGES_MAGIC, *dims))
        expected = 16 + math.prod(dims)
        message = f"^{path}: truncated IDX payload at byte 16 \\(expected {expected}\\)$"
        with pytest.raises(InputError, match=message):
            load_idx_pair(path, None, role=Role.OOD)

    def test_ood_role_drops_labels(self, tmp_path):
        write_idx(tmp_path / "imgs.idx", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "lbls.idx", np.zeros(2, dtype=np.uint8))
        ds = load_idx_pair(tmp_path / "imgs.idx", tmp_path / "lbls.idx", role=Role.OOD)
        with pytest.raises(InputError):
            _ = ds.labels

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        write_idx(tmp_path / "imgs.idx", images)
        write_idx(tmp_path / "lbls.idx", np.zeros(2, dtype=np.uint8))
        ds = load_idx_pair(tmp_path / "imgs.idx", tmp_path / "lbls.idx")
        assert np.all(ds.features == 1.0)
        assert ds.normalization == {"kind": "pixel_scale", "scale": 255.0}


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = synth(blob_spec(n_per_class=10))
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, Role.IND)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_ood_round_trip(self, tmp_path):
        ds = synth(SyntheticSpec(SyntheticKind.RING, n_per_class=10))
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, Role.OOD)
        np.testing.assert_array_equal(back.features, ds.features)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(InputError):
            load_dataset_csv(path, Role.IND)

    def test_header_without_feature_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label\n0\n1\n")
        with pytest.raises(InputError, match=f"^{path}: no feature columns$"):
            load_dataset_csv(path, Role.IND)

    def test_non_ascii_byte_names_its_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"f0,f1,label\n1.0,2.0,0\n3.0,\xe94.0,1\n")
        with pytest.raises(InputError, match=f"^{path}: byte 0xe9 at offset 26 is not ascii$"):
            load_dataset_csv(path, Role.IND)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,2.0,0\n\n3.0,4.0,1\n", ":3: expected 3 cells"),  # C reader skips blanks
            ("1.0,2.0,0\n3.0,4.0,1\n\n", ":4: expected 3 cells"),
            ("1.0,2.0,3.0\n", ":2: invalid literal for int() with base 10: '3.0'"),
            ("1.0,2.0,99999999999999999999\n", ":2: Python int too large to convert to C long"),
            ("", ": no data rows"),  # C reader only warns
        ],
    )
    def test_rejected_body_names_the_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n" + body)
        with pytest.raises(InputError) as info:
            load_dataset_csv(path, Role.IND)
        assert str(info.value) == f"{path}{message}"

    def test_cells_only_float_accepts(self, tmp_path):
        # The C reader declines "1_0"; the line loop parses it as float() does.
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\r\n1_0, 2.5 ,+1\r\n-0.0,1e-320,0\r\n")
        ds = load_dataset_csv(path, Role.IND)
        expected = np.array([[10.0, 2.5], [-0.0, 1e-320]])
        np.testing.assert_array_equal(ds.features.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.features.flags.c_contiguous


def _outcome(call):
    """``("ok", value)`` or ``(error class, message)``."""
    try:
        return "ok", call()
    except InputError as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


def _csv_text_row_by_row(ds):
    """The text of ``save_dataset_csv(ds)``, rendered one row and one value
    at a time."""
    labeled = ds.role is Role.IND
    lines = [",".join([f"f{i}" for i in range(ds.dim)] + (["label"] if labeled else []))]
    for i in range(ds.n):
        row = [repr(float(x)) for x in ds.features[i]]
        if labeled:
            row.append(str(int(ds.labels[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    role=st.sampled_from(Role),
    features=arrays(
        np.float64,
        st.tuples(st.integers(0, 5), st.integers(0, 4)),
        elements=st.sampled_from([-0.0, 5e-324, 1e300])
        | st.floats(allow_nan=False, allow_infinity=False),
    ),
    labels=st.lists(st.integers(0, 5), min_size=5, max_size=5),
)
@example(role=Role.IND, features=np.array([[-0.0, 5e-324, 1e300]]), labels=[5] * 5)
@example(role=Role.OOD, features=np.array([[-0.0], [5e-324], [1e300]]), labels=[0] * 5)
def test_csv_writer_matches_row_by_row_text(csv_path, role, features, labels):
    ds = Dataset(features, labels[: len(features)], role, n_classes=6)
    save_dataset_csv(ds, csv_path)
    assert csv_path.read_text(encoding="ascii") == _csv_text_row_by_row(ds)


def _loader_agrees_with_line_loop(csv_path, data):
    """Draw a dataset CSV into ``csv_path``, load it, and check the result
    against :func:`_parse_rows` and ``Dataset``. Returns the role, the data
    rows (``None`` for a file that is not ASCII) and the loader's outcome."""
    dim = data.draw(st.integers(1, 3))
    has_label = data.draw(st.booleans())
    role = data.draw(st.sampled_from(Role))
    text = data.draw(csv_texts(dim, has_label))
    raw = text.encode("latin-1")
    csv_path.write_bytes(raw)
    loaded = _outcome(lambda: load_dataset_csv(csv_path, role))
    if 0xE9 in raw:
        offset = raw.index(0xE9)
        assert loaded == (InputError, f"{csv_path}: byte 0xe9 at offset {offset} is not ascii")
        return role, None, loaded
    # The data rows as a text-mode file iterates them.
    lines = [line.rstrip("\n") for line in io.StringIO(text, newline=None)][1:]
    fast = _parse_rows_fast(csv_path)
    status, parsed = _outcome(lambda: _parse_rows(csv_path, lines, dim, has_label))
    if fast is not None:
        assert status == "ok"
        assert _same_bits(fast[0], parsed[0]) and fast[0].flags.c_contiguous
        if has_label:
            np.testing.assert_array_equal(fast[1], parsed[1])
            assert fast[1].dtype == parsed[1].dtype
    if status != "ok":
        assert loaded == (status, parsed)
        return role, lines, loaded
    expected = _outcome(lambda: Dataset(parsed[0], parsed[1] if role is Role.IND else None, role))
    if expected[0] != "ok":
        # The loader names its file in front of the Dataset's own message.
        assert loaded == (expected[0], f"{csv_path}: {expected[1]}")
        return role, lines, loaded
    assert loaded[0] == "ok"
    ds = loaded[1]
    assert _same_bits(ds.features, expected[1].features)
    if role is Role.IND:
        np.testing.assert_array_equal(ds.labels, expected[1].labels)
    return role, lines, loaded


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_reader_agrees_with_line_loop(csv_path, data):
    _loader_agrees_with_line_loop(csv_path, data)


def _same_outcome(a, b):
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    return _same_bits(a[1].features, b[1].features) and (
        a[1].role is Role.OOD or np.array_equal(a[1].labels, b[1].labels)
    )


# A line end as universal newlines read it.
LINE_END = re.compile(rb"\r\n|\r|\n")


def _cuts(raw, offsets):
    """How many of the cuts searched for from ``offsets`` fall before the end
    of ``raw``: the first line end at or after the offset, when a byte
    follows it."""
    return sum(bool(m) and m.end() < len(raw) for m in (LINE_END.search(raw, o) for o in offsets))


@contextlib.contextmanager
def _two_processes(cut_from):
    """Every file over one byte parses in two processes, as if on two CPUs,
    with the cut searched for from ``cut_from(body, size)``;
    yields the list of forks."""
    real_fork = os.fork
    forks = []
    with (
        mock.patch.object(wood.data, "_SPLIT_BYTES", 1),
        mock.patch.object(wood.data, "_cut_from", cut_from),
        mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True),
        mock.patch.object(os, "fork", lambda: forks.append(None) or real_fork()),
    ):
        yield forks
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_reader_agrees_with_line_loop(csv_path, data):
    # Every file parses in two processes, cut at a drawn offset, so a bad
    # cell, a blank line, an over-long label or a byte that is not ASCII
    # often lands in the child's range.
    offsets = []

    def cut_from(body, size):
        offsets.append(data.draw(st.integers(body, size), label="cut from"))
        return offsets[-1]

    with _two_processes(cut_from) as forks:
        role, _, split = _loader_agrees_with_line_loop(csv_path, data)
    assert len(forks) == _cuts(csv_path.read_bytes(), offsets)
    whole = _outcome(lambda: load_dataset_csv(csv_path, role))
    assert _same_outcome(split, whole), (split, whole)


# Rows under the header "f0,f1,label\r\n", with a cut searched for from each
# of their bytes: inside a cell, on a blank line and between \r and \n.
CUT_BODIES = {
    "mixed line ends": "0.5,1e-320,0\r\n-2.25, 7 ,1\r3.0,-0.0,2\n",
    "blank line": "0.5,1.0,0\n\n3.0,4.0,1\r\n",
    "bad cell": "0.5,1.0,0\r\n3.0,x,1\r\n-2.25,7,1\n",
    "not ascii": "0.5,1.0,0\r3.0,4.0,1\r-2.25,\xe9,1\r",
}


@pytest.mark.parametrize("body", CUT_BODIES.values(), ids=CUT_BODIES.keys())
def test_a_cut_at_any_offset_gives_the_one_process_outcome(tmp_path, body):
    path = tmp_path / "d.csv"
    header = b"f0,f1,label\r\n"
    raw = header + body.encode("latin-1")
    path.write_bytes(raw)
    whole = _outcome(lambda: load_dataset_csv(path, Role.IND))
    offsets = range(len(header), len(raw))
    forks = 0
    for offset in offsets:
        with _two_processes(lambda body, size: offset) as forked:
            split = _outcome(lambda: load_dataset_csv(path, Role.IND))
            forks += len(forked)
            # A file that loads is parsed by the C reader on both sides of the cut.
            accepted = _parse_rows_fast(path) is not None
        assert _same_outcome(split, whole), (offset, split, whole)
        assert accepted == (whole[0] == "ok")
    assert forks == _cuts(raw, offsets) > 0


class _Blocked(Exception):
    """A call blocked past its deadline (not an ``OSError``, which the loader
    would take for an unreadable file)."""


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``_Blocked`` in a call that blocks for ``seconds``."""

    def expired(signum, frame):
        raise _Blocked(f"blocked for {seconds} s")

    handler = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_opened_once(tmp_path):
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    # With no writer, opening the pipe would block: no byte range is looked
    # for in it, and the one-process load opens it once.
    with _deadline(10):
        assert wood.data._ranges(fifo) is None
    text = "f0,f1\n" + "0.5,1.0\n-2.25,7\n" * 10_000  # more than a pipe holds
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    with _deadline(10):
        ds = load_dataset_csv(fifo, Role.OOD)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert ds.features.tolist() == [[0.5, 1.0], [-2.25, 7.0]] * 10_000


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    """A labeled dataset CSV over the two-process threshold, and its data."""
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((2000, 50)), rng.integers(0, 3, 2000), Role.IND)
    path = tmp_path_factory.mktemp("big") / "big.csv"
    save_dataset_csv(ds, path)
    assert path.stat().st_size >= wood.data._SPLIT_BYTES
    return path, ds


class TestTwoProcessParse:
    def test_forks_once_and_keeps_the_bits(self, big_csv, monkeypatch):
        path, ds = big_csv
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        back = load_dataset_csv(path, Role.IND)
        assert len(forks) == 1
        assert _same_bits(back.features, ds.features) and back.features.flags.c_contiguous
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.labels.dtype == np.int64
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus, fork_error", [({0}, AssertionError), ({0, 1}, OSError)])
    def test_parses_in_one_process_without_a_fork(self, big_csv, monkeypatch, cpus, fork_error):
        # One CPU: the loader must not fork. A fork that fails (no memory or
        # process slot): it parses in one process.
        path, ds = big_csv
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def failing_fork():
            raise fork_error("fork")

        monkeypatch.setattr(os, "fork", failing_fork)
        back = load_dataset_csv(path, Role.IND)
        assert _same_bits(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_fork_warning_does_not_escape(self, big_csv, monkeypatch):
        # Python 3.12+ warns in the parent when it forks with threads alive.
        path, ds = big_csv
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn("use of fork() may lead to deadlocks", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = load_dataset_csv(path, Role.IND)
        assert caught == []
        assert _same_bits(back.features, ds.features)

    @pytest.mark.parametrize("row", [0, 999, 1000, 1999])
    def test_bad_cell_names_its_line_in_either_half(self, big_csv, tmp_path, monkeypatch, row):
        path, _ = big_csv
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        lines = path.read_text().split("\n")
        cells = lines[1 + row].split(",")
        lines[1 + row] = ",".join(cells[:1] + ["x"] + cells[2:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        # The child parses from row 1000 or 1001 on: rows 0 and 999 are this
        # process's, rows 1000 and 1999 the child's.
        cut = wood.data._ranges(bad)[3]
        first_child_row = bad.read_bytes()[:cut].count(b"\n") - 1
        assert (row >= first_child_row) == (row >= 1000)
        with pytest.raises(InputError) as info:
            load_dataset_csv(bad, Role.IND)
        assert str(info.value) == f"{bad}:{row + 2}: could not convert string to float: 'x'"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def idx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("idx") / "drawn.idx"


# The most payload bytes a drawn IDX file holds: a larger payload is cut to
# this many, so no case allocates the payload that its header asks for.
_PAYLOAD_CAP = 1 << 12


@settings(max_examples=300, deadline=None)
@given(
    dims=st.lists(
        st.one_of(
            st.integers(0, 5),
            st.integers(0, (1 << 32) - 1),
            st.sampled_from([1 << 21, 1 << 22, 1 << 31, (1 << 32) - 1]),
        ),
        min_size=1,
        max_size=4,
    ),
    payload=st.sampled_from(["exact", "short", "absent"]),
)
@example(dims=[0, (1 << 32) - 1, (1 << 32) - 1], payload="exact")  # empty, but too large
@example(dims=[3, 4, 5], payload="exact")
def test_read_idx_any_header(idx_path, dims, payload):
    # Any header of rank 1 to 4, even one whose dims multiply to 2**64 or
    # more: the tensor of exactly that shape, or an InputError.
    magic = 0x0800 | len(dims)
    size = math.prod(dims)
    wanted = {"exact": size, "short": size - 1, "absent": 0}[payload]
    held = min(max(wanted, 0), _PAYLOAD_CAP)  # an empty tensor has no short payload
    header = struct.pack(f">{len(dims) + 1}I", magic, *dims)
    idx_path.write_bytes(header + bytes(held))
    try:
        tensor = _read_idx(idx_path, magic)
    except InputError as exc:
        message = str(exc)
    else:
        message = None
        assert tensor.shape == tuple(dims) and tensor.dtype == np.uint8
    if held < size:
        expected = len(header) + size
        assert message == (
            f"{idx_path}: truncated IDX payload at byte {len(header) + held}"
            f" (expected {expected})"
        )
    # NumPy holds an empty tensor only where its other dims multiply to at
    # most the largest intp.
    elif math.prod(d for d in dims if d) > np.iinfo(np.intp).max:
        assert message == f"{idx_path}: IDX dims {tuple(dims)} are too large for one array"
    else:
        assert message is None


class TestIdxTrainingFlow:
    def test_idx_pair_feeds_training(self, tmp_path, rng):
        # Miniature image-classification flow: two 6x6 patterns with pixel
        # noise, written as gzipped IDX, loaded, and trained on. Exercises
        # the same wiring the MNIST acceptance run uses.
        n = 60
        images = rng.integers(0, 60, size=(2 * n, 6, 6), dtype=np.uint8)
        images[:n, :3, :] = np.minimum(images[:n, :3, :] + 180, 255)
        images[n:, 3:, :] = np.minimum(images[n:, 3:, :] + 180, 255)
        labels = np.repeat(np.array([0, 1], dtype=np.uint8), n)
        write_idx(tmp_path / "imgs.gz", images)
        write_idx(tmp_path / "lbls.gz", labels)
        ds = load_idx_pair(tmp_path / "imgs.gz", tmp_path / "lbls.gz")

        from wood.model import forward
        from wood.trainer import TrainConfig, fit

        cfg = TrainConfig(epochs=5, b_ind=30, b_ood=0, seed=0)
        ckpt, _ = fit(ds, None, cfg, hidden=(16,))
        model = ckpt.model
        preds = np.argmax(forward(model, ds.features).probs, axis=1)
        assert np.mean(preds == ds.labels) >= 0.95
        assert ckpt.normalization == {"kind": "pixel_scale", "scale": 255.0}


class TestDatasetContract:
    def test_ood_constructor_ignores_labels(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), Role.OOD)
        with pytest.raises(InputError):
            _ = ds.labels

    def test_ind_requires_labels(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((3, 2)), None, Role.IND)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(InputError):
            Dataset(np.array([[np.inf, 0.0]]), None, Role.OOD)

    def test_zero_ind_rows_need_n_classes(self):
        with pytest.raises(InputError, match="^InD dataset has no rows to infer n_classes from$"):
            Dataset(np.zeros((0, 2)), np.zeros(0), Role.IND)
        ds = Dataset(np.zeros((0, 2)), np.zeros(0), Role.IND, n_classes=3)
        assert (ds.n, ds.n_classes) == (0, 3)

    def test_rejects_non_integer_labels(self):
        # The first label the int64 cast would change is named; integral
        # floats are class indices like any other.
        with pytest.raises(InputError, match=r"^label 1\.5 in row 1 is not an integer$"):
            Dataset(np.zeros((3, 2)), np.array([1.0, 1.5, 2.99]), Role.IND)
        with pytest.raises(InputError, match=r"^label nan in row 0 is not an integer$"):
            Dataset(np.zeros((1, 2)), np.array([np.nan]), Role.IND)
        with pytest.raises(InputError, match="^labels must be nonnegative class indices$"):
            Dataset(np.zeros((2, 2)), np.array([0.0, -1.0]), Role.IND)
        assert Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]), Role.IND).labels.tolist() == [0, 1]
