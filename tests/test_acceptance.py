"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criterion 7 needs MNIST/FashionMNIST IDX files on disk and skips
with instructions when they are absent.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import wood.geometry
from wood.cli import main as cli_main
from wood.data import Role, SyntheticKind, SyntheticSpec, load_idx_pair, synth
from wood.detect import calibrate, evaluate
from wood.geometry import EvalPath, ScoreConfig, binary_matrix, scores
from wood.model import forward
from wood.oracles import (
    center_gradient,
    dynamic_matrix,
    fd_gradient,
    forced_transport,
    lp_transport,
    one_hot,
    pairwise_auroc,
)
from wood.trainer import (
    TrainConfig,
    fit,
    load_checkpoint,
    metrics_csv_lines,
    save_checkpoint,
)
from wood.transport import CostKind, SinkhornConfig, sinkhorn_gradient

from conftest import solve_one, split

CLOSED_BINARY = ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)
CLOSED_DYNAMIC = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def dirichlet(rng, k, floor=0.0):
    p = rng.dirichlet(np.ones(k))
    if floor:
        p = (1.0 - k * floor) * p + floor
    return p


def test_c01_transport_correctness():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    with criterion(1, "transport correctness"):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            m = rng.uniform(0.0, 1.0, (k, k))
            r1 = dirichlet(rng, k)
            r2 = dirichlet(rng, k)
            exact, _ = lp_transport(r1, r2, m)
            errors = []
            for lam in (1.0, 10.0, 100.0):
                cfg = SinkhornConfig(lam=lam, max_iter=20000, tol=1e-12)
                errors.append(abs(solve_one(r1, r2, m, cfg).value - exact))
            tolerance = max(0.02 * abs(exact), 1e-3)
            assert errors[2] <= tolerance, (exact, errors)
            assert errors[2] <= errors[1] + 1e-12
            assert errors[1] <= errors[0] + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_c02_gradient_fidelity():
    rng = np.random.default_rng(202)
    with criterion(2, "gradient fidelity"):
        # Sinkhorn dual gradient vs finite differences of the regularized
        # objective at lam=10.
        cfg = SinkhornConfig(lam=10.0, max_iter=20000, tol=1e-13)
        for _ in range(50):
            k = int(rng.choice([2, 3, 5]))
            m = rng.uniform(0.0, 1.0, (k, k))
            r1 = dirichlet(rng, k, floor=0.02)
            r2 = dirichlet(rng, k, floor=0.02)
            result = solve_one(r1, r2, m, cfg)
            dual = center_gradient(sinkhorn_gradient(result, cfg))
            fd = fd_gradient(
                lambda x: solve_one(r1, x, m, cfg).reg_value, r2, step=1e-5
            )
            assert np.linalg.norm(dual - fd) <= 1e-3 * np.linalg.norm(fd)

        # Closed-form gradients of the negated score (the loss-term
        # orientation: dynamic 2f-1 centered, binary +e_{k*} centered)
        # against finite differences.
        for _ in range(50):
            k = int(rng.choice([2, 3, 5]))
            f = dirichlet(rng, k, floor=0.02)
            dynamic = center_gradient(2.0 * f - 1.0)
            fd_dyn = fd_gradient(lambda x: float(x @ x) - 1.0, f, step=1e-5)
            assert np.linalg.norm(dynamic - fd_dyn) <= 1e-6 * max(
                np.linalg.norm(fd_dyn), 1e-12
            )
            while np.diff(np.sort(f))[-1] < 1e-3:
                f = dirichlet(rng, k, floor=0.02)
            binary = center_gradient(one_hot(int(np.argmax(f)), k))
            fd_bin = fd_gradient(lambda x: float(np.max(x)) - 1.0, f, step=1e-5)
            assert np.linalg.norm(binary - fd_bin) <= 1e-6 * np.linalg.norm(fd_bin)


def test_c03_closed_form_identities():
    rng = np.random.default_rng(303)
    with criterion(3, "closed-form identities"):
        for _ in range(500):
            k = int(rng.integers(2, 11))
            f = dirichlet(rng, k)
            dyn_expect = 1.0 - float(f @ f)
            binary = binary_matrix(k)
            for label in range(k):
                assert forced_transport(label, f, binary) == 1.0 - f[label]
                exact = forced_transport(label, f, dynamic_matrix(f, label))
                assert abs(exact - dyn_expect) <= 1e-12
            values, classes = scores(f[None, :], CLOSED_BINARY)
            assert values[0] == 1.0 - np.max(f)
            assert classes[0] == np.argmax(f)
            assert scores(f[None, :], CLOSED_DYNAMIC)[0][0] == dyn_expect


def test_c04_dynamic_label_invariance():
    rng = np.random.default_rng(404)
    with criterion(4, "dynamic label invariance"):
        for _ in range(500):
            k = int(rng.integers(2, 11))
            f = dirichlet(rng, k)
            values = {forced_transport(label, f, dynamic_matrix(f, label)) for label in range(k)}
            assert len(values) == 1
        sinkhorn = SinkhornConfig(lam=50.0)
        for _ in range(100):
            f = dirichlet(rng, 10)
            values = [
                solve_one(one_hot(label, 10), f, dynamic_matrix(f, label), sinkhorn).value
                for label in range(10)
            ]
            assert max(values) - min(values) <= 1e-6


def test_c05_uniform_attains_maximum():
    rng = np.random.default_rng(505)
    with criterion(5, "uniform maximizes dynamic score"):
        for k in (2, 5, 10):
            uniform = np.full(k, 1.0 / k)
            top = scores(uniform[None, :], CLOSED_DYNAMIC)[0][0]
            assert abs(top - (1.0 - 1.0 / k)) <= 1e-12
            batch = np.array([dirichlet(rng, k) for _ in range(1000)])
            assert np.all(scores(batch, CLOSED_DYNAMIC)[0] < top)


# ---------------------------------------------------------------------------
# End-to-end synthetic pipeline (shared by criteria 6 and 10).
# ---------------------------------------------------------------------------

SYNTH_SEED = 7


def run_synthetic_pipeline():
    """The end-to-end desk-scale run: blobs InD, centroid-hole ring OOD."""
    ind = synth(
        SyntheticSpec(
            SyntheticKind.GAUSSIAN_BLOBS,
            k=3, n_per_class=200, dim=2, separation=4.0, noise=0.5, seed=SYNTH_SEED,
        )
    )
    # The ring sits in the hole at the centroid of the class circle: >= 5
    # sigma from every blob center, and close enough to the data that the
    # score penalty can actually shape it (a far-out ring saturates the
    # softmax and stalls).
    ood = synth(
        SyntheticSpec(
            SyntheticKind.RING,
            n_per_class=600, dim=2, separation=0.5, noise=0.5, seed=8,
        )
    )
    ind_train, ind_calib, ind_test = split(ind, (0.6, 0.2, 0.2), seed=SYNTH_SEED)
    ood_train, _, ood_test = split(ood, (0.6, 0.2, 0.2), seed=SYNTH_SEED)

    cfg = TrainConfig(
        epochs=50, beta=0.1, b_ind=50, b_ood=10, lr=0.01, momentum=0.9,
        seed=SYNTH_SEED, score=CLOSED_DYNAMIC,
    )
    started = time.perf_counter()
    ckpt, metrics = fit(ind_train, ood_train, cfg, hidden=(128, 64))
    model = ckpt.model

    test_probs = forward(model, ind_test.features).probs
    accuracy = float(np.mean(np.argmax(test_probs, axis=1) == ind_test.labels))
    ind_scores, _ = scores(test_probs, CLOSED_DYNAMIC)
    calib_scores, _ = scores(forward(model, ind_calib.features).probs, CLOSED_DYNAMIC)
    ood_scores, _ = scores(forward(model, ood_test.features).probs, CLOSED_DYNAMIC)
    # Threshold fitted on the held-out calibration slice; TNR/FNR/AUROC
    # evaluated on the untouched test slices.
    report = evaluate(calib_scores, ind_scores, ood_scores, 0.95)
    wall = time.perf_counter() - started
    return {
        "ckpt": ckpt,
        "metrics": metrics,
        "accuracy": accuracy,
        "ind_scores": ind_scores,
        "calib_scores": calib_scores,
        "ood_scores": ood_scores,
        "report": report,
        "wall": wall,
        "features": ind_test.features,
    }


@pytest.fixture(scope="module")
def synthetic_run():
    return run_synthetic_pipeline()


def test_c06_end_to_end_synthetic(synthetic_run):
    with criterion(6, "end-to-end synthetic run"):
        assert synthetic_run["wall"] <= 60.0
        assert synthetic_run["accuracy"] >= 0.97
        assert synthetic_run["report"].auroc >= 0.99
        assert synthetic_run["report"].fnr_at_tnr <= 0.05
        target = 0.8 * (1.0 - 1.0 / 3.0)
        assert float(synthetic_run["ood_scores"].mean()) >= target


MNIST_FILES = ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
               "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")


def _idx_dir(env_var, default_name):
    root = Path(__file__).resolve().parents[1]
    base = Path(os.environ.get(env_var, root / "data" / default_name))
    if all((base / name).exists() for name in MNIST_FILES):
        return base
    return None


def test_c07_mnist_fashion_run():
    mnist = _idx_dir("WOOD_MNIST_DIR", "mnist")
    fashion = _idx_dir("WOOD_FASHION_MNIST_DIR", "fashion-mnist")
    if mnist is None or fashion is None:
        pytest.skip(
            "MNIST/FashionMNIST IDX files not found; place the four standard"
            " *.gz files under data/mnist and data/fashion-mnist (or set"
            " WOOD_MNIST_DIR / WOOD_FASHION_MNIST_DIR) to run this criterion"
        )
    with criterion(7, "MNIST vs FashionMNIST"):
        started = time.perf_counter()
        ind_train = load_idx_pair(
            mnist / MNIST_FILES[0], mnist / MNIST_FILES[1], role=Role.IND
        )
        ind_test = load_idx_pair(
            mnist / MNIST_FILES[2], mnist / MNIST_FILES[3], role=Role.IND
        )
        ood_train = load_idx_pair(
            fashion / MNIST_FILES[0], fashion / MNIST_FILES[1], role=Role.OOD
        )
        ood_test = load_idx_pair(
            fashion / MNIST_FILES[2], fashion / MNIST_FILES[3], role=Role.OOD
        )
        cfg = TrainConfig(
            epochs=10, beta=0.1, b_ind=50, b_ood=10, lr=0.01, momentum=0.9,
            seed=7, score=CLOSED_DYNAMIC,
        )
        ckpt, _ = fit(ind_train, ood_train, cfg, hidden=(128, 64))
        model = ckpt.model

        ind_scores, _ = scores(forward(model, ind_test.features).probs, CLOSED_DYNAMIC)
        ood_scores, _ = scores(forward(model, ood_test.features).probs, CLOSED_DYNAMIC)
        report = evaluate(ind_scores, ind_scores, ood_scores, 0.95)
        elapsed = time.perf_counter() - started
        print(
            f"  mnist: auroc={report.auroc:.4f} fnr={report.fnr_at_tnr:.4f}"
            f" wall={elapsed:.0f}s"
        )
        assert report.auroc >= 0.95
        assert report.fnr_at_tnr <= 0.30
        assert elapsed <= 900.0


def test_c08_metrics_oracle_equivalence():
    rng = np.random.default_rng(808)
    with criterion(8, "metrics oracle equivalence"):
        for trial in range(100):
            n_ind = int(rng.integers(5, 201))
            n_ood = int(rng.integers(5, 201))
            if trial % 3 == 0:
                ind = np.round(rng.normal(size=n_ind), 1)
                ood = np.round(rng.normal(size=n_ood), 1)
            else:
                ind = rng.normal(size=n_ind)
                ood = rng.normal(size=n_ood)
            report = evaluate(ind, ind, ood, 0.95)
            assert report.auroc == pairwise_auroc(ind, ood)
            target = float(rng.uniform(0.5, 0.99))
            calibrate(rng.normal(size=n_ind), target)
            # re-draw is independent: recompute band on the calibration list
        for _ in range(50):
            n = int(rng.integers(10, 400))
            scores = rng.normal(size=n)
            target = float(rng.uniform(0.5, 0.99))
            epsilon = calibrate(scores, target)
            achieved = float(np.mean(scores <= epsilon))
            assert target <= achieved <= target + 1.0 / n + 1e-12


def test_c09_complexity_trend(tmp_path):
    with criterion(9, "binary/dynamic complexity trend"):
        out = tmp_path / "bench"
        code = cli_main(
            [
                "bench-score",
                "--k", "10,50,100",
                "--repeats", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            cells = line.split(",")
            k = int(cells[0])
            ratio = float(cells[3])
            print(f"  K={k}: binary/dynamic ratio {ratio:.1f} (need >= {k / 2})")
            assert ratio >= k / 2.0


@pytest.mark.parametrize("k", [10, 50, 100])
def test_c09_solve_counts(k, monkeypatch):
    # The claim behind c09's timing gate, counted instead of timed: a Sinkhorn
    # score solves K transport problems per row with binary costs and one
    # with dynamic costs.
    solve = wood.geometry._sinkhorn_batch
    solved = []

    def counting_solve(R1, R2, C, cfg):
        solved.append(R1.shape[0])
        return solve(R1, R2, C, cfg)

    monkeypatch.setattr(wood.geometry, "_sinkhorn_batch", counting_solve)
    probs = np.random.default_rng(k).dirichlet(np.ones(k), size=3)
    with criterion(9, f"binary/dynamic solve counts at K={k}"):
        for kind, per_row in ((CostKind.BINARY, k), (CostKind.DYNAMIC, 1)):
            solved.clear()
            scores(probs, ScoreConfig(kind, EvalPath.SINKHORN))
            assert sum(solved) == per_row * len(probs)


def test_c10_determinism_and_persistence(synthetic_run, tmp_path):
    with criterion(10, "determinism and persistence"):
        rerun = run_synthetic_pipeline()

        def log_without_wall(metrics):
            return [
                line.rsplit(",", 1)[0] for line in metrics_csv_lines(metrics)
            ]

        # wall_ms is timing and necessarily varies; every numeric column
        # must be byte-for-byte identical.
        assert log_without_wall(synthetic_run["metrics"]) == log_without_wall(
            rerun["metrics"]
        )
        np.testing.assert_array_equal(
            synthetic_run["ood_scores"], rerun["ood_scores"]
        )

        path = tmp_path / "ckpt.json"
        save_checkpoint(synthetic_run["ckpt"], path)
        first_bytes = path.read_bytes()
        reloaded = load_checkpoint(path)
        save_checkpoint(reloaded, path)
        assert path.read_bytes() == first_bytes

        model = synthetic_run["ckpt"].model
        restored = reloaded.model
        features = synthetic_run["features"]
        np.testing.assert_array_equal(
            forward(model, features).probs, forward(restored, features).probs
        )
