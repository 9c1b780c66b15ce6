"""Command-line front end: data generation, training, evaluation, scoring.

Exit codes: 0 success, 1 usage error, 2 data error (a bad value, shape,
file or setting), 3 numeric failure. Configuration precedence is flags >
config file > defaults; the config file (plain ``key=value`` lines) is
echoed verbatim into the output directory for provenance. Every command is
deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import gc
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from ._blas import blas_info, one_thread
from ._split import beside
from .data import (
    Dataset,
    Role,
    SyntheticKind,
    SyntheticSpec,
    load_dataset_csv,
    read_text,
    save_dataset_csv,
    synth,
)
from .detect import evaluate, histogram_csv_lines, report_text
from .errors import InputError, NumericError
from .geometry import EvalPath, ScoreConfig, scores
from .model import forward
from .trainer import (
    DEFAULT_HIDDEN,
    TrainConfig,
    fit,
    load_checkpoint,
    metrics_csv_lines,
    save_checkpoint,
)
from .transport import CostKind, SinkhornConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)

    # With error overridden, argparse exits only after printing --help;
    # main returns EXIT_OK instead of raising SystemExit.
    def exit(self, status=0, message=None):
        raise _HelpShown


def _tnr_value(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"--tnr must be in (0, 1), got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    return _int_at_least(text, 0)


def _int_list(text: str, minimum: int) -> tuple[int, ...]:
    """Comma-separated integers, each at least ``minimum``; empty items are skipped."""
    try:
        values = tuple(int(item) for item in text.split(",") if item)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if any(value < minimum for value in values):
        raise argparse.ArgumentTypeError(f"expected integers >= {minimum}, got {text!r}")
    return values


def _hidden_widths(text: str) -> tuple[int, ...]:
    return _int_list(text, 1)


def _class_counts(text: str) -> tuple[int, ...]:
    counts = _int_list(text, 2)
    if not counts:
        raise argparse.ArgumentTypeError("expected at least one class count")
    return counts


def _add_score_flags(parser, matrix=None, eval_path=None, lam=None) -> None:
    """``--matrix``, ``--eval-path`` and ``--lambda``; unset, ``evaluate`` and
    ``score`` take them from the checkpoint's training configuration."""
    parser.add_argument("--matrix", choices=[k.value for k in CostKind], default=matrix)
    parser.add_argument(
        "--eval-path", dest="eval_path", choices=[p.value for p in EvalPath], default=eval_path
    )
    parser.add_argument("--lambda", dest="lam", type=_positive_float, default=lam)


def _add_train_settings(parser):
    """Declare the settings of ``train``; a config file sets them by dest name."""
    parser.add_argument("--beta", type=float, default=TrainConfig.beta)
    parser.add_argument("--b-ind", dest="b_ind", type=int, default=TrainConfig.b_ind)
    parser.add_argument("--b-ood", dest="b_ood", type=int, default=TrainConfig.b_ood)
    _add_score_flags(
        parser, ScoreConfig.matrix_kind.value, ScoreConfig.evaluation.value, SinkhornConfig.lam
    )
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--lr", type=_positive_float, default=TrainConfig.lr)
    parser.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    parser.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    parser.add_argument(
        "--hidden", type=_hidden_widths, default=DEFAULT_HIDDEN, help="comma-separated hidden widths"
    )
    return parser


def _read_config_file(path: str) -> dict:
    """The ``key=value`` lines of a config file, each value converted by the
    ``train`` flag whose dest is ``key``."""
    settings = _add_train_settings(_Parser(add_help=False))
    flags = {action.dest: action.option_strings[0] for action in settings._actions}
    values = {}
    for lineno, line in enumerate(read_text(path, "utf-8").split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, _, text = (part.strip() for part in stripped.partition("="))
        if key not in flags:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = getattr(settings.parse_args([f"{flags[key]}={text}"]), key)
        except _UsageError as exc:
            raise InputError(f"config key {key}: {exc}") from None
    return values


def _checkpoint_score_config(args, ckpt) -> ScoreConfig:
    """Score configuration for ``evaluate``/``score``: flags override the
    configuration the checkpoint was trained with. argparse has checked the
    flags, so a setting that fails here came from the checkpoint."""
    try:
        if None in (args.matrix, args.eval_path, args.lam):
            saved = ckpt.train_config["score"]
            lam = saved["sinkhorn"]["lam"]
            trained = {
                "matrix": CostKind(saved["matrix_kind"]).value,
                "eval_path": EvalPath(saved["evaluation"]).value,
                # A JSON number, read as the float a flag gives; anything
                # else, a bool or a string too, fails SinkhornConfig's check.
                "lam": float(lam) if type(lam) in (int, float) else lam,
            }
            for key, value in trained.items():
                if getattr(args, key) is None:
                    setattr(args, key, value)
        return ScoreConfig(args.matrix, args.eval_path, SinkhornConfig(lam=args.lam))
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as exc:
        raise InputError(f"{args.checkpoint}: malformed train_config.score: {exc}") from exc


def _prepare_out(args) -> Path:
    """Create ``--out``, copy a ``--config`` file there as ``config.txt``,
    and write ``run_config.txt``: the resolved settings, one ``dest=value``
    line each, then the BLAS library, version and thread count that the
    output bits depend on (``None`` where no OpenBLAS is found). Every
    command calls it once its inputs have loaded and validated, so a run
    that fails on its inputs writes nothing."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if getattr(args, "config", None):
        shutil.copyfile(args.config, out_dir / "config.txt")
    lines = [
        f"{key}={','.join(map(str, value)) if isinstance(value, tuple) else value}"
        for key, value in vars(args).items()
        if key not in ("out", "config", "func")
    ]
    blas = blas_info() or dict.fromkeys(["library", "version", "threads"])
    lines += [f"blas_{key}={value}" for key, value in blas.items()]
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def _dataset_from_args(path: str, role: Role, dim=None, dim_of="", n_classes=None) -> Dataset:
    """Load a dataset CSV; with ``dim``, its rows must be that wide, as set by
    ``dim_of`` (the file or checkpoint that the error names), and with
    ``n_classes`` an InD file's labels must be below it."""
    if not path.endswith(".csv"):
        raise InputError(f"expected a .csv dataset, got {path}")
    ds = load_dataset_csv(path, role=role, n_classes=n_classes)
    if dim is not None and ds.dim != dim:
        raise InputError(f"{path}: feature dim {ds.dim} does not match {dim_of} dim {dim}")
    return ds


def _with_checkpoint(args, path: str, role: Role):
    """``(model, score_cfg, ds)``: the model and score configuration of
    ``--checkpoint``, and the dataset CSV ``path``, checked against the
    model: an InD file's labels must be in its class range, and every row
    as wide as its input. The checkpoint loads first, so its errors come
    before the file's."""
    ckpt = load_checkpoint(args.checkpoint)
    model, score_cfg = ckpt.model, _checkpoint_score_config(args, ckpt)
    dim_of = f"{args.checkpoint} input"
    ds = _dataset_from_args(path, role, model.input_dim, dim_of, model.n_classes)
    return model, score_cfg, ds


# Rows that ``score`` and ``evaluate`` run through the model at once. Only
# one block's activations and softmax rows exist at a time, so memory grows
# with file length only through the features and the per-row results.
SCORE_BLOCK_ROWS = 4096

# A ``scores.csv`` of at least this many rows renders in two processes. A row
# renders in about 1.1 us (0.7 us of it float repr), so the child's half of 20k
# rows takes about 11 ms, twice the cost of a fork and its write faults.
_SPLIT_ROWS = 20_000


def _score_blocks(model, ds: Dataset, path: str, cfg: ScoreConfig):
    """``(values, classes, predicted)`` for the rows of ``ds``: each row's
    score and argmin class under ``cfg``, and the model's predicted class.

    The model runs over blocks of ``SCORE_BLOCK_ROWS`` rows, so a row's
    outputs depend only on its own block (the rows of a BLAS product depend
    on how many rows are in it). A diverged model overflows to non-finite
    softmax rows, a numeric error naming the first one in the file.
    """
    values = np.empty(ds.n)
    classes = np.empty(ds.n, dtype=np.intp)
    predicted = np.empty(ds.n, dtype=np.intp)
    for start in range(0, ds.n, SCORE_BLOCK_ROWS):
        stop = start + SCORE_BLOCK_ROWS
        with np.errstate(over="ignore", invalid="ignore"):
            probs = forward(model, ds.features[start:stop]).probs
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            raise NumericError(
                "model diverged: non-finite softmax output for row"
                f" {start + int(bad.argmax())} of {path}"
            )
        try:
            values[start:stop], classes[start:stop] = scores(probs, cfg)
        except NumericError as exc:
            raise NumericError(f"{exc}, in the block from row {start} of {path}") from None
        predicted[start:stop] = probs.argmax(axis=1)
    return values, classes, predicted


def _cmd_gen_data(args) -> int:
    kind = SyntheticKind(args.kind)
    spec = SyntheticSpec(
        kind=kind,
        k=args.k,
        n_per_class=args.n,
        dim=args.dim,
        separation=args.sep,
        noise=args.noise,
        seed=args.seed,
    )
    ds = synth(spec)
    out_dir = _prepare_out(args)
    name = "ind.csv" if ds.role is Role.IND else "ood.csv"
    save_dataset_csv(ds, out_dir / name)
    print(f"wrote {out_dir / name}: {ds.n} rows, dim={ds.dim}, role={ds.role.value}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        epochs=args.epochs,
        beta=args.beta,
        b_ind=args.b_ind,
        b_ood=args.b_ood,
        lr=args.lr,
        momentum=args.momentum,
        seed=args.seed,
        score=ScoreConfig(args.matrix, args.eval_path, SinkhornConfig(lam=args.lam)),
    )
    ind_set = _dataset_from_args(args.ind, Role.IND)
    ood_set = None
    if args.ood:
        ood_set = _dataset_from_args(args.ood, Role.OOD, dim=ind_set.dim, dim_of=args.ind)
    # fit rejects these as well, but cannot name the files or the flag.
    if ind_set.n_classes < 2:
        raise InputError(f"{args.ind}: training needs at least 2 classes, got {ind_set.n_classes}")
    if cfg.b_ood > 0 and ood_set is None:
        raise InputError(f"--b-ood {cfg.b_ood} needs an --ood dataset")
    out_dir = _prepare_out(args)  # before fit, so a diverged run records its settings

    # Each epoch's line is written as the epoch ends, so a diverged run keeps
    # the epochs it finished.
    with open(out_dir / "metrics.csv", "w", encoding="ascii") as log:
        log.write(metrics_csv_lines([])[0] + "\n")
        ckpt, metrics = fit(
            ind_set,
            ood_set,
            cfg,
            hidden=args.hidden,
            on_epoch=lambda row: log.write(metrics_csv_lines([row])[1] + "\n"),
        )
    save_checkpoint(ckpt, out_dir / "checkpoint.json")
    last = metrics[-1]
    print(
        f"trained {ckpt.model.layer_dims} for {cfg.epochs} epochs:"
        f" total={last.total:.6f} ce={last.ce_term:.6f} ood={last.ood_term:.6f}"
    )
    print(f"wrote {out_dir / 'checkpoint.json'} and {out_dir / 'metrics.csv'}")
    return EXIT_OK


@one_thread()
def _cmd_evaluate(args) -> int:
    if not args.calib_on_eval and not 0.0 < args.calib_frac < 1.0:
        raise InputError(f"calib_frac must lie in (0, 1), got {args.calib_frac!r}")
    model, score_cfg, ind_set = _with_checkpoint(args, args.ind, Role.IND)
    ood_set = _dataset_from_args(
        args.ood, Role.OOD, dim=model.input_dim, dim_of=f"{args.checkpoint} input"
    )

    ind_scores, _, ind_predicted = _score_blocks(model, ind_set, args.ind, score_cfg)
    ood_scores, _, _ = _score_blocks(model, ood_set, args.ood, score_cfg)

    if args.calib_on_eval:
        calib_scores = eval_scores = ind_scores
    else:
        # Hold out a calibration slice of the InD test scores so the
        # threshold is never fitted on the evaluated samples.
        n_calib = max(1, int(round(args.calib_frac * ind_scores.size)))
        rng = np.random.default_rng(args.seed)
        perm = rng.permutation(ind_scores.size)
        calib_scores = ind_scores[perm[:n_calib]]
        eval_scores = ind_scores[perm[n_calib:]]
        if eval_scores.size == 0:
            raise InputError("calibration fraction leaves no evaluation samples")
    report = evaluate(calib_scores, eval_scores, ood_scores, args.tnr)

    accuracy = float(np.mean(ind_predicted == ind_set.labels))

    text = report_text(report)
    text += f"n_calibration: {calib_scores.size}\n"
    text += f"ind_accuracy: {accuracy!r}\n"
    out_dir = _prepare_out(args)
    (out_dir / "report.txt").write_text(text, encoding="ascii")
    (out_dir / "hist_ind.csv").write_text(
        "\n".join(histogram_csv_lines(report, "ind")) + "\n", encoding="ascii"
    )
    (out_dir / "hist_ood.csv").write_text(
        "\n".join(histogram_csv_lines(report, "ood")) + "\n", encoding="ascii"
    )
    print(text, end="")
    print(f"wrote {out_dir / 'report.txt'}")
    return EXIT_OK


@one_thread()
def _cmd_score(args) -> int:
    model, score_cfg, ds = _with_checkpoint(args, args.features, Role.OOD)
    values, classes, _ = _score_blocks(model, ds, args.features, score_cfg)

    header = "index,argmin_class,score"
    row = "{},{},{!r}"
    if args.epsilon is not None:
        header += ",decision"
        row += ",{}"

    def render(lo: int, hi: int) -> bytes:
        columns = [range(lo, hi), classes[lo:hi].tolist(), values[lo:hi].tolist()]
        if args.epsilon is not None:
            columns.append((values[lo:hi] > args.epsilon).astype(np.int8).tolist())
        return "".join(map((row + "\n").format, *columns)).encode("ascii")

    half = ds.n // 2
    halves = beside(lambda: render(0, half), lambda: render(half, ds.n), ds.n >= _SPLIT_ROWS)
    out_dir = _prepare_out(args)
    with open(out_dir / "scores.csv", "wb") as file:
        file.writelines(((header + "\n").encode("ascii"), *halves))
    print(f"wrote {out_dir / 'scores.csv'} ({ds.n} rows)")
    return EXIT_OK


def _median_call_ms(calls, repeats: int) -> list[float]:
    """Median wall time in ms of each of ``calls`` over ``repeats`` rounds.

    Every call is timed on its own, so one scheduler stall cannot decide a
    median, and the calls take turns within a round, so a change of machine
    speed between rounds slows all of them alike. The garbage collector is
    off while they run, as in ``timeit``, so a collection of garbage that
    other code left behind is not charged to a call.
    """
    times = np.empty((repeats, len(calls)))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(repeats):
            for j, call in enumerate(calls):
                started = time.perf_counter()
                call()
                times[i, j] = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return [float(t) * 1000.0 for t in np.median(times, axis=0)]


def _cmd_bench_score(args) -> int:
    rng = np.random.default_rng(args.seed)
    lines = ["K,binary_ms,dynamic_ms,ratio"]
    summary = []
    for k in args.k:
        f = rng.dirichlet(np.ones(k))[None, :]
        binary_cfg = ScoreConfig("binary", "sinkhorn", SinkhornConfig(lam=args.lam))
        dynamic_cfg = ScoreConfig("dynamic", "sinkhorn", SinkhornConfig(lam=args.lam))
        scores(f, binary_cfg)  # warmup
        scores(f, dynamic_cfg)
        binary_ms, dynamic_ms = _median_call_ms(
            [lambda: scores(f, binary_cfg), lambda: scores(f, dynamic_cfg)], args.repeats
        )
        ratio = binary_ms / dynamic_ms if dynamic_ms > 0 else float("inf")
        lines.append(f"{k},{binary_ms!r},{dynamic_ms!r},{ratio!r}")
        summary.append((k, binary_ms, dynamic_ms, ratio))
    out_dir = _prepare_out(args)
    (out_dir / "bench.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    for k, bms, dms, ratio in summary:
        print(f"K={k:4d} binary={bms:10.4f}ms dynamic={dms:10.4f}ms ratio={ratio:8.2f}")
    return EXIT_OK


def _declare_gen_data(gen) -> None:
    gen.add_argument("--kind", required=True, choices=[k.value for k in SyntheticKind])
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--sep", type=_positive_float, default=4.0)
    gen.add_argument("--noise", type=_positive_float, default=0.5)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_data)


def _declare_train(train) -> None:
    train.add_argument("--ind", required=True, help="labeled InD training CSV")
    train.add_argument("--ood", default=None, help="unlabeled OOD training CSV")
    train.add_argument("--out", required=True)
    train.add_argument("--config", default=None, help="key=value config file")
    _add_train_settings(train)
    train.set_defaults(func=_cmd_train)


def _declare_evaluate(ev) -> None:
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--ind", required=True, help="labeled InD test CSV")
    ev.add_argument("--ood", required=True, help="unlabeled OOD test CSV")
    ev.add_argument("--tnr", type=_tnr_value, default=0.95)
    _add_score_flags(ev)
    ev.add_argument("--calib-frac", dest="calib_frac", type=_finite_float, default=0.2)
    ev.add_argument(
        "--calib-on-eval",
        dest="calib_on_eval",
        action="store_true",
        help="calibrate on the full evaluated InD set (no held-out slice)",
    )
    ev.add_argument("--seed", type=_seed, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_evaluate)


def _declare_score(sc) -> None:
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--features", required=True)
    _add_score_flags(sc)
    sc.add_argument("--epsilon", type=_finite_float, default=None)
    sc.add_argument("--tnr", type=_tnr_value, default=0.95)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=_cmd_score)


def _declare_bench_score(bench) -> None:
    bench.add_argument(
        "--k", type=_class_counts, default="10,50,100", help="comma-separated class counts"
    )
    bench.add_argument("--repeats", type=_positive_int, default=5)
    bench.add_argument("--lambda", dest="lam", type=_positive_float, default=50.0)
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench_score)


# Each command's help line and the function that declares its flags, in the
# order the top-level help lists them.
_COMMANDS = {
    "gen-data": ("write synthetic datasets as CSV", _declare_gen_data),
    "train": ("train a classifier with the mixed-batch loss", _declare_train),
    "evaluate": ("calibrate and report FNR/AUROC", _declare_evaluate),
    "score": ("per-sample scores for a feature CSV", _declare_score),
    "bench-score": ("time binary vs dynamic sinkhorn scoring", _declare_bench_score),
}


def _build_parser(train_defaults: dict, command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``train_defaults`` (converted config-file values)
    replace the declared defaults of ``train``'s settings.

    When ``command`` names one of the five commands, only that command and
    its flags are declared: no command's flags, defaults, help or errors
    depend on the others, so an argument list that starts with its name
    parses as with the full parser, and ``wood score`` does not pay for
    declaring ``train``. Otherwise (no command, ``--help`` or an unknown
    name) all five are declared, so the top-level help and the
    invalid-choice error list every command."""
    parser = _Parser(prog="wood", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, declare = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        declare(subparser)
        if name == "train":
            subparser.set_defaults(**train_defaults)
    return parser


def main(argv=None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code; ``--help`` prints and returns ``EXIT_OK``. Only the
    flags of the command named by ``argv[0]`` are declared (see
    ``_build_parser``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        args = _build_parser({}, command).parse_args(argv)
        if getattr(args, "config", None):
            # flags > config file > defaults: the file's values become the
            # defaults, and the command line is parsed again over them.
            args = _build_parser(_read_config_file(args.config), command).parse_args(argv)
        return args.func(args)
    except _HelpShown:
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # A setting the run cannot honour, such as a cost matrix larger than memory.
        print("data error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
