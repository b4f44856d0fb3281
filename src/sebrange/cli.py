"""Command-line interface: dataset generation, training, evaluation,
benchmark report and gradient audit.

Exit codes: 0 success, 2 configuration error, 3 missing or unreadable
input, 4 checkpoint/config hash mismatch, 5 gradient audit failure,
6 numeric failure (non-finite values, a degenerate fit).
"""

import argparse
import os
import sys

import numpy as np

from .audit import AUDIT_OPS, run_gradient_audit
from .benchmark import (
    BENCH_MODELS,
    build_model,
    loss_csv_text,
    metrics_csv_text,
    run_benchmark,
    train_model,
)
from .checkpoint import load_checkpoint, save_checkpoint, verify_config_hash
from .config import RunConfig
from .datagen import generate, read_dataset, summarize, write_dataset
from .errors import CheckpointMismatch, ConfigError, InputError, NumericError
from .training import evaluate_mae, split_orders

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_CHECKPOINT = 4
EXIT_AUDIT = 5
EXIT_NUMERIC = 6

CHECKPOINT_FILENAME = "model.ckpt.npz"
LOSS_FILENAME = "loss.csv"
METRICS_FILENAME = "metrics.csv"


def _resolve_config(args) -> RunConfig:
    rc = RunConfig.load(getattr(args, "config", None), args.set or [])
    if getattr(args, "seed", None) is not None:
        rc.set("seed", str(args.seed))
    if getattr(args, "orders", None) is not None:
        rc.set("gen.orders", str(args.orders))
    if getattr(args, "epochs", None) is not None:
        rc.set("train.epochs", str(args.epochs))
    if getattr(args, "lr", None) is not None:
        rc.set("train.lr", repr(args.lr))
    return rc


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_gen(args) -> int:
    rc = _resolve_config(args)
    orders, graph = generate(rc.generator_config())
    write_dataset(orders, graph, args.out)
    rc.write_resolved(args.out)
    print(summarize(orders).format())
    print(f"dataset written to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    rc = _resolve_config(args)
    orders, graph = read_dataset(args.data)
    model = build_model(args.model, rc.model_config(), graph.n_users,
                        graph.n_batteries, rc.get("seed"))
    result = train_model(args.model, model, orders, graph, rc.train_config())
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, CHECKPOINT_FILENAME), model,
                    rc.hash(), trained_as=args.model)
    _write_text(os.path.join(args.out, LOSS_FILENAME),
                loss_csv_text(result.history))
    rc.write_resolved(args.out)
    best = result.best
    print(f"trained {args.model}: best epoch {best.epoch}, "
          f"val mae {best.val_mae:.4f} km")
    return EXIT_OK


def cmd_eval(args) -> int:
    rc = _resolve_config(args)
    orders, graph = read_dataset(args.data)
    if not os.path.exists(args.ckpt):
        raise FileNotFoundError(f"checkpoint not found: {args.ckpt}")
    model, meta = load_checkpoint(args.ckpt)
    verify_config_hash(meta, rc.hash())
    _, _, test_split = split_orders(orders, rc.train_config())
    mae = evaluate_mae(model, test_split, graph)
    print(f"mae_mean {mae.mean!r} ± mae_std {mae.std!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "eval.csv"),
                    "model,mae_mean,mae_std\n"
                    f"{meta['trained_as']},{mae.mean!r},{mae.std!r}\n")
        rc.write_resolved(args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    rc = _resolve_config(args)
    if args.data:
        orders, graph = read_dataset(args.data)
    else:
        orders, graph = generate(rc.generator_config())
    result = run_benchmark(orders, graph, rc.model_config(), rc.train_config())
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, METRICS_FILENAME),
                metrics_csv_text(result))
    for kind, history in result.histories.items():
        _write_text(os.path.join(args.out, f"loss_{kind}.csv"),
                    loss_csv_text(history))
    rc.write_resolved(args.out)
    print(f"{'model':<14} {'mae_mean':>10} {'mae_std':>10} {'improvement':>12}")
    for row in result.rows:
        print(f"{row.model:<14} {row.mae_mean:>10.4f} {row.mae_std:>10.4f} "
              f"{row.improvement_vs_transformer_pct:>11.1f}%")
    print(f"relative improvement of seb-s3im over transformer: "
          f"{result.improvement_pct:.1f}%")
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ops = [args.op] if args.op else None
    rows = run_gradient_audit(ops=ops, tolerance=args.tolerance,
                              seed=args.seed if args.seed is not None else 42)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.op:<12} max_err {r.max_err:.3e}  tol {r.tolerance:.0e}  {status}")
    worst = max(rows, key=lambda r: r.max_err / r.tolerance)
    print(f"worst offender: {worst.op} (max_err {worst.max_err:.3e}, "
          f"tol {worst.tolerance:.0e})")
    return EXIT_AUDIT if failed else EXIT_OK


def _add_config_flags(p, orders=False, train=False):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, help="override the master seed")
    if orders:
        p.add_argument("--orders", type=int, help="override gen.orders")
    if train:
        p.add_argument("--epochs", type=int, help="override train.epochs")
        p.add_argument("--lr", type=float, help="override train.lr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sebrange",
        description="Battery range prediction over swap-fleet telemetry "
                    "and interaction graphs.",
        epilog="exit codes: 0 ok, 2 config error, 3 missing input, "
               "4 checkpoint mismatch, 5 gradient audit failure, "
               "6 numeric failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_config_flags(p, orders=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model on a dataset")
    _add_config_flags(p, train=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, choices=BENCH_MODELS)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="run the full benchmark table")
    _add_config_flags(p, orders=True, train=True)
    p.add_argument("--data", help="dataset directory (generated if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, help="audit seed (default 42)")
    p.add_argument("--tolerance", type=float,
                   help="override every op tolerance")
    p.add_argument("--op", choices=AUDIT_OPS, help="restrict to one op")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The checks that exit 6 report non-finite values; numpy's warnings stay quiet.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except CheckpointMismatch as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
