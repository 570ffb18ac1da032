"""Command-line driver: prepare | train | bench | gradcheck.

Exit codes: 0 success, 1 run failure, 2 config error. ``train --out`` writes
the run's ``RunResult`` as one JSON object, every float exact.
"""

import argparse
import dataclasses
import json
import os
import sys

from .bench import (
    FORMAT_ALIASES,
    BenchConfig,
    ConfigError,
    load_bench_dataset,
    load_config,
    load_features,
    prepare,
    render,
    run_bench,
    run_seed,
    write_outputs,
)
from .features import _atomic_write
from .gradcheck import TOLERANCE, run_gradcheck
from .models import ARCHITECTURES


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagforge",
        description="Text-attributed-graph node classification benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prepare = sub.add_parser("prepare", help="materialize feature files for every encoder")
    p_prepare.add_argument("--config", required=True)
    p_prepare.add_argument("--force", action="store_true",
                           help="rewrite feature files even if present")
    p_prepare.add_argument("--out", help="override the output directory")

    p_train = sub.add_parser("train", help="single training run for one encoder and arch")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--encoder", required=True, help="encoder name from the config")
    p_train.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", help="write the run record (JSON) to this path")

    p_bench = sub.add_parser("bench", help="run the full encoder x architecture matrix")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seeds", type=int,
                         help="override run seeds with 0..n-1")
    p_bench.add_argument("--format", choices=FORMAT_ALIASES,
                         help="override the table format")
    p_bench.add_argument("--out", help="override the output directory")
    p_bench.add_argument("--force", action="store_true",
                         help="re-prepare features before running")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every backward rule")
    p_grad.add_argument("--seeds", type=_positive_int, default=5,
                        help="seeds per op (default 5)")
    return parser


def _apply_overrides(cfg: BenchConfig, args) -> BenchConfig:
    if getattr(args, "out", None):
        cfg.out_dir = os.path.abspath(args.out)
    if getattr(args, "seeds", None) is not None:
        try:
            cfg.trainspec = dataclasses.replace(cfg.trainspec, seeds=tuple(range(args.seeds)))
        except ValueError as exc:
            raise ConfigError(f"--seeds {args.seeds}: {exc}") from exc
    if getattr(args, "format", None):
        cfg.table_format = FORMAT_ALIASES[args.format]
    return cfg


def _cmd_prepare(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    written = prepare(cfg, force=args.force)
    for path in written:
        print(f"wrote {path}")
    if not written:
        print("all feature files present; nothing to do (use --force to rebuild)")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)  # --out is the record path here, not the out dir
    by_name = {e.name: e for e in cfg.encoders}
    if args.encoder not in by_name:
        raise ConfigError(f"encoder {args.encoder!r} not in config "
                          f"(have {sorted(by_name)})")
    if args.arch not in cfg.archs:
        raise ConfigError(f"arch {args.arch!r} not in config archs {cfg.archs}")
    dataset = load_bench_dataset(cfg)
    features = load_features(cfg, by_name[args.encoder], dataset)
    result = run_seed(cfg, dataset, features, args.arch, args.seed)
    print(f"encoder={args.encoder} arch={args.arch} seed={args.seed}")
    print(f"best_val_acc={result.best_val_acc:.4f}")
    print(f"test_acc={result.test_acc_at_best_val:.4f}")
    print(f"epochs_ran={result.epochs_ran}")
    print(f"stop_reason={result.stop_reason}")
    if args.out:
        _atomic_write(args.out, (json.dumps(dataclasses.asdict(result)) + "\n").encode())
        print(f"record written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.force:
        prepare(cfg, force=True)
    result = run_bench(cfg, log=print)
    table = render(result, cfg.table_format)
    print()
    print(table, end="")
    paths = write_outputs(result, cfg)
    for path in paths:
        print(f"wrote {path}")
    return 0 if result.ok else 1


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(seeds=range(args.seeds))
    width = max(len(r.op) for r in results)
    failed = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.op:<{width}}  max_rel_err={r.max_rel_error:.3e}  {status}")
        failed = failed or not r.ok
    print(f"tolerance {TOLERANCE:g}: {'FAIL' if failed else 'all ops pass'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "prepare": _cmd_prepare,
        "train": _cmd_train,
        "bench": _cmd_bench,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
