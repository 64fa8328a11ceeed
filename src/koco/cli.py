"""Command-line entry point.

    koco run --config PATH [--seed N] [--out DIR]
    koco verify --level fast|full
    koco gen --spec PATH --out PATH

Exit codes: 0 success, 1 check/run failure, 2 config error. Every command
reports a ConfigError as `config error: ...` and any other library error as
`<command> failed at <error type>: ...`, one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, streams, verify
from .errors import ConfigError, KocoError


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    seeds = [args.seed] if args.seed is not None else list(cfg.seeds)
    out_dir = args.out if args.out is not None else cfg.out_dir
    for seed in seeds:
        trace_path, summary = harness.run_experiment(cfg, seed, out_dir)
        print(f"seed {seed}: trace -> {trace_path}")
        sys.stdout.write(summary.as_text())
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.level)
    return 0 if all(r.passed for r in results) else 1


def _cmd_gen(args) -> int:
    events = harness.parse_config(args.spec).events(args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    streams.emit_csv(out, events)
    print(f"wrote {len(events)} events -> {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="koco",
        description="Second-order kernel online learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="key=value config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("gen", help="emit a synthetic stream as CSV")
    p_gen.add_argument("--spec", required=True,
                       help="config file describing the stream")
    p_gen.add_argument("--out", required=True, help="CSV output path")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KocoError as exc:
        print(f"{args.command} failed at {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
