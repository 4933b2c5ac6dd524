"""Command line entry point: `fermiflow <scenario> --config <path>`.

Exit codes: 0 on success, 2 on configuration errors (an `--out` that cannot
be created and written among them, found before any work), 3 on numerical
failures (`run` reports a scenario's blow-up, failed linear algebra or any
arithmetic, value or runtime error as a `NumericFailure`) and on an OSError
while the outputs are written.
"""

import argparse
import os
import sys
import tempfile

from .runner import ConfigError, NumericFailure, SCENARIOS, parse_config, run


def _check_out(out: str) -> None:
    """Refuse an output directory the run could not write, before the run."""
    try:
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryFile(dir=out):
            pass
    except OSError as exc:
        raise ConfigError(f"--out {out!r} is not a writable directory: {exc}") from exc
    if os.path.isdir(os.path.join(out, "summary.json")):
        raise ConfigError(f"--out {out!r} holds a directory named summary.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermiflow",
        description="Mean-field fermion dynamics laboratory",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if cfg.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r}, "
                f"command line asked for {args.scenario!r}")
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("seed must fit in an unsigned 64-bit integer")
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        _check_out(args.out)
        summary = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out!r}: {exc}", file=sys.stderr)
        return 3
    print(f"{args.scenario}: wrote {len(summary['manifest']) + 1} files to {args.out} "
          f"in {summary['wall_clock_seconds']:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
