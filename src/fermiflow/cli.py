"""Command line entry point: `fermiflow <scenario> --config <path>`.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures (integrator blow-up, violated invariants, a failed linear-algebra
routine, a float overflow).
"""

import argparse
import sys

import numpy as np

from .runner import ConfigError, NumericFailure, SCENARIOS, parse_config, run


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
            cfg = parse_config(fh.read())
        if cfg.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r}, "
                f"command line asked for {args.scenario!r}")
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("seed must fit in an unsigned 64-bit integer")
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, RuntimeError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{args.scenario}: wrote {len(summary['manifest']) + 1} files to {args.out} "
          f"in {summary['wall_clock_seconds']:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
