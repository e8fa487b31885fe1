"""Command-line entry point.

Subcommands: ``train``, ``predict``, ``montecarlo``, ``theory`` run a
config-driven experiment and write artifacts under ``--out``;
``validate-data`` checks the SHA-256 entries of a dataset manifest
(passed via ``--config``).  Exit codes: 0 success, 1 validation error,
2 runtime failure.

A validation error is any ``base.ValidationError``: every layer's input
error (``ConfigError``, ``DataError``, ``GraphError``, ``ModelError``,
``SocialLearningError``, ``StatisticError``, ``TheoryError``) subclasses it,
so this module catches the one base and never imports ``theory``, which
only the ``theory`` command loads.  ``BoostingError`` is not one of them and
exits 2, as does any other exception.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .base import ValidationError
from .config import ConfigError, read_config, validate_config
from .data import verify_manifest
from .experiments import cmd_montecarlo, cmd_predict, cmd_theory, cmd_train


# built once per process: parse_args fills a fresh namespace on every call,
# and a caller such as a benchmark worker runs main several times
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialml",
        description="decentralized classification experiments over agent graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "predict", "montecarlo", "theory"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed-override", type=int, default=None)
        if name == "montecarlo":
            p.add_argument("--replications-override", type=int, default=None)
            p.add_argument("--threads", type=int, default=1)
    v = sub.add_parser("validate-data")
    v.add_argument("--config", required=True, help="dataset manifest JSON")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate-data":
            failures = verify_manifest(args.config)
            for line in failures:
                print(f"FAIL {line}", file=sys.stderr)
            if failures:
                return 1
            print("all checksums match")
            return 0

        replications = getattr(args, "replications_override", None)
        if args.command == "montecarlo" and args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        # the overrides go into the raw JSON, so the config is validated once
        raw, base_dir = read_config(args.config)
        if args.seed_override is not None:
            raw["seed"] = args.seed_override
        # a montecarlo block that is not an object is left for validation to name
        if replications is not None and isinstance(raw.get("montecarlo", {}), dict):
            raw["montecarlo"] = {**raw.get("montecarlo", {}), "replications": replications}
        cfg = validate_config(raw, base_dir)

        if args.command == "train":
            result = cmd_train(cfg, args.out)
            print(f"trained {result['models']} agents, {result['trace_rows']} trace rows")
        elif args.command == "predict":
            result = cmd_predict(cfg, args.out)
            print(f"prediction run over {len(result['cycles'])} cycles written")
        elif args.command == "montecarlo":
            result = cmd_montecarlo(cfg, args.out, threads=args.threads)
            print(
                f"{result['replications']} replications done, final errors: "
                f"{result['final_error']}"
            )
        elif args.command == "theory":
            result = cmd_theory(cfg, args.out)
            flag = " (vacuous)" if result["vacuous"] else ""
            print(
                f"exponent={result['exponent_exact']:.6f} "
                f"bound={result['pc_lower_bound']:.6f}{flag} "
                f"sample_complexity={result['sample_complexity']}"
            )
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
