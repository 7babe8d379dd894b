"""Command-line entry point.

Exit codes: 0 success, 2 config/usage error, 3 trace error, 4 device
allocation failure. Deletions that failed inside a run leave the report and
the exit code as they are; each policy with such failures gets one warning
line on stderr.
"""

import os
import sys
import argparse

from .config import BOM, ConfigError, RunConfig, format_config, load_config, parse_policies
from .device import DeviceError
from .host import TraceError, parse_trace
from .runner import run, synthetic_trace
from .values import ascii_number

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_DEVICE = 4


def _number(kind):
    """An argparse type reading ``kind`` as config files do: ASCII, no ``_``."""
    def parse(text: str):
        try:
            return ascii_number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddnsim",
        description=(
            "Deterministic trace-driven simulator of secure-deletion policies "
            "on hybrid DRAM+NVM memory."
        ),
    )
    p.add_argument("--config", metavar="PATH", help="flat key = value config file")
    p.add_argument("--trace", metavar="PATH", help="trace file to replay")
    p.add_argument(
        "--policy",
        metavar="NAME[,NAME...]",
        help="policies to run (MarkOnly, EraseBased, DdnRandom, DdnNonRandom[(fill)])",
    )
    p.add_argument("--seed", type=_number(int), help="deterministic RNG seed (required to run)")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", dest="out_format", choices=("csv", "jsonl"))
    p.add_argument(
        "--synthetic",
        type=_number(int),
        metavar="N",
        help="generate a synthetic workload of N write/flush/update lines",
    )
    p.add_argument(
        "--update-ratio",
        type=_number(float),
        default=None,
        help="fraction of synthetic writes that get updated (default 1.0)",
    )
    p.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config is not None else RunConfig()
        if args.policy is not None:
            cfg.policies = parse_policies(args.policy)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out_format:
            cfg.out_format = args.out_format
        if args.update_ratio is not None and args.synthetic is None:
            raise ConfigError("--update-ratio needs --synthetic")
        if args.print_config:
            cfg.validate(require_seed=False)
            return _emit(args.out, lambda write: write(format_config(cfg)))
        if (args.trace is None) == (args.synthetic is None):
            print("ddnsim: exactly one of --trace or --synthetic is required", file=sys.stderr)
            return EXIT_CONFIG
        cfg.validate()
    except ConfigError as exc:
        print(f"ddnsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.trace is not None:
            try:
                with open(args.trace, encoding="utf-8") as f:
                    text = f.read().removeprefix(BOM)
            except (OSError, UnicodeDecodeError) as exc:
                raise TraceError(f"cannot read trace {args.trace}: {exc}") from exc
        else:
            ratio = 1.0 if args.update_ratio is None else args.update_ratio
            try:
                text = synthetic_trace(
                    args.synthetic, ratio, cfg.seed,
                    cfg.cells_per_cache_slot, cfg.bits_per_cell,
                )
            except ValueError as exc:
                print(f"ddnsim: config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        events = parse_trace(text, cfg.cells_per_cache_slot, cfg.bits_per_cell)
        report = run(cfg, events)
    except TraceError as exc:
        print(f"ddnsim: trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except DeviceError as exc:
        print(f"ddnsim: device error: {exc}", file=sys.stderr)
        return EXIT_DEVICE

    for policy_run in report.runs:
        deletions = policy_run.collector.deletions
        errors = [d.error for d in deletions if d.error is not None]
        if errors:
            print(
                f"ddnsim: warning: {policy_run.label}: {len(errors)} of "
                f"{len(deletions)} deletions failed; first: {errors[0]}",
                file=sys.stderr,
            )

    return _emit(args.out, lambda write: report.write(cfg.out_format, write))


def _emit(out, produce) -> int:
    """Call ``produce`` with the ``write`` of ``--out``'s file, or of stdout
    when there is none; either one failing (a closed pipe too) is exit 2."""
    try:
        if out is None:
            produce(sys.stdout.write)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as f:
                produce(f.write)
    except OSError as exc:
        print(f"ddnsim: cannot write {'stdout' if out is None else out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def console_main():
    """``python -m ddnsim`` and the ``ddnsim`` script: run ``main``, flush
    stdout and stderr (a failure is exit 2, as in ``_emit``), and end with
    ``os._exit``, skipping the interpreter teardown that no output needs."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without it
                stream.flush()
    except OSError:
        code = EXIT_CONFIG
    os._exit(code)


if __name__ == "__main__":
    console_main()
