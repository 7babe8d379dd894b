"""Command-line entry point.

Exit codes: 0 success, 2 config/usage error, 3 trace error, 4 device
allocation failure. Deletions that failed inside a run leave the report and
the exit code as they are; each policy with such failures gets one warning
line on stderr.
"""

import os
import sys
from types import SimpleNamespace

from .config import BOM, ConfigError, RunConfig, format_config, load_config, parse_policies
from .device import DeviceError
from .host import TraceError, parse_trace
from .runner import run, synthetic_trace
from .values import ascii_number

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_DEVICE = 4


# Each option's name, the attribute parse_args sets, its value's kind (int or
# float read as config files read numbers, str, a tuple of choices, or None for
# a flag), metavar and help line. "-h" is the one short name, of --help.
OPTIONS = (
    ("--config", "config", str, "PATH", "flat key = value config file"),
    ("--trace", "trace", str, "PATH", "trace file to replay"),
    ("--policy", "policy", str, "NAME[,NAME...]",
     "policies to run (MarkOnly, EraseBased, DdnRandom, DdnNonRandom[(fill)])"),
    ("--seed", "seed", int, "SEED", "deterministic RNG seed (required to run)"),
    ("--out", "out", str, "PATH", "write the report here instead of stdout"),
    ("--format", "out_format", ("csv", "jsonl"), "{csv,jsonl}", "report format (default csv)"),
    ("--synthetic", "synthetic", int, "N", "generate N synthetic write/flush/update lines"),
    ("--update-ratio", "update_ratio", float, "RATIO",
     "fraction of synthetic writes that get updated (default 1.0)"),
    ("--print-config", "print_config", None, "", "print the effective configuration and exit"),
    ("--help", "help", None, "", "show this help message (or -h) and exit"),
)


def _usage(full=False) -> str:
    """The usage line; ``full`` adds a line per option."""
    forms = [f"{name} {metavar}".rstrip() for name, _, _, metavar, _ in OPTIONS]
    lines = ["usage: ddnsim " + " ".join(f"[{form}]" for form in forms)]
    if full:
        lines += ["", "Replay a trace under each deletion policy; report their costs and remanence.",
                  "", "options:", *(f"  {form:<24} {option[4]}" for form, option in zip(forms, OPTIONS))]
    return "\n".join(lines) + "\n"


def _fail(message: str):
    sys.stderr.write(f"{_usage()}ddnsim: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _options(arg: str):
    """The options whose names start with ``arg``'s part before any ``=``: none
    for an unknown option, several for an ambiguous prefix. None where argparse
    reads ``arg`` as a value: it does not start with "-", is "-", or names no
    option and is a negative number or holds a space."""
    if arg[:1] != "-" or arg == "-":
        return None
    prefix = arg.partition("=")[0]
    if prefix == "-h":
        prefix = "--help"
    found = [option for option in OPTIONS if option[0].startswith(prefix)] if prefix[:2] == "--" else []
    # argparse's r"^-\d+$|^-\d*\.\d+$", whose $ also matches before a final newline
    whole, dot, frac = arg[1:].removesuffix("\n").partition(".")
    number = (not whole or whole.isdecimal()) and frac.isdecimal() if dot else whole.isdecimal()
    return None if not found and (number or " " in arg) else found


def parse_args(argv=None) -> SimpleNamespace:
    """Read ``argv`` (default ``sys.argv[1:]``) as argparse reads OPTIONS:
    ``--name value`` or ``--name=value``, a name or a unique prefix of it, and
    the last of repeated options winning; an absent option is None (a flag,
    False). ``-h`` prints the help and exits 0. A usage error writes the usage
    and ``ddnsim: error: ...`` to stderr and exits 2."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = SimpleNamespace(**{attr: None if kind else False
                              for _, attr, kind, _, _ in OPTIONS if attr != "help"})
    extras = []
    while argv:
        arg = argv.pop(0)
        found = _options(arg)
        if not found:
            extras.append(arg)
            continue
        if len(found) > 1:
            _fail(f"ambiguous option: {arg} could match {', '.join(o[0] for o in found)}")
        name, attr, kind, _, _ = found[0]
        _, eq, value = arg.partition("=")
        if kind is None:
            if eq:
                _fail(f"argument {name}: ignored explicit argument {value!r}")
            if attr == "help":
                sys.stdout.write(_usage(full=True))
                raise SystemExit(EXIT_OK)
            value = True
        elif not eq:
            if not argv or _options(argv[0]) is not None:
                _fail(f"argument {name}: expected one argument")
            value = argv.pop(0)
        if kind in (int, float):
            try:
                value = ascii_number(value, kind)
            except ValueError:
                _fail(f"argument {name}: invalid {kind.__name__} value: {value!r}")
        elif type(kind) is tuple and value not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        setattr(args, attr, value)
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)

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
        del text  # the events hold all a run needs
        report = run(cfg, events)
    except TraceError as exc:
        print(f"ddnsim: trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except DeviceError as exc:
        print(f"ddnsim: device error: {exc}", file=sys.stderr)
        return EXIT_DEVICE

    for policy_run in report.runs:
        collector = policy_run.collector
        if collector.errors:
            print(
                f"ddnsim: warning: {policy_run.label}: {len(collector.errors)} of "
                f"{len(collector.deletions)} deletions failed; first: "
                f"{next(iter(collector.errors.values()))}",
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
