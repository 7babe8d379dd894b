"""The CLI's own argv parser against the argparse parser it replaced.

``build_parser`` is that argparse parser, kept here as the reference: for
every argv it accepts, ``cli.parse_args`` must return the same values, and
wherever it exits (2 for a usage error, 0 for the help), so must
``parse_args``. Message wording is compared only for the number errors that
``test_config_cli.py`` pins, because argparse's own wording changes between
CPython releases.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddnsim.cli import OPTIONS, main, parse_args
from ddnsim.values import ascii_number


def _number(kind):
    """An argparse type reading ``kind`` as config files do: ASCII, no ``_``."""
    def parse(text: str):
        try:
            return ascii_number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ddnsim")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--trace", metavar="PATH")
    p.add_argument("--policy", metavar="NAME[,NAME...]")
    p.add_argument("--seed", type=_number(int))
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", dest="out_format", choices=("csv", "jsonl"))
    p.add_argument("--synthetic", type=_number(int), metavar="N")
    p.add_argument("--update-ratio", type=_number(float), default=None)
    p.add_argument("--print-config", action="store_true")
    return p


def _outcome(parse, argv):
    """("ok", values) or ("exit", code), with what was written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("ok", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


NAMES = [name for name, *_ in OPTIONS]
PREFIXES = ["--c", "--t", "--po", "--se", "--o", "--f", "--sy", "--u", "--pr", "--h"]
AMBIGUOUS = ["--s", "--p"]
VALUES = ["0", "5", "12", "-7", "-7\n", "-.5", "0.5", "1_0", "٣", "x", "", "-", "-x", "-x y",
          "csv", "jsonl"]
HEADS = NAMES + PREFIXES + AMBIGUOUS
# Left out, as argparse's reading of them differs between CPython releases: a
# bare "--", "-h" joined to more characters ("-hh", "-hx", "-h="), and values
# near its negative-number rule that newer releases may read as numbers
# ("-1e3", "-7x", "-1_0").
# An argv is a list of units: one word, "--name=value", or "--name" and a value.
UNITS = st.one_of(
    st.sampled_from(HEADS + VALUES + ["-h", "--bogus", "word"]).map(lambda arg: [arg]),
    st.builds("{}={}".format, st.sampled_from(HEADS), st.sampled_from(VALUES)).map(lambda arg: [arg]),
    st.tuples(st.sampled_from(HEADS), st.sampled_from(VALUES)).map(list),
)
ARGVS = st.lists(UNITS, max_size=4).map(lambda units: [arg for unit in units for arg in unit])


@settings(max_examples=200)
@given(ARGVS)
def test_parse_args_matches_argparse(argv):
    # argparse up to CPython 3.13.0 rejects an ambiguous prefix before acting
    # on any option, so "--help --s" exits 2; 3.13.13, like parse_args, acts
    # in argv order and prints the help.
    heads = {arg.partition("=")[0] for arg in argv}
    assume(not (heads & set(AMBIGUOUS) and heads & {"-h", "--help", "--h"}))
    expected, _, expected_err = _outcome(build_parser().parse_args, argv)
    got, out, err = _outcome(parse_args, argv)
    assert got == expected
    if got == ("exit", 2):
        usage, _, message = err.rpartition("\nddnsim: error: ")
        assert usage.startswith("usage: ddnsim ") and message.endswith("\n")
        if " value: " in expected_err:  # the number errors, worded by this module
            assert message == expected_err.rpartition("\nddnsim: error: ")[2]
    elif got == ("exit", 0):
        assert out.startswith("usage: ddnsim ") and "--print-config" in out and err == ""


def test_help_lists_every_option_from_the_table(capsys):
    for argv in (["-h"], ["--help"], ["--he"], ["--seed", "1", "-h", "--bogus"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: ddnsim [--config PATH] [--trace PATH]")
        options = out.split("\noptions:\n")[1].splitlines()
        assert [line.split()[0] for line in options] == NAMES
        assert all(line.endswith(text) for line, (*_, text) in zip(options, OPTIONS))
