import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ddnsim
from ddnsim import (
    ConfigError,
    DeviceKind,
    RunConfig,
    TraceError,
    format_config,
    parse_config_text,
    parse_policy,
    parse_trace,
    run,
    synthetic_trace,
)
from ddnsim.cli import main
from ddnsim.config import parse_policies


def test_defaults_match_documented_device_times():
    cfg = RunConfig()
    assert (cfg.t_read_us, cfg.t_program_us, cfg.t_gen_us, cfg.t_erase_us) == (
        49.0,
        600.0,
        100.0,
        4000.0,
    )
    assert cfg.bits_per_cell == 3
    assert cfg.device_kind is DeviceKind.NON_OVERWRITABLE
    assert [p.label for p in cfg.policies] == [
        "MarkOnly",
        "EraseBased",
        "DdnRandom",
        "DdnNonRandom(AllMax)",
    ]
    assert cfg.seed is None  # must be provided explicitly


def test_default_policies_equal_the_parsed_names():
    assert RunConfig().policies == parse_policies("MarkOnly,EraseBased,DdnRandom,DdnNonRandom")


def test_validate_requires_seed():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.seed = 1
    cfg.validate()


@pytest.mark.parametrize(
    "patch",
    [
        {"blocks": 0},
        {"out_format": "xml"},
        {"policies": ()},
        {"t_secure": 0},
        {"dram_capacity": 0},
        {"flush_idle_threshold": -1},
        {"nop_limit": -1},
        {"cells_per_page": 10, "cells_per_cache_slot": 4},
        {"reclaim_invalid_slots": True},
        {"bits_per_cell": 9},
        {"bits_per_cell": 2, "policies": (parse_policy("DdnNonRandom(Level=5)"),)},
        {"cells_per_page": 15, "cells_per_cache_slot": 5},  # 15-bit slots
    ],
)
def test_validate_rejects_bad_values(patch):
    cfg = RunConfig(seed=1)
    for key, value in patch.items():
        setattr(cfg, key, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_parse_config_text_overrides():
    cfg = parse_config_text(
        "\n".join(
            [
                "# comment",
                "blocks = 8",
                "device_kind = nand",
                "t_erase_us = 3500",
                "policies = MarkOnly, DdnNonRandom(Level=2)",
                "t_secure = 12",
                "seed = 99",
                "reclaim_invalid_slots = true",
            ]
        )
    )
    assert cfg.blocks == 8
    assert cfg.device_kind is DeviceKind.NON_OVERWRITABLE
    assert cfg.t_erase_us == 3500.0
    assert [p.label for p in cfg.policies] == ["MarkOnly", "DdnNonRandom(Level=2)"]
    assert cfg.t_secure == 12
    assert cfg.seed == 99
    assert cfg.reclaim_invalid_slots is True


@pytest.mark.parametrize(
    "line",
    ["bogus_key = 1", "blocks", "blocks = x", "device_kind = floppy"],
)
def test_parse_config_text_rejects(line):
    with pytest.raises(ConfigError) as err:
        parse_config_text(line)
    assert "line 1" in str(err.value)


def test_config_round_trip():
    cfg = RunConfig(seed=7, t_secure=20)
    cfg.policies = (parse_policy("DdnRandom"), parse_policy("DdnNonRandom(Level=1)"))
    assert parse_config_text(format_config(cfg)) == cfg


def test_non_default_config_round_trips():
    cfg = RunConfig(
        seed=5, device_kind=DeviceKind.OVERWRITABLE, t_secure=3,
        reclaim_invalid_slots=True, policies=(parse_policy("DdnNonRandom(Level=2)"),),
    )
    assert parse_config_text(format_config(cfg)) == cfg
    assert parse_config_text(format_config(cfg)) != RunConfig(seed=5)


def test_run_policies_injects_t_secure():
    cfg = RunConfig(seed=1, t_secure=30)
    assert all(p.t_secure == 30 for p in cfg.run_policies())
    assert all(p.t_secure is None for p in cfg.policies)


# -- CLI ----------------------------------------------------------------------


def test_print_config_defaults(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "t_read_us = 49" in out
    assert "t_program_us = 600" in out
    assert "t_gen_us = 100" in out
    assert "t_erase_us = 4000" in out
    assert "bits_per_cell = 3" in out
    assert parse_config_text(out) == RunConfig()


DEFAULT_CONFIG_TEXT = """\
blocks = 256
pages_per_block = 64
cells_per_page = 16
bits_per_cell = 3
cells_per_cache_slot = 8
device_kind = non-overwritable
t_read_us = 49
t_program_us = 600
t_gen_us = 100
t_erase_us = 4000
nop_limit = 4
flush_idle_threshold = 10
dram_capacity = 65536
t_secure = none
reclaim_invalid_slots = false
policies = MarkOnly,EraseBased,DdnRandom,DdnNonRandom(AllMax)
seed = none
out_format = csv
"""


def test_print_config_default_bytes(capsys):
    assert main(["--print-config"]) == 0
    assert capsys.readouterr() == (DEFAULT_CONFIG_TEXT, "")


def test_print_config_reflects_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text("blocks = 16\nseed = 4\n")
    assert main(["--config", str(cfg_file), "--policy", "MarkOnly", "--print-config"]) == 0
    out = capsys.readouterr().out
    assert "blocks = 16" in out
    assert "policies = MarkOnly" in out
    assert "seed = 4" in out


def test_cli_synthetic_csv(capsys):
    assert main(["--synthetic", "20", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE"
    assert len(lines) == 5
    assert lines[3].startswith("DdnRandom,49,600,100,0,0,")


def test_cli_policy_subset_order(capsys):
    assert main(["--synthetic", "10", "--seed", "1", "--policy", "DdnRandom,MarkOnly"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["DdnRandom", "MarkOnly"]


def test_policy_order_does_not_change_values():
    cfg_a = RunConfig(seed=5)
    cfg_a.policies = tuple(parse_policy(p) for p in ("MarkOnly", "DdnRandom"))
    cfg_b = RunConfig(seed=5)
    cfg_b.policies = tuple(parse_policy(p) for p in ("DdnRandom", "MarkOnly"))
    text = synthetic_trace(30, 0.5, 5, 8, 3)
    events = parse_trace(text, 8, 3)
    rows_a = {r["policy"]: r for r in run(cfg_a, events).rows}
    rows_b = {r["policy"]: r for r in run(cfg_b, events).rows}
    assert rows_a == rows_b


def test_cli_jsonl_output(tmp_path):
    out = tmp_path / "report.jsonl"
    rc = main(
        [
            "--synthetic",
            "5",
            "--seed",
            "2",
            "--policy",
            "DdnRandom",
            "--format",
            "jsonl",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["policy"] == "DdnRandom" for r in records)
    assert all(r["rd_us"] == 49.0 for r in records)


def test_cli_outputs_are_byte_identical(tmp_path):
    args = ["--synthetic", "40", "--seed", "11", "--update-ratio", "0.6"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_print_config_validates_all_but_the_seed(capsys):
    # The messages are the ones a run with the same options gets.
    assert main(["--print-config", "--seed", "-7"]) == 2
    assert capsys.readouterr() == ("", "ddnsim: config error: seed must be >= 0, got -7\n")
    assert main(["--print-config", "--policy", ""]) == 2
    assert capsys.readouterr() == ("", "ddnsim: config error: at least one policy is required\n")
    # Only the missing-seed rule is skipped: a config with no seed still prints.
    assert main(["--print-config"]) == 0
    assert "seed = none\n" in capsys.readouterr().out


def test_print_config_writes_to_out(tmp_path, capsys):
    out = tmp_path / "effective.cfg"
    assert main(["--print-config", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == DEFAULT_CONFIG_TEXT


def test_unwritable_out_is_exit_2_for_reports_and_config(tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    for args in (["--print-config"], ["--synthetic", "5", "--seed", "1", "--format", "jsonl"]):
        assert main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ddnsim: cannot write {out}: ")


def test_update_ratio_needs_synthetic(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("F\n")
    for args in (["--trace", str(trace), "--seed", "1"], ["--print-config"]):
        assert main([*args, "--update-ratio", "0.3"]) == 2
        message = "ddnsim: config error: --update-ratio needs --synthetic\n"
        assert capsys.readouterr() == ("", message)


def test_cli_jsonl_run_peaks_no_higher_than_csv(tmp_path):
    """The CLI streams the JSONL log, so it never holds the whole log: the
    traced peak of a JSONL run stays within 0.5 MB of the same CSV run's
    (building the log whole put it 1.3 MB above)."""

    def args(writes, out_format):
        return ["--synthetic", str(writes), "--seed", "1", "--format", out_format,
                "--out", str(tmp_path / out_format)]

    def peak(out_format):
        tracemalloc.start()
        try:
            assert main(args(1000, out_format)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(args(1, "jsonl")) == 0  # imports json before the measured runs
    assert peak("jsonl") - peak("csv") <= 500_000


def test_cli_usage_errors(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("F\n")
    assert main(["--seed", "1"]) == 2  # no trace source
    assert main(["--seed", "1", "--trace", str(trace), "--synthetic", "5"]) == 2
    assert main(["--synthetic", "5"]) == 2  # seed missing
    assert main(["--synthetic", "5", "--seed", "1", "--update-ratio", "1.5"]) == 2
    assert main(["--synthetic", "5", "--seed", "1", "--policy", "Nope"]) == 2
    capsys.readouterr()
    # An empty value is an error, not the option left out.
    assert main(["--synthetic", "5", "--seed", "1", "--policy", ""]) == 2
    assert "at least one policy is required" in capsys.readouterr().err
    assert main(["--synthetic", "5", "--seed", "1", "--config", ""]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err
    assert main(["--synthetic", "5", "--seed", "1", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ddnsim: cannot write : " in captured.err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # CPython seeds Random(-7) as Random(7), so a negative seed would repeat a run.
    assert main(["--synthetic", "5", "--seed", "-7"]) == 2
    assert "config error: seed must be >= 0, got -7" in capsys.readouterr().err
    config = tmp_path / "seed.cfg"
    config.write_text("seed = -7\n")
    assert main(["--synthetic", "5", "--config", str(config)]) == 2
    assert "config error: seed must be >= 0, got -7" in capsys.readouterr().err
    assert main(["--synthetic", "5", "--seed", "0"]) == 0


def test_cli_trace_errors(tmp_path, capsys):
    assert main(["--seed", "1", "--trace", str(tmp_path / "missing.trace")]) == 3
    bad = tmp_path / "bad.trace"
    bad.write_text("W 1 0xZZZZZZ\n")
    assert main(["--seed", "1", "--trace", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "trace error" in err


def test_non_utf8_files_are_read_errors_not_tracebacks(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b"W 1 0x\xff\xfe\n")
    assert main(["--trace", str(trace), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ddnsim: trace error: cannot read trace {trace}: ")
    assert "can't decode byte 0xff" in captured.err
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed = 1\n\xff\n")
    for argv in (["--synthetic", "3"], ["--print-config"]):
        assert main(["--config", str(config), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ddnsim: config error: cannot read config {config}: ")
        assert "can't decode byte 0xff" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--trace", "{trace}", "--seed", "1"],
        ["--config", "{config}", "--synthetic", "5"],
        ["--print-config", "--config", "{config}"],
    ],
    ids=["trace", "config", "print-config"],
)
def test_a_byte_order_mark_reads_as_the_same_file_without_it(tmp_path, capsys, argv):
    """A UTF-8 file may start with the mark some editors write; line 1 is
    then the same as in the file without it, and so is the report."""
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        trace = tmp_path / f"{len(mark)}.trace"
        trace.write_bytes(mark + b"W 1 0x000001\nF\nU 1 0x000002\n")
        config = tmp_path / f"{len(mark)}.cfg"
        config.write_bytes(mark + b"seed = 3\npolicies = MarkOnly,DdnRandom\n")
        out = tmp_path / f"{len(mark)}.out"
        args = [a.format(trace=trace, config=config) for a in argv]
        assert main([*args, "--out", str(out)]) == 0, capsys.readouterr().err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "text, message",
    [
        ("W ² 0x000000\n", "line 1: cache id must be a decimal integer, got '²'"),
        ("W ٣ 0x000000\n", "line 1: cache id must be a decimal integer, got '٣'"),
        ("W 1 0x000000\nI ²\n", "line 2: cache id must be a decimal integer, got '²'"),
        ("T ²\n", "line 1: T needs a non-negative tick count"),
    ],
)
def test_cli_rejects_non_ascii_digits(tmp_path, capsys, text, message):
    trace = tmp_path / "digits.trace"
    trace.write_text(text, encoding="utf-8")
    assert main(["--seed", "1", "--trace", str(trace)]) == 3
    assert capsys.readouterr() == ("", f"ddnsim: trace error: {message}\n")


# CPython 3.11 (and 3.10.7) refuses int() on more digits than this; 0 means no limit.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    INT_DIGIT_LIMIT == 0, reason="this Python has no integer string limit"
)


@needs_int_digit_limit
@pytest.mark.parametrize("op", ["T", "I"])
def test_cli_rejects_numbers_longer_than_the_int_digit_limit(tmp_path, capsys, op):
    digits = INT_DIGIT_LIMIT + 1
    trace = tmp_path / "long.trace"
    trace.write_text(f"W 1 0x000001\n{op} {'1' * digits}\n")
    assert main(["--seed", "1", "--trace", str(trace)]) == 3
    message = f"line 2: {digits}-digit number exceeds Python's integer string limit"
    assert capsys.readouterr() == ("", f"ddnsim: trace error: {message}\n")


@needs_int_digit_limit
def test_cli_takes_numbers_at_the_int_digit_limit(tmp_path, capsys):
    big = "9" * INT_DIGIT_LIMIT
    trace = tmp_path / "long.trace"
    trace.write_text(f"W {big} 0x000001\nF\nT {big}\nI {big}\n")
    assert main(["--seed", "1", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.startswith("POLICY,RD,WR")


@needs_int_digit_limit
@pytest.mark.parametrize("out_format", ["csv", "jsonl"])
def test_cli_rejects_tick_totals_longer_than_the_int_digit_limit(tmp_path, capsys, out_format):
    """Each T is in range, but the clock they add up to has more digits than
    the JSONL log could write; both formats reject the trace."""
    big = "9" * INT_DIGIT_LIMIT
    trace = tmp_path / "long.trace"
    trace.write_text(f"W 1 0x000001\nF\nT {big}\nT {big}\nI 1\n")
    assert main(["--seed", "1", "--trace", str(trace), "--format", out_format]) == 3
    message = "line 4: T counts add up past Python's integer string limit"
    assert capsys.readouterr() == ("", f"ddnsim: trace error: {message}\n")


@needs_int_digit_limit
def test_cli_writes_a_tick_total_at_the_int_digit_limit(tmp_path, capsys):
    last = 10**INT_DIGIT_LIMIT - 1
    trace = tmp_path / "long.trace"
    trace.write_text(f"W 1 0x000001\nF\nT {last - 1}\nT 1\nI 1\n")
    assert main(["--seed", "1", "--trace", str(trace), "--format", "jsonl"]) == 0
    assert capsys.readouterr().out.startswith(f'{{"tick": {last}, "cache_id": 1')


@pytest.mark.parametrize("limit, bounded", [(3, True), (0, False)])
def test_tick_total_bound_follows_the_int_digit_limit(monkeypatch, limit, bounded):
    """The T counts may add up to ``limit`` digits; a limit of 0 bounds nothing."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    assert len(parse_trace("T 998\nT 1\n", 4, 3)) == 2
    if bounded:
        with pytest.raises(TraceError, match="line 2: T counts add up past"):
            parse_trace("T 999\nT 1\n", 4, 3)
    else:
        assert len(parse_trace("T 999\nT 1\n", 4, 3)) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("blocks = ٣٢", "blocks: expected an integer, got '٣٢'"),
        ("nop_limit = 1_0", "nop_limit: expected an integer, got '1_0'"),
        ("t_read_us = ٤٩", "t_read_us: expected a number, got '٤٩'"),
        ("t_erase_us = 4_000.0", "t_erase_us: expected a number, got '4_000.0'"),
        ("seed = ٣", "seed: expected an integer, got '٣'"),
    ],
)
def test_config_numbers_are_ascii_without_underscores(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "digits.cfg"
    cfg_file.write_text(line + "\n", encoding="utf-8")
    assert main(["--config", str(cfg_file), "--print-config"]) == 2
    assert capsys.readouterr() == ("", f"ddnsim: config error: line 1: {message}\n")


@pytest.mark.parametrize(
    "spec", ["DdnNonRandom(Level=٣)", "DdnNonRandom(٣)", "DdnNonRandom(Level=1_0)"]
)
def test_policy_fill_levels_are_ascii_without_underscores(capsys, spec):
    assert main(["--policy", spec, "--print-config"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ddnsim: config error: numbers take ASCII")


@pytest.mark.parametrize("policy", ["DdnNonRandom(Level=3", "DdnNonRandom:3)", "MarkOnly("])
def test_policy_with_unbalanced_brackets_is_unparseable(capsys, policy):
    assert main(["--policy", policy, "--print-config"]) == 2
    assert capsys.readouterr() == ("", f"ddnsim: config error: unparseable policy: {policy!r}\n")


@pytest.mark.parametrize(
    "policy, label",
    [
        ("DdnNonRandom(Level=3)", "DdnNonRandom(Level=3)"),
        ("DdnNonRandom:Level=3", "DdnNonRandom(Level=3)"),
        ("DdnNonRandom( AllMax )", "DdnNonRandom(AllMax)"),
    ],
)
def test_policy_with_balanced_brackets_or_a_colon_parses(capsys, policy, label):
    assert main(["--policy", policy, "--print-config"]) == 0
    assert f"policies = {label}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "policy, spec",
    [
        ("DdnNonRandom(Level=abc)", "Level=abc"),
        ("DdnNonRandom(Level=)", "Level="),
        ("DdnNonRandom(Level=1e3)", "Level=1e3"),
        ("DdnNonRandom:Level=abc", "Level=abc"),
    ],
)
def test_policy_fill_level_that_is_not_a_number_is_an_unknown_pattern(capsys, policy, spec):
    # Not int()'s "invalid literal for int() with base 10" message.
    assert main(["--policy", policy, "--print-config"]) == 2
    assert capsys.readouterr() == ("", f"ddnsim: config error: unknown fill pattern {spec!r}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seed", "٣", "--synthetic", "5"], "argument --seed: invalid int value: '٣'"),
        (["--seed", "1", "--synthetic", "٣"], "argument --synthetic: invalid int value: '٣'"),
        (["--seed", "1_0", "--synthetic", "5"], "argument --seed: invalid int value: '1_0'"),
        (["--seed", "1", "--synthetic", "5", "--update-ratio", "٠.٥"],
         "argument --update-ratio: invalid float value: '٠.٥'"),
        (["--seed", "x", "--synthetic", "5"], "argument --seed: invalid int value: 'x'"),
    ],
)
def test_cli_numbers_are_ascii_without_underscores(capsys, args, message):
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"ddnsim: error: {message}\n")


def test_cli_device_full_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(
        "blocks = 1\npages_per_block = 1\ncells_per_page = 8\n"
        "cells_per_cache_slot = 8\npolicies = MarkOnly\n"
    )
    rc = main(["--config", str(cfg_file), "--synthetic", "3", "--seed", "1"])
    assert rc == 4
    assert "device error" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", [10**15, 10**20])
def test_cli_oversize_geometry_is_a_device_error(tmp_path, capsys, blocks):
    # Both sizes fail to allocate at once (OSError, OverflowError), so the
    # test takes no real memory.
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text(f"blocks = {blocks}\n")
    rc = main(["--config", str(cfg_file), "--synthetic", "3", "--seed", "1"])
    assert rc == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("ddnsim: device error: cannot allocate a device of ")
    assert f" {blocks * 64 * 16} cells " in line


def test_cli_rejects_reclaim_on_nand(tmp_path, capsys):
    cfg_file = tmp_path / "reclaim.cfg"
    cfg_file.write_text("reclaim_invalid_slots = true\n")
    rc = main(["--config", str(cfg_file), "--synthetic", "5", "--seed", "1"])
    assert rc == 2
    assert "reclaim_invalid_slots" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("t_secure = 0", "t_secure must be >= 1, got 0"),
        ("nop_limit = -1", "nop_limit must be >= 0, got -1"),
        ("dram_capacity = 0", "dram_capacity must be >= 1, got 0"),
        ("flush_idle_threshold = -1", "flush_idle_threshold must be >= 0, got -1"),
        ("reclaim_invalid_slots = true", "reclaim_invalid_slots needs device_kind = overwritable"),
        ("bits_per_cell = 9", "bits_per_cell must be <= 8 (a level is stored in one byte), got 9"),
    ],
)
def test_cli_range_errors_exit_2_before_the_trace_is_read(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    # The trace does not exist: reading it first would exit 3.
    args = ["--config", str(cfg_file), "--seed", "1", "--trace", str(tmp_path / "missing.trace")]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"ddnsim: config error: {message}\n")


@pytest.mark.parametrize(
    "line, shown",
    [
        ("t_read_us = nan", "nan"),
        ("t_gen_us = inf", "inf"),
        ("t_program_us = 1e400", "inf"),
        ("t_erase_us = -inf", "-inf"),
    ],
)
def test_cli_rejects_non_finite_latencies(tmp_path, capsys, line, shown):
    """A NaN or infinite device time would print nan or inf in the report."""
    cfg_file = tmp_path / "latency.cfg"
    cfg_file.write_text(line + "\n")
    out_file = tmp_path / "report.csv"
    args = ["--config", str(cfg_file), "--synthetic", "20", "--seed", "1"]
    name = line.split(" = ")[0]
    message = f"ddnsim: config error: {name} must be finite and >= 0, got {shown}\n"
    assert main([*args, "--out", str(out_file)]) == 2
    assert not out_file.exists()
    assert capsys.readouterr().err == message
    assert main(args) == 2
    assert capsys.readouterr() == ("", message)


def test_cli_rejects_latencies_above_the_bound(tmp_path, capsys):
    """A finite but huge device time would overflow the ledger sums to inf and
    nan; the bound itself still runs with finite output."""
    cfg_file = tmp_path / "latency.cfg"
    out_file = tmp_path / "report.csv"
    args = ["--config", str(cfg_file), "--synthetic", "20", "--seed", "1"]
    cfg_file.write_text("t_erase_us = 1e308\n")
    message = "ddnsim: config error: t_erase_us must be <= 1e12 us, got 1e+308\n"
    assert main([*args, "--out", str(out_file)]) == 2
    assert not out_file.exists()
    assert capsys.readouterr() == ("", message)
    cfg_file.write_text("t_erase_us = 1e12\n")
    for fmt in ("csv", "jsonl"):
        assert main([*args, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "EraseBased" in out
        assert not any(bad in out.lower() for bad in ("nan", "inf"))
    assert "1000000000000" in out


def test_cli_rejects_unaligned_slot_width_from_either_trace_source(tmp_path, capsys):
    cfg_file = tmp_path / "unaligned.cfg"
    cfg_file.write_text("cells_per_page = 15\ncells_per_cache_slot = 5\n")
    trace = tmp_path / "one.trace"
    trace.write_text("W 1 0x1234\n")
    for source in (["--trace", str(trace)], ["--synthetic", "3"]):
        assert main(["--config", str(cfg_file), "--seed", "1", *source]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "ddnsim: config error: slot width 15 bits is not hex-addressable\n"


def test_cli_rejects_out_of_range_fill_level(capsys):
    args = ["--synthetic", "20", "--seed", "1", "--policy"]
    for level in (9, -1):
        assert main([*args, f"DdnNonRandom(Level={level})"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line == (
            f"ddnsim: config error: DdnNonRandom(Level={level}): "
            f"level {level} out of range [0, 7]"
        )
    assert main([*args, "DdnNonRandom(Level=7)"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("DdnNonRandom(Level=7),")


# The two ways to start the CLI as a process: ``python -m ddnsim``, and the
# function the installed ``ddnsim`` script calls. Both end in os._exit.
ENTRY_POINTS = {
    "module": [sys.executable, "-m", "ddnsim"],
    "script": [sys.executable, "-c", "from ddnsim.cli import console_main; console_main()"],
}
# Processes run from the directory holding the imported package, so that ``-m``
# and ``-c`` find the same ddnsim whether it is installed or only on pytest's path.
CLI_CWD = Path(ddnsim.__file__).parents[1]


def run_entry_point(entry, args, **options):
    return subprocess.run([*ENTRY_POINTS[entry], *args], capture_output=True, cwd=CLI_CWD,
                          **options)


# perfbench's helper that starts a process and reads its ru_maxrss with wait4.
# Linux counts the peak of the process that starts a child in the child's
# ru_maxrss, so CLI runs start from that small process, not from pytest.
SPAWNER = Path(__file__).resolve().parents[1] / "perfbench" / "spawner.py"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read as Linux's KiB")
def test_device_memory_follows_what_a_run_writes(tmp_path):
    """Eight times the blocks costs a 50-write run the holder list (8 B per slot)
    and the byte masks, not the cell array and reprogram counts, which are
    resident only where written: about +2.3 MB on CPython 3.11, x86-64 Linux,
    and +5.1 MB with both allocated whole."""
    big = tmp_path / "big.cfg"
    big.write_text("blocks = 2048\n")
    run = [*ENTRY_POINTS["module"], "--synthetic", "50", "--seed", "1"]
    requests = "".join(
        json.dumps({"argv": argv, "stderr": str(tmp_path / "stderr"), "timeout": 60}) + "\n"
        for argv in (run, [*run, "--config", str(big)])
    )
    result = subprocess.run([sys.executable, str(SPAWNER)], input=requests, capture_output=True,
                            text=True, cwd=CLI_CWD, timeout=180, check=True)
    default, grown = map(json.loads, result.stdout.splitlines())
    assert default["status"] == grown["status"] == 0
    assert grown["maxrss_kb"] - default["maxrss_kb"] <= 3.5 * 1024


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_match_main_in_every_exit_class(entry, tmp_path, capsys):
    """As a process, each exit class gives the exit code, stdout, stderr and
    --out bytes that ``main`` gives in process."""
    bad_trace = tmp_path / "bad.trace"
    bad_trace.write_text("W 1 0x000001\nX\n")
    one_page = tmp_path / "one-page.cfg"
    one_page.write_text(
        "blocks = 1\npages_per_block = 1\ncells_per_page = 8\n"
        "cells_per_cache_slot = 8\npolicies = MarkOnly\n"
    )
    cases = [  # (exit code, start of stdout, stderr lines, arguments)
        (0, "POLICY,", 0, ["--synthetic", "20", "--seed", "1"]),
        (0, "", 0, ["--synthetic", "50", "--seed", "1", "--format", "jsonl", "--out", "{out}"]),
        (0, "POLICY,", 1,
         ["--synthetic", "300", "--seed", "1", "--policy", "DdnNonRandom(Level=1),DdnRandom"]),
        (2, "", 1, ["--synthetic", "3", "--seed", "-7"]),
        (3, "", 1, ["--trace", str(bad_trace), "--seed", "1"]),
        (4, "", 1, ["--config", str(one_page), "--synthetic", "3", "--seed", "1"]),
    ]
    for code, stdout_start, stderr_lines, args in cases:
        def out_to(name):
            return [str(tmp_path / name) if arg == "{out}" else arg for arg in args]

        assert main(out_to("main.out")) == code
        out, err = capsys.readouterr()
        assert out.startswith(stdout_start) and bool(out) == bool(stdout_start)
        assert len(err.splitlines()) == stderr_lines
        result = run_entry_point(entry, out_to("process.out"))
        assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())
    written = (tmp_path / "process.out").read_bytes()
    assert written.startswith(b'{"tick": ') and written == (tmp_path / "main.out").read_bytes()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_run_without_a_stdout(entry, tmp_path):
    # Started with file descriptor 1 closed, Python sets sys.stdout to None;
    # a run into --out needs no stdout.
    out = tmp_path / "report.csv"
    argv = [*ENTRY_POINTS[entry], "--synthetic", "5", "--seed", "3", "--out", str(out)]
    result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], capture_output=True,
                            cwd=CLI_CWD)
    assert (result.returncode, result.stderr) == (0, b"")
    assert out.read_text().startswith("POLICY,")


def test_module_entry_point_runs():
    result = run_entry_point("module", ["--synthetic", "5", "--seed", "3"], text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("POLICY,RD,WR,GEN,ERASE,GC,TOTAL_US,REMANENCE")


def test_cli_closed_stdout_pipe_is_exit_2():
    """The JSONL log goes to stdout in chunks; a reader that stops early
    closes the pipe under a later chunk, which is exit 2, not a traceback,
    from either entry point."""
    for entry in ENTRY_POINTS:
        proc = subprocess.Popen(
            [*ENTRY_POINTS[entry], "--synthetic", "1000", "--seed", "1", "--format", "jsonl"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=CLI_CWD,
        )
        assert proc.stdout.read(100).startswith(b'{"tick": ')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, entry
        assert err == b"ddnsim: cannot write stdout: [Errno 32] Broken pipe\n", entry


def test_cli_warns_once_per_policy_with_failed_deletions(capsys):
    args = ["--synthetic", "300", "--seed", "1"]
    assert main([*args, "--policy", "DdnNonRandom(Level=1),DdnRandom"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "DdnNonRandom(Level=1),0,0,0,0,0,359400,1"
    (warning,) = err.splitlines()
    assert warning.startswith(
        "ddnsim: warning: DdnNonRandom(Level=1): 300 of 300 deletions failed; first: "
    )
    assert "would drop" in warning
    assert main([*args, "--policy", "DdnRandom"]) == 0
    assert capsys.readouterr().err == ""
