"""Starting the CLI costs only the standard-library modules a run uses.

The probe runs in a fresh ``python -S`` (no site packages, which may import
anything), with ``src`` on ``sys.path``, and prints which of the modules
below are loaded after each step.
"""

import subprocess
import sys
from pathlib import Path

import ddnsim

SRC = Path(ddnsim.__file__).parents[1]
UNWANTED = ("argparse", "dataclasses", "gettext", "hashlib", "heapq", "inspect", "json", "locale",
            "typing")

PROBE = """
import sys
src, out, unwanted = sys.argv[1], sys.argv[2], set(sys.argv[3].split(","))
sys.path.insert(0, src)
import ddnsim.cli
print(sorted(unwanted & set(sys.modules)))
assert ddnsim.cli.main(["--synthetic", "20", "--seed", "1", "--out", out + ".csv"]) == 0
print(sorted(unwanted & set(sys.modules)))
assert ddnsim.cli.main(["--synthetic", "20", "--seed", "1", "--out", out + ".jsonl",
                        "--format", "jsonl"]) == 0
print(sorted(unwanted & set(sys.modules)))
"""


def test_cli_loads_json_only_to_render_jsonl(tmp_path):
    out = tmp_path / "report"
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC), str(out), ",".join(UNWANTED)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    # after the import, after a CSV run, after a JSONL run
    assert result.stdout.splitlines() == ["[]", "[]", "['json']"]
    assert (tmp_path / "report.csv").read_text().startswith("POLICY,RD,WR")
    assert (tmp_path / "report.jsonl").read_text().startswith('{"tick": ')


def test_package_import_loads_no_regex_heap_or_argparse():
    # Neither the library nor the CLI needs re (parse_policy imports it when it
    # first runs) or argparse, with its gettext and locale; heapq waits for a
    # DRAM that fills.
    for module in ("ddnsim", "ddnsim.cli"):
        probe = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; " \
                "print(sorted({'argparse', 'gettext', 'heapq', 'locale', 're'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n", module
