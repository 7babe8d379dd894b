"""Deterministic trace-driven simulator of secure-deletion policies on
hybrid DRAM+NVM main memory.

The NVM controller destroys invalidated cache data by overwriting it in
place (with random upward-programmable data or a fixed fill) and the
simulator measures what that costs and what remains recoverable, next to
mark-only and erase-based baselines.
"""

from .cells import (
    ALL_MAX,
    FillKind,
    gen_fill_word,
    gen_uniform_word,
    gen_upward_word,
    max_level,
    word_from_hex,
)
from .config import ConfigError, RunConfig, format_config, load_config, parse_config_text
from .controller import (
    DeletionOutcome,
    DeletionPolicy,
    NvmController,
    PolicyKind,
    ProtocolError,
    parse_policy,
)
from .device import (
    AddressError,
    CacheEntry,
    CacheTable,
    DeviceError,
    DeviceFull,
    DeviceKind,
    Geometry,
    LatencyParams,
    MonotoneViolation,
    NoFreePages,
    NopExceeded,
    NvmDevice,
)
from .host import DramSlot, Host, TraceError, TraceEvent, parse_trace
from .metrics import (
    LatencyLedger,
    MetricsCollector,
    PolicyRun,
    ReportError,
    comparison_rows,
    render_comparison_csv,
    render_deletions_jsonl,
)
from .runner import RunReport, run, run_policy, synthetic_trace, trace_fingerprint

__version__ = "0.1.0"
