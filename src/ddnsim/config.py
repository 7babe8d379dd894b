"""Run configuration: defaults, flat ``key = value`` config files, validation.

Defaults model a small 3-bit-per-cell NAND-like device with the stock page
read/program, generation, and block-erase times (49 / 600 / 100 / 4000 us).
"""

from .cells import gen_fill_word, hex_digits
from .controller import DeletionPolicy, PolicyKind, parse_policy
from .device import DeviceKind, Geometry, LatencyParams, NvmDevice
from .host import Host
from .metrics import _fmt
from .values import Record, ascii_number

# A UTF-8 byte-order mark, which config and trace files may start with and
# which is not part of line 1. Stripped after a plain utf-8 decode, because
# the "utf-8-sig" codec is one more module to import at start-up.
BOM = "\ufeff"


class ConfigError(Exception):
    pass


def _parse_int(value: str) -> int:
    try:
        return ascii_number(value, int)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {value!r}") from exc


def _parse_float(value: str) -> float:
    try:
        return ascii_number(value, float)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {value!r}") from exc


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {value!r}")


def _parse_device_kind(value: str) -> DeviceKind:
    lowered = value.lower()
    if lowered in ("overwritable", "pram"):
        return DeviceKind.OVERWRITABLE
    if lowered in ("non-overwritable", "nonoverwritable", "nand"):
        return DeviceKind.NON_OVERWRITABLE
    raise ConfigError(f"unknown device_kind {value!r}")


def _parse_optional_int(value: str):
    if value.lower() in ("none", ""):
        return None
    return _parse_int(value)


def parse_policies(value: str) -> tuple:
    """Comma-separated policy names, as in the ``policies`` key and ``--policy``."""
    try:
        return tuple(parse_policy(part) for part in value.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# One entry per config key, in ``format_config`` order: (name, default, parser
# of the key's text). A new key is one new entry.
_SCHEMA = (
    ("blocks", 256, _parse_int),
    ("pages_per_block", 64, _parse_int),
    ("cells_per_page", 16, _parse_int),
    ("bits_per_cell", 3, _parse_int),
    ("cells_per_cache_slot", 8, _parse_int),
    ("device_kind", DeviceKind.NON_OVERWRITABLE, _parse_device_kind),
    ("t_read_us", 49.0, _parse_float),
    ("t_program_us", 600.0, _parse_float),
    ("t_gen_us", 100.0, _parse_float),
    ("t_erase_us", 4000.0, _parse_float),
    ("nop_limit", 4, _parse_int),
    ("flush_idle_threshold", 10, _parse_int),
    ("dram_capacity", 65536, _parse_int),
    ("t_secure", None, _parse_optional_int),
    ("reclaim_invalid_slots", False, _parse_bool),
    # Every kind, DdnNonRandom filling AllMax: what parse_policies reads from
    # "MarkOnly,EraseBased,DdnRandom,DdnNonRandom", without its regex.
    ("policies", tuple(map(DeletionPolicy, PolicyKind)), parse_policies),
    ("seed", None, _parse_optional_int),
    ("out_format", "csv", str),
)
_PARSERS = {name: parser for name, _, parser in _SCHEMA}


class RunConfig(Record):
    """Every setting of a run, one attribute per ``_SCHEMA`` key; keyword
    arguments override the defaults."""

    __slots__ = tuple(name for name, _, _ in _SCHEMA)

    def __init__(self, **settings):
        for name, default, _ in _SCHEMA:
            setattr(self, name, settings.pop(name, default))
        if settings:
            raise TypeError(f"RunConfig got an unknown setting {next(iter(settings))!r}")

    def geometry(self) -> Geometry:
        return Geometry(self.blocks, self.pages_per_block, self.cells_per_page,
                        self.bits_per_cell, self.cells_per_cache_slot)

    def latency(self) -> LatencyParams:
        return LatencyParams(self.t_read_us, self.t_program_us, self.t_gen_us, self.t_erase_us)

    def run_policies(self) -> tuple:
        """Policies with the global secure-mode limit applied."""
        return tuple(DeletionPolicy(p.kind, p.fill, self.t_secure) for p in self.policies)

    def validate(self, require_seed=True):  # --print-config needs no seed
        try:
            self.geometry()
            self.latency()
            hex_digits(self.cells_per_cache_slot, self.bits_per_cell)
            self.run_policies()
            NvmDevice.check_settings(self.device_kind, self.nop_limit, self.reclaim_invalid_slots)
            Host.check_settings(self.dram_capacity, self.flush_idle_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed is None:
            if require_seed:
                raise ConfigError("seed is required (wall-clock seeding is not allowed)")
        elif self.seed < 0:  # Random(-n) seeds exactly as Random(n) does
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        for policy in self.policies:
            if policy.kind is PolicyKind.DDN_NON_RANDOM:
                try:
                    gen_fill_word(policy.fill, self.cells_per_cache_slot, self.bits_per_cell)
                except ValueError as exc:
                    raise ConfigError(f"{policy.label}: {exc}") from exc
        if self.out_format not in ("csv", "jsonl"):
            raise ConfigError(f"out_format must be csv or jsonl, got {self.out_format!r}")


def parse_config_text(text: str) -> RunConfig:
    """Apply ``key = value`` lines on top of the defaults."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, parser(value))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read().removeprefix(BOM)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, DeviceKind):
        return value.value
    if isinstance(value, tuple):  # policies
        return ",".join(p.label for p in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    """Render a config in the same grammar parse_config_text accepts."""
    lines = [f"{name} = {_fmt_value(getattr(cfg, name))}" for name, _, _ in _SCHEMA]
    return "\n".join(lines) + "\n"
