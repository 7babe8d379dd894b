"""Run configuration: defaults, flat ``key = value`` config files, validation.

Defaults model a small 3-bit-per-cell NAND-like device with the stock page
read/program, generation, and block-erase times (49 / 600 / 100 / 4000 us).
"""

from dataclasses import dataclass, field, fields, replace

from .cells import gen_fill_word, hex_digits
from .controller import PolicyKind, parse_policy
from .device import DeviceKind, Geometry, LatencyParams, NvmDevice
from .host import Host
from .metrics import _fmt


class ConfigError(Exception):
    pass


DEFAULT_POLICY_NAMES = ("MarkOnly", "EraseBased", "DdnRandom", "DdnNonRandom")


def _default_policies():
    return tuple(parse_policy(name) for name in DEFAULT_POLICY_NAMES)


@dataclass
class RunConfig:
    blocks: int = 256
    pages_per_block: int = 64
    cells_per_page: int = 16
    bits_per_cell: int = 3
    cells_per_cache_slot: int = 8
    device_kind: DeviceKind = DeviceKind.NON_OVERWRITABLE
    t_read_us: float = 49.0
    t_program_us: float = 600.0
    t_gen_us: float = 100.0
    t_erase_us: float = 4000.0
    nop_limit: int = 4
    flush_idle_threshold: int = 10
    dram_capacity: int = 65536
    t_secure: int | None = None
    reclaim_invalid_slots: bool = False
    policies: tuple = field(default_factory=_default_policies)
    seed: int | None = None
    out_format: str = "csv"

    def geometry(self) -> Geometry:
        return Geometry(
            blocks=self.blocks,
            pages_per_block=self.pages_per_block,
            cells_per_page=self.cells_per_page,
            bits_per_cell=self.bits_per_cell,
            cells_per_cache_slot=self.cells_per_cache_slot,
        )

    def latency(self) -> LatencyParams:
        return LatencyParams(
            t_read_us=self.t_read_us,
            t_program_us=self.t_program_us,
            t_gen_us=self.t_gen_us,
            t_erase_us=self.t_erase_us,
        )

    def run_policies(self) -> tuple:
        """Policies with the global secure-mode limit applied."""
        return tuple(replace(p, t_secure=self.t_secure) for p in self.policies)

    def validate(self):
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
            raise ConfigError("seed is required (wall-clock seeding is not allowed)")
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


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {value!r}") from exc


def _parse_float(value: str) -> float:
    try:
        return float(value)
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


# A RunConfig field's type picks its parser, so a new key is one new field.
_TYPE_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    bool: _parse_bool,
    DeviceKind: _parse_device_kind,
    int | None: _parse_optional_int,
    tuple: parse_policies,
    str: str,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def parse_config_text(text: str, base: RunConfig = None) -> RunConfig:
    """Apply ``key = value`` lines on top of a base config (defaults if none)."""
    cfg = replace(base) if base is not None else RunConfig()
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


def load_config(path: str, base: RunConfig = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, base)


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
    lines = [f"{f.name} = {_fmt_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"
