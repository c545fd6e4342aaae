"""Scenario configuration: a JSON document describing generator, analysis,
attack and report settings. Tap positions are 1-based everywhere."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from .registers import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
)
from .sampling import RankStop, SampleStop, Stop, TapSet


class ConfigError(ValueError):
    """Configuration file is missing fields or internally inconsistent."""


# The largest optimize.budget accepted. Step A draws up to 200 times the
# budget: at 1000, step A+B on configs/optimize_step_b.json (without its
# differences) takes about 2 s on a 2-core VM, and budget 10**30 was still
# running after 60 s.
MAX_OPTIMIZE_BUDGET = 1000

# The widest concrete filter (source hex or random) accepted: its truth table
# has 2^n entries, built in Python before any attack bound applies. A random
# table took 0.4-0.8 s at n = 20 on a 2-core VM, and the time doubles per
# input (at n = 27 the table alone needs over 1 GB).
MAX_FILTER_INPUTS = 20


@dataclass(frozen=True)
class FilterConfig:
    n: int
    m: int
    source: str | None  # "hex" | "random" | None (analysis only)
    hex_table: str | None
    seed: int | None

    def build(self, fallback_seed: int = 0) -> FilterSpec:
        if self.source in ("hex", "random") and self.n > MAX_FILTER_INPUTS:
            raise ConfigError(
                f"generator.filter.n must be at most {MAX_FILTER_INPUTS} for a concrete "
                f"filter (source {self.source}), not {self.n}"
            )
        if self.source == "hex":
            if not self.hex_table:
                raise ConfigError("filter.source=hex needs filter.hex")
            return FilterSpec.from_hex(self.n, self.m, self.hex_table)
        if self.source == "random":
            seed = self.seed if self.seed is not None else fallback_seed
            return FilterSpec.uniform_random(self.n, self.m, seed)
        raise ConfigError("filter table required: set filter.source to hex or random")


@dataclass(frozen=True)
class GeneratorConfig:
    register: LfsrSpec | NfsrSpec | HybridSpec
    taps: TapSet | HybridTaps
    filter: FilterConfig

    @property
    def tap_count(self) -> int:
        if isinstance(self.taps, HybridTaps):
            return self.taps.total
        return self.taps.n

    @property
    def total_length(self) -> int:
        if isinstance(self.register, HybridSpec):
            return self.register.lfsr.length + self.register.nfsr.length
        return self.register.length

    def build_generator(self, fallback_seed: int = 0) -> GeneratorSpec:
        return GeneratorSpec(self.register, self.taps, self.filter.build(fallback_seed))


@dataclass(frozen=True)
class AnalysisConfig:
    mode: str  # constant | greedy | cyclic | custom
    sigma: int | None
    schedule: tuple[int, ...] | None
    solver_exponent: float
    m_calibration: bool
    stop: Stop


@dataclass(frozen=True)
class AttackConfig:
    keystream: str | None


@dataclass(frozen=True)
class OptimizeConfig:
    differences: tuple[int, ...] | None
    budget: int
    chunk_size: int
    retries: int


@dataclass(frozen=True)
class ScenarioConfig:
    generator: GeneratorConfig
    analysis: AnalysisConfig
    attack: AttackConfig
    optimize: OptimizeConfig
    report_format: str
    raw: dict

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing {context}.{key}")
    return obj[key]


def _section(obj: dict, key: str, context: str, required: bool = False) -> dict:
    """obj[key], checked to be a JSON object; an absent optional one is empty."""
    value = _require(obj, key, context) if required else obj.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{context}.{key} must be an object")
    return value


def _known(obj: dict, context: str, *keys: str) -> None:
    """Refuse a key of ``obj`` outside ``keys``, named with its dotted path,
    so that a misspelled key exits 2 instead of being silently ignored."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        names = ", ".join(f"{context}.{key}" if context else key for key in unknown)
        raise ConfigError(
            f"unknown config key {names}: {context or 'the config'} takes {', '.join(keys)}")


def _int(obj: dict, key: str, context: str, default: int | None = None) -> int:
    """obj[key] as an integer; required unless a default is given."""
    value = _require(obj, key, context) if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer, not {value!r}")
    return value


def _float(obj: dict, key: str, context: str, default: float) -> float:
    """obj[key] as a finite positive number; absent means the default."""
    value = obj.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ConfigError(f"{context}.{key} must be a finite positive number, not {value!r}")
    return float(value)


def _str(obj: dict, key: str, context: str) -> str | None:
    """obj[key] as a string; absent or null means None."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{context}.{key} must be a string, not {value!r}")
    return value


def _bool(obj: dict, key: str, context: str, default: bool) -> bool:
    """obj[key] as a JSON boolean; absent means the default."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{context}.{key} must be true or false, not {value!r}")
    return value


def _positions(values, context: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in values
    ):
        raise ConfigError(f"{context} must be a list of integers")
    return tuple(values)


def _parse_anf(obj: dict, length: int, context: str) -> NfsrSpec:
    _known(obj, context, "constant", "monomials")
    constant = _int(obj, "constant", context, 0)
    monomials = obj.get("monomials", [])
    if not isinstance(monomials, list):
        raise ConfigError(f"{context}.monomials must be a list of position lists")
    return NfsrSpec(
        length, constant, tuple(frozenset(_positions(m, context)) for m in monomials)
    )


# The keys each generator kind reads.
_GENERATOR_KEYS = {
    "lfsr": ("kind", "length", "feedback", "taps", "filter"),
    "nfsr": ("kind", "length", "anf", "taps", "filter"),
    "hybrid": ("kind", "lfsr", "nfsr", "coupling", "taps", "filter"),
}


def _parse_generator(obj: dict) -> GeneratorConfig:
    kind = _require(obj, "kind", "generator")
    if not isinstance(kind, str) or kind not in _GENERATOR_KEYS:
        raise ConfigError(f"unknown generator kind {kind!r}")
    _known(obj, "generator", *_GENERATOR_KEYS[kind])
    filt = _section(obj, "filter", "generator")
    _known(filt, "generator.filter", "n", "m", "source", "hex", "seed")
    source = filt.get("source")
    if source not in (None, "hex", "random"):
        raise ConfigError(f"generator.filter.source must be hex or random, not {source!r}")
    fcfg = FilterConfig(
        n=_int(filt, "n", "generator.filter"),
        m=_int(filt, "m", "generator.filter"),
        source=source,
        hex_table=_str(filt, "hex", "generator.filter"),
        seed=None if filt.get("seed") is None else _int(filt, "seed", "generator.filter"),
    )
    if kind == "hybrid":
        lf = _section(obj, "lfsr", "generator", required=True)
        nf = _section(obj, "nfsr", "generator", required=True)
        _known(lf, "generator.lfsr", "length", "feedback")
        _known(nf, "generator.nfsr", "length", "anf")
        lfsr = LfsrSpec(
            _int(lf, "length", "generator.lfsr"),
            frozenset(_positions(_require(lf, "feedback", "generator.lfsr"), "feedback")),
        )
        nfsr = _parse_anf(
            _section(nf, "anf", "generator.nfsr", required=True),
            _int(nf, "length", "generator.nfsr"),
            "generator.nfsr.anf",
        )
        register: LfsrSpec | NfsrSpec | HybridSpec = HybridSpec(
            lfsr, nfsr, _bool(obj, "coupling", "generator", True)
        )
        taps_obj = _section(obj, "taps", "generator", required=True)
        _known(taps_obj, "generator.taps", "lfsr", "nfsr")
        taps: TapSet | HybridTaps = HybridTaps(
            lfsr=TapSet(_positions(_require(taps_obj, "lfsr", "taps"), "taps.lfsr"), lfsr.length),
            nfsr=TapSet(_positions(_require(taps_obj, "nfsr", "taps"), "taps.nfsr"), nfsr.length),
        )
    else:
        length = _int(obj, "length", "generator")
        if kind == "lfsr":
            register = LfsrSpec(
                length,
                frozenset(_positions(_require(obj, "feedback", "generator"), "feedback")),
            )
        else:
            register = _parse_anf(
                _section(obj, "anf", "generator", required=True), length, "generator.anf"
            )
        taps = TapSet(_positions(_require(obj, "taps", "generator"), "taps"), length)
    cfg = GeneratorConfig(register, taps, fcfg)
    if fcfg.n != cfg.tap_count:
        raise ConfigError(
            f"filter.n={fcfg.n} must equal the tap count {cfg.tap_count}"
        )
    if not 1 <= fcfg.m <= fcfg.n:
        raise ConfigError("need 1 <= filter.m <= filter.n")
    return cfg


def _parse_stop(obj, context: str, L: int) -> Stop:
    if obj is None:
        return RankStop()
    if isinstance(obj, dict):
        _known(obj, f"{context}.stop", "rank", "samples")
        if "rank" in obj and "samples" in obj:
            raise ConfigError(
                f"{context}.stop takes {context}.stop.rank or {context}.stop.samples, not both")
        if "samples" in obj:
            samples = _int(obj, "samples", f"{context}.stop")
            # Every sample adds at least one distinct equation, so L - n + 2
            # samples always overdefine the system; more only spend time.
            if not 1 <= samples <= L:
                raise ConfigError(
                    f"{context}.stop.samples must lie in 1..L = {L}, not {samples}")
            return SampleStop(samples)
        if _bool(obj, "rank", f"{context}.stop", True):
            return RankStop()
    raise ConfigError(f"{context}.stop must be {{'rank': true}} or {{'samples': c}}")


def _parse_analysis(obj: dict, gen: GeneratorConfig) -> AnalysisConfig:
    if obj and not isinstance(gen.register, LfsrSpec):
        keys = ", ".join(f"analysis.{key}" for key in obj)
        raise ConfigError(
            f"{keys} not accepted: nfsr and hybrid generators take no analysis section "
            "(analyze and attack derive the distance-1 window from the register geometry)")
    # sigma and schedule are accepted in every mode, read or not.
    _known(obj, "analysis", "mode", "sigma", "schedule", "solver_exponent", "m_calibration",
           "stop")
    mode = obj.get("mode", "constant")
    if mode not in ("constant", "greedy", "cyclic", "custom"):
        raise ConfigError(f"unknown analysis mode {mode!r}")
    schedule = obj.get("schedule")
    if schedule is not None:
        schedule = _positions(schedule, "analysis.schedule")
        if any(not 1 <= s <= gen.total_length for s in schedule):
            raise ConfigError("schedule steps must lie in 1..L")
    if mode == "custom" and not schedule:
        raise ConfigError("custom mode needs analysis.schedule")
    stop = (_parse_stop(obj["stop"], "analysis", gen.total_length) if "stop" in obj
            else None if mode == "custom" else RankStop())
    return AnalysisConfig(
        mode=mode,
        sigma=None if obj.get("sigma") is None else _int(obj, "sigma", "analysis"),
        schedule=schedule,
        solver_exponent=_float(obj, "solver_exponent", "analysis", 3.0),
        m_calibration=_bool(obj, "m_calibration", "analysis", False),
        stop=stop,
    )


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _known(raw, "", "generator", "analysis", "attack", "optimize", "report")
    gen = _parse_generator(_section(raw, "generator", "config", required=True))
    analysis = _parse_analysis(_section(raw, "analysis", "config"), gen)
    attack_obj = _section(raw, "attack", "config")
    _known(attack_obj, "attack", "keystream")
    attack = AttackConfig(keystream=_str(attack_obj, "keystream", "attack"))
    opt_obj = _section(raw, "optimize", "config")
    _known(opt_obj, "optimize", "differences", "budget", "chunk_size", "retries")
    differences = opt_obj.get("differences")
    optimize = OptimizeConfig(
        differences=None if differences is None else tuple(_positions(differences, "optimize.differences")),
        budget=_int(opt_obj, "budget", "optimize", 12),
        chunk_size=_int(opt_obj, "chunk_size", "optimize", 5),
        retries=_int(opt_obj, "retries", "optimize", 6),
    )
    if not 1 <= optimize.budget <= MAX_OPTIMIZE_BUDGET:
        raise ConfigError(
            f"optimize.budget must be between 1 and {MAX_OPTIMIZE_BUDGET}, not {optimize.budget}"
        )
    for key, value in (("chunk_size", optimize.chunk_size), ("retries", optimize.retries)):
        if value < 1:
            raise ConfigError(f"optimize.{key} must be at least 1, not {value}")
    if optimize.differences is not None:
        for value in optimize.differences:
            if value < 1:
                raise ConfigError(f"optimize.differences entries must be at least 1, not {value}")
        span = sum(optimize.differences)
        if span > gen.total_length - 1:
            raise ConfigError(
                f"optimize.differences sum to {span}, beyond L - 1 = {gen.total_length - 1}"
            )
    report_obj = _section(raw, "report", "config")
    _known(report_obj, "report", "format")
    fmt = report_obj.get("format", "table")
    if fmt not in ("table", "structured"):
        raise ConfigError("report.format must be table or structured")
    return ScenarioConfig(gen, analysis, attack, optimize, fmt, raw)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)
