"""Scenario configuration: a JSON document describing generator, analysis,
attack and report settings. Tap positions are 1-based everywhere."""

from __future__ import annotations

import functools
import hashlib
import json
import math

from .registers import (
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
)
from .sampling import RankStop, SampleStop, Stop, TapSet, _Frozen, _set


class ConfigError(ValueError):
    """Configuration file is missing fields or internally inconsistent."""


# Every bound on a command's work, each checked before the work starts, with
# its measured reason; the README's Limits table lists them.

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

# The longest register accepted, for each of generator.length,
# generator.lfsr.length and generator.nfsr.length (the paper's largest is
# 128). On a 2-core VM, analyze with m_calibration on a 7-tap LFSR with
# spread taps took at most 0.19 s at L = 2048 (greedy and cyclic), 0.6 s at
# 4096 and 6.3 s at 8192.
MAX_REGISTER_LENGTH = 2048

# The most differences step B orders exhaustively; `optimize` runs the staged
# search above it. Step B walks the distinct orderings one at a time, so its
# memory does not grow with their number: at L = 128, m = 1 on a 2-core VM,
# step A+B with n = 10 and budget 12 (1,557,360 orderings) took 8.8 s at a
# peak RSS of 15 MiB.
MAX_EXHAUSTIVE_DIFFERENCES = 10

# The most distinct orderings, summed over the multisets, that step B prices;
# above it the search is refused before it starts. Pricing takes about 5.7 us
# an ordering (the n = 10 run above, and 243,600 orderings in 1.4 s at n = 9),
# so the limit holds step B to about 11 s. It admits step A+B at n = 10 with
# the default budget, and refuses n = 11 from a single candidate of distinct
# differences (3,628,800) and step A at n = 11, budget 1000 (565,185,600).
# The walk that yields the distinct orderings still steps through all k!
# permutations of each multiset, at most 10! (MAX_EXHAUSTIVE_DIFFERENCES),
# whatever their repeats: ten equal differences took 0.92 s to yield their
# one ordering, time this limit does not count.
MAX_STEP_B_ORDERINGS = 2_000_000

# The most chunk permutations that the staged search's later stages may step
# through: stage_budget times k! for each stage after the first, k its chunk
# size (at most one retry per stage prices its candidates); above it
# `optimize` is refused before stage 1 is priced. At L = 128, 21 taps, m = 3,
# chunk_size 9 (9! + 2! a candidate) on a 2-core VM, budget 12 (4,354,584)
# took 1.7 s, budget 60 (21,772,920) 4.1 s, budget 120 8.1 s and budget 300
# (108,864,600) 20 s, about 0.2 us a permutation, so the limit holds the
# search to about 5 s and admits budget 68 there.
MAX_STAGED_PERMUTATIONS = 25_000_000

# The most free bits the LFSR attack sweeps: L minus the rank of the labels
# its schedule reads. Above it the attack is refused (exit 3) before any
# completion offset exists. A path that reaches the last sample filters its
# 2^free offsets through a 2^free-entry table per block it reads, so time
# and memory double per bit. A 32-bit rotation register (taps 1, 2, m = 1,
# a custom schedule) on a 2-core VM took 1.4 ms a path (at most 9.3 ms) at
# a traced peak of 2.2 MiB with 14 free bits, and 28 ms a path (at most
# 233 ms) at 41.7 MiB with 18, so 24 bits would need about 2.6 GiB.
COMPLETION_CAP_BITS = 14

# The most blocks a keystream file may hold; a longer one is refused from its
# header. `attack` on configs/toy_attack_lfsr.json (m = 2) under a 1 GiB
# address-space limit on a 2-core VM: 10**6 blocks took 1.24 s at a peak RSS
# of 67 MiB, 4 * 10**6 blocks 5.0 s at 206 MiB, about 50 bytes a block, so
# 4 * 10**7 blocks would end in a MemoryError.
MAX_KEYSTREAM_BLOCKS = 4_000_000


class GeneratorConfig(_Frozen):
    """The generator section: the register and taps it builds, and the
    values of its filter section, keyed by member name as in ``KEYS``; the
    filter itself is built only by :meth:`build_generator`."""

    __slots__ = ("register", "taps", "filter")

    def __init__(self, register: LfsrSpec | NfsrSpec | HybridSpec,
                 taps: TapSet | HybridTaps, filter: dict):
        _set(self, "register", register)
        _set(self, "taps", taps)
        _set(self, "filter", filter)

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
        n, m, source = self.filter["n"], self.filter["m"], self.filter["source"]
        if source in ("hex", "random") and n > MAX_FILTER_INPUTS:
            raise ConfigError(
                f"generator.filter.n must be at most {MAX_FILTER_INPUTS} for a concrete "
                f"filter (source {source}), not {n}"
            )
        if source == "hex":
            if not self.filter["hex"]:
                raise ConfigError("generator.filter.hex is required by source hex")
            filt = _build("generator.filter.hex", FilterSpec.from_hex, n, m, self.filter["hex"])
        elif source == "random":
            seed = self.filter["seed"]
            filt = FilterSpec.uniform_random(n, m, fallback_seed if seed is None else seed)
        else:
            raise ConfigError(
                "generator.filter.source must be hex or random to build the filter")
        return GeneratorSpec(self.register, self.taps, filt)


class ScenarioConfig(_Frozen):
    """A parsed config. ``analysis`` and ``optimize`` hold the values of
    their sections keyed by member name as in ``KEYS``, ``analysis`` with
    its parsed ``stop``; ``keystream`` is attack.keystream."""

    __slots__ = ("generator", "analysis", "optimize", "keystream", "report_format", "raw")

    def __init__(self, generator: GeneratorConfig, analysis: dict, optimize: dict,
                 keystream: str | None, report_format: str, raw: dict):
        _set(self, "generator", generator)
        _set(self, "analysis", analysis)
        _set(self, "optimize", optimize)
        _set(self, "keystream", keystream)
        _set(self, "report_format", report_format)
        _set(self, "raw", raw)

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()


# Every leaf key: (JSON type, default, allowed values or integer range
# (lo, hi) where hi None is unbounded, generator kinds that take it). A
# default of None also accepts null. The parse functions check what depends
# on other keys: schedule steps and stop.samples in 1..L, filter.m at most
# filter.n, filter.n equal to the tap count.
REQUIRED = object()
KEYS = {
    "generator.kind": ("string", REQUIRED, ("lfsr", "nfsr", "hybrid"), "lfsr nfsr hybrid"),
    "generator.length": ("integer", REQUIRED, (1, MAX_REGISTER_LENGTH), "lfsr nfsr"),
    "generator.feedback": ("integers", REQUIRED, None, "lfsr"),
    "generator.anf.constant": ("integer", 0, (0, 1), "nfsr"),
    "generator.anf.monomials": ("integer lists", (), None, "nfsr"),
    "generator.taps": ("integers", REQUIRED, None, "lfsr nfsr"),
    "generator.lfsr.length": ("integer", REQUIRED, (1, MAX_REGISTER_LENGTH), "hybrid"),
    "generator.lfsr.feedback": ("integers", REQUIRED, None, "hybrid"),
    "generator.nfsr.length": ("integer", REQUIRED, (1, MAX_REGISTER_LENGTH), "hybrid"),
    "generator.nfsr.anf.constant": ("integer", 0, (0, 1), "hybrid"),
    "generator.nfsr.anf.monomials": ("integer lists", (), None, "hybrid"),
    "generator.coupling": ("boolean", True, None, "hybrid"),
    "generator.taps.lfsr": ("integers", REQUIRED, None, "hybrid"),
    "generator.taps.nfsr": ("integers", REQUIRED, None, "hybrid"),
    "generator.filter.n": ("integer", REQUIRED, (1, None), "lfsr nfsr hybrid"),
    "generator.filter.m": ("integer", REQUIRED, (1, None), "lfsr nfsr hybrid"),
    "generator.filter.source": ("string", None, ("hex", "random"), "lfsr nfsr hybrid"),
    "generator.filter.hex": ("string", None, None, "lfsr nfsr hybrid"),
    "generator.filter.seed": ("integer", None, None, "lfsr nfsr hybrid"),
    "analysis.mode": ("string", "constant", ("constant", "greedy", "cyclic", "custom"), "lfsr"),
    "analysis.sigma": ("integer", None, None, "lfsr"),
    "analysis.schedule": ("integers", None, None, "lfsr"),
    "analysis.solver_exponent": ("number", 3.0, None, "lfsr"),
    "analysis.m_calibration": ("boolean", False, None, "lfsr"),
    "analysis.stop.rank": ("boolean", True, None, "lfsr"),
    "analysis.stop.samples": ("integer", REQUIRED, None, "lfsr"),  # read only when given
    "attack.keystream": ("string", None, None, "lfsr nfsr hybrid"),
    "optimize.differences": ("integers", None, None, "lfsr nfsr hybrid"),
    "optimize.budget": ("integer", 12, (1, MAX_OPTIMIZE_BUDGET), "lfsr nfsr hybrid"),
    "optimize.chunk_size": ("integer", 5, (1, MAX_EXHAUSTIVE_DIFFERENCES), "lfsr nfsr hybrid"),
    "optimize.retries": ("integer", 6, (1, None), "lfsr nfsr hybrid"),
    "report.format": ("string", "table", ("table", "structured"), "lfsr nfsr hybrid"),
}

# KEYS as _read takes it: the member name first, the generator kinds left out.
_SPECS = {key: (key.rpartition(".")[2], *spec[:3]) for key, spec in KEYS.items()}


def _read(obj: dict, key: str):
    """The value of leaf ``key`` in its section ``obj``, checked against
    ``KEYS``: absent means the default, null means None where the default is
    None, and a list comes back as a tuple."""
    name, typ, default, allowed = _SPECS[key]
    value = obj.get(name, default)
    if value is default:  # absent, or the default itself (null where that is None)
        if value is REQUIRED:
            raise ConfigError(f"{key} is required")
        return value
    if typ == "integer":
        if type(value) is not int:
            raise ConfigError(f"{key} must be an integer, not {value!r}")
        lo, hi = allowed or (value, None)
        if value < lo or hi is not None and value > hi:
            raise ConfigError(f"{key} must be at least {lo}, not {value}" if hi is None
                              else f"{key} must be between {lo} and {hi}, not {value}")
    elif typ == "string":
        if allowed and value not in allowed:
            raise ConfigError(
                f"{key} must be {', '.join(allowed[:-1])} or {allowed[-1]}, not {value!r}")
        if type(value) is not str:
            raise ConfigError(f"{key} must be a string, not {value!r}")
    elif typ == "boolean":
        if type(value) is not bool:
            raise ConfigError(f"{key} must be true or false, not {value!r}")
    elif typ == "number":
        if type(value) not in (int, float) or not math.isfinite(value) or value <= 0:
            raise ConfigError(f"{key} must be a finite positive number, not {value!r}")
        return float(value)
    elif typ == "integers":
        if type(value) is not list or not {*map(type, value)} <= {int}:
            raise ConfigError(f"{key} must be a list of integers")
    elif type(value) is not list or any(  # integer lists
            type(v) is not list or not {*map(type, v)} <= {int} for v in value):
        raise ConfigError(f"{key} must be a list of lists of integers")
    return tuple(value) if type(value) is list else value


@functools.cache
def _leaves(section: str) -> tuple[tuple[str, str], ...]:
    """(member name, key) of each leaf directly under ``section``, in
    ``KEYS`` order."""
    return tuple((key.rpartition(".")[2], key) for key in KEYS
                 if key.rpartition(".")[0] == section)


def _values(obj: dict, section: str) -> dict:
    """The leaves directly under ``section``, each read from the section's
    object ``obj`` by ``_read``, keyed by member name."""
    return {name: _read(obj, key) for name, key in _leaves(section)}


def _section(obj: dict, key: str, required: bool = False, known: bool = True) -> dict:
    """The object at ``key`` in ``obj``, with ``known`` its keys checked with
    ``_known``; an absent optional one is empty."""
    value = obj.get(key.rpartition(".")[2], REQUIRED if required else {})
    if value is REQUIRED:
        raise ConfigError(f"{key} is required")
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    if known and value:
        _known(value, key)
    return value


@functools.cache
def _children(section: str, kind: str | None):
    """The names ``section`` takes for a generator of ``kind`` (None: any
    kind), in ``KEYS`` order, as a set-like view."""
    prefix = f"{section}." if section else ""
    names = (key[len(prefix):].partition(".")[0] for key, spec in KEYS.items()
             if key.startswith(prefix) and (kind is None or kind in spec[3].split()))
    return dict.fromkeys(names).keys()


def _known(obj: dict, section: str, kind: str | None = None) -> None:
    """Refuse a key of ``obj`` that ``section`` does not take, named with its
    dotted path, so that a misspelled key exits 2 instead of being silently
    ignored."""
    keys = _children(section, kind)
    if not obj.keys() <= keys:
        unknown = [key for key in obj if key not in keys]
        names = ", ".join(f"{section}.{key}" if section else key for key in unknown)
        raise ConfigError(
            f"unknown config key {names}: {section or 'the config'} takes {', '.join(keys)}")


def _build(key: str, cls, *args):
    """``cls(*args)``, with the message of a ValueError it raises named by
    the config ``key`` whose value broke it."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_anf(obj: dict, key: str, length: int) -> NfsrSpec:
    anf = _section(obj, key, required=True)
    return _build(f"{key}.monomials", NfsrSpec, length, _read(anf, f"{key}.constant"),
                  _read(anf, f"{key}.monomials"))


def _parse_generator(obj: dict) -> GeneratorConfig:
    kind = _read(obj, "generator.kind")
    _known(obj, "generator", kind)
    filt = _values(_section(obj, "generator.filter"), "generator.filter")
    if kind == "hybrid":
        lf = _section(obj, "generator.lfsr", required=True)
        nf = _section(obj, "generator.nfsr", required=True)
        taps_obj = _section(obj, "generator.taps", required=True)
        lfsr = _build("generator.lfsr.feedback", LfsrSpec,
                      _read(lf, "generator.lfsr.length"), _read(lf, "generator.lfsr.feedback"))
        nfsr = _parse_anf(nf, "generator.nfsr.anf", _read(nf, "generator.nfsr.length"))
        register: LfsrSpec | NfsrSpec | HybridSpec = _build(
            "generator.coupling", HybridSpec, lfsr, nfsr, _read(obj, "generator.coupling"))
        taps: TapSet | HybridTaps = HybridTaps(
            lfsr=_build("generator.taps.lfsr", TapSet,
                        _read(taps_obj, "generator.taps.lfsr"), lfsr.length),
            nfsr=_build("generator.taps.nfsr", TapSet,
                        _read(taps_obj, "generator.taps.nfsr"), nfsr.length),
        )
    else:
        length = _read(obj, "generator.length")
        if kind == "lfsr":
            register = _build("generator.feedback", LfsrSpec,
                              length, _read(obj, "generator.feedback"))
        else:
            register = _parse_anf(obj, "generator.anf", length)
        taps = _build("generator.taps", TapSet, _read(obj, "generator.taps"), length)
    cfg = GeneratorConfig(register, taps, filt)
    n, m = filt["n"], filt["m"]
    if n != cfg.tap_count:
        raise ConfigError(
            f"generator.filter.n must equal the tap count {cfg.tap_count}, not {n}")
    if m > n:
        raise ConfigError(
            f"generator.filter.m must be at most generator.filter.n = {n}, not {m}")
    return cfg


def _parse_stop(analysis: dict, L: int) -> Stop:
    if analysis["stop"] is None:
        return RankStop()
    obj = _section(analysis, "analysis.stop")
    if "samples" in obj:
        if "rank" in obj:
            raise ConfigError(
                "analysis.stop takes analysis.stop.rank or analysis.stop.samples, not both")
        samples = _read(obj, "analysis.stop.samples")
        # Every sample adds at least one distinct equation, so L - n + 2
        # samples always overdefine the system; more only spend time.
        if not 1 <= samples <= L:
            raise ConfigError(f"analysis.stop.samples must lie in 1..L = {L}, not {samples}")
        return SampleStop(samples)
    if _read(obj, "analysis.stop.rank"):
        return RankStop()
    raise ConfigError("analysis.stop must be {'rank': true} or {'samples': c}")


def _parse_analysis(obj: dict, gen: GeneratorConfig) -> dict:
    if obj and not isinstance(gen.register, LfsrSpec):
        keys = ", ".join(f"analysis.{key}" for key in obj)
        raise ConfigError(
            f"{keys} not accepted: nfsr and hybrid generators take no analysis section "
            "(analyze and attack derive the distance-1 window from the register geometry)")
    # sigma and schedule are accepted in every mode, read or not.
    analysis = _values(obj, "analysis")
    mode, schedule = analysis["mode"], analysis["schedule"]
    if schedule is not None and any(not 1 <= s <= gen.total_length for s in schedule):
        raise ConfigError(f"analysis.schedule steps must lie in 1..L = {gen.total_length}")
    if mode == "custom" and not schedule:
        raise ConfigError("custom mode needs analysis.schedule")
    analysis["stop"] = (_parse_stop(obj, gen.total_length) if "stop" in obj
                        else None if mode == "custom" else RankStop())
    return analysis


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _known(raw, "")
    # The generator's keys depend on its kind: _parse_generator checks them.
    gen = _parse_generator(_section(raw, "generator", required=True, known=False))
    analysis = _parse_analysis(_section(raw, "analysis"), gen)
    keystream = _read(_section(raw, "attack"), "attack.keystream")
    optimize = _values(_section(raw, "optimize"), "optimize")
    differences = optimize["differences"] or ()
    if min(differences, default=1) < 1:
        raise ConfigError(
            f"optimize.differences entries must be at least 1, not {min(differences)}")
    if sum(differences) > gen.total_length - 1:
        raise ConfigError(f"optimize.differences sum to {sum(differences)}, "
                          f"beyond L - 1 = {gen.total_length - 1}")
    fmt = _read(_section(raw, "report"), "report.format")
    return ScenarioConfig(gen, analysis, optimize, keystream, fmt, raw)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    return parse_config(raw)
