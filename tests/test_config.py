"""The scenario-config key table (``fsglab.config.KEYS``): load errors, the
register length limit, the README's key and limits tables and a mutation run
that draws every mutant from the table."""

import json
import random
import re
import time

import pytest

from fsglab import keystream, write_keystream_file
from fsglab import config
from fsglab.cli import main
from fsglab.config import KEYS, MAX_REGISTER_LENGTH, REQUIRED, load_config
from conftest import ROOT

SHIPPED_CONFIGS = ROOT / "configs"

# No shipped config has an nfsr generator.
NFSR_CONFIG = {
    "generator": {
        "kind": "nfsr", "length": 16, "anf": {"constant": 1, "monomials": [[1], [3, 5]]},
        "taps": [2, 5, 8, 10], "filter": {"n": 4, "m": 1},
    },
}


def shipped(name):
    if name == "nfsr":
        return json.loads(json.dumps(NFSR_CONFIG))
    return json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text())


def write_config(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def planted_toy_keystream(tmp_path):
    """A keystream of a planted state of configs/toy_attack_lfsr.json."""
    gen = load_config(SHIPPED_CONFIGS / "toy_attack_lfsr.json").generator.build_generator()
    rng = random.Random(3)
    state = tuple(rng.getrandbits(1) for _ in range(20))
    path = tmp_path / "toy.ks"
    write_keystream_file(path, 5, 2, 20, keystream(gen, state, 120))
    return str(path)


def put(doc, key, value):
    """Set dotted ``key`` in ``doc``, making the sections it needs."""
    *sections, name = key.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
    doc[name] = value


def drop(doc, key):
    *sections, name = key.split(".")
    for section in sections:
        doc = doc[section]
    del doc[name]


DROP = object()


@pytest.mark.parametrize("base, command, key, value", [
    ("hybrid_window", "analyze", "generator.taps.lfsr", DROP),
    ("hybrid_window", "analyze", "generator.lfsr", DROP),
    ("example1_greedy", "analyze", "generator.feedback", [1, 10.5]),
    ("nfsr", "analyze", "generator.anf.monomials", [1, [3, 5]]),
    ("example1_greedy", "analyze", "generator.filter.m", 8),
    ("example1_greedy", "analyze", "generator.filter.m", 0),
    ("example1_greedy", "analyze", "generator.filter.n", 6),
    ("example1_greedy", "analyze", "generator.kind", DROP),
    ("example1_greedy", "analyze", "generator.kind", "lfrs"),
    ("toy_attack_lfsr", "attack", "generator.filter.hex", DROP),
], ids=lambda v: "drop" if v is DROP else repr(v) if not isinstance(v, str) else v)
def test_load_error_names_its_dotted_key(tmp_path, capsys, base, command, key, value):
    doc = shipped(base)
    if command == "attack":
        doc["attack"]["keystream"] = planted_toy_keystream(tmp_path)
    if value is DROP:
        drop(doc, key)
    else:
        put(doc, key, value)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")


@pytest.mark.parametrize("base, key, value, message", [
    ("example1_greedy", "generator.feedback", [1, 81], "feedback positions must lie in 1..L"),
    ("hybrid_window", "generator.lfsr.feedback", [], "feedback_positions must be nonempty"),
    ("nfsr", "generator.anf.monomials", [[1], [3, 17]], "monomial position outside 1..length"),
    ("hybrid_window", "generator.nfsr.anf.monomials", [[]],
     "empty monomial; fold constants into constant_term"),
    ("example1_greedy", "generator.taps", [80, 1], "tap positions must be strictly increasing"),
    ("hybrid_window", "generator.taps.nfsr", [0, 5], "tap positions are 1-based"),
    ("hybrid_window", "generator.taps.lfsr", [8, 129], "tap position beyond register length"),
    ("hybrid_window", "generator.nfsr.length", 127, "coupled registers must have equal length"),
], ids=["LfsrSpec", "LfsrSpec-hybrid", "NfsrSpec", "NfsrSpec-hybrid", "TapSet",
        "TapSet-hybrid-nfsr", "TapSet-hybrid-lfsr", "HybridSpec"])
def test_register_constructor_error_names_its_key(tmp_path, capsys, base, key, value, message):
    # The register and tap-set constructors check what the key table cannot;
    # their messages are named by the key that broke them.
    doc = shipped(base)
    put(doc, key, value)
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 2
    named = "generator.coupling" if key == "generator.nfsr.length" else key
    assert capsys.readouterr().err == f"error: {named}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda table: table[:-1], "hex table length does not match n, m"),
    (lambda table: "g" + table[1:], "'g' is not a hex digit"),
    (lambda table: "4" + table[1:], "truth table entry out of range"),  # m = 2: 0..3
], ids=["length", "digit", "entry"])
def test_filter_hex_error_names_its_key(tmp_path, capsys, edit, message):
    doc = shipped("toy_attack_lfsr")
    doc["attack"]["keystream"] = planted_toy_keystream(tmp_path)
    filt = doc["generator"]["filter"]
    filt["hex"] = edit(filt["hex"])
    assert main(["attack", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: generator.filter.hex: {message}\n"


def test_constant_mode_without_sigma_names_the_key_and_the_default(tmp_path, capsys):
    # configs/optimize_step_b.json has no analysis section, so analyze runs
    # the default mode, constant, which needs a sigma.
    cfg = str(SHIPPED_CONFIGS / "optimize_step_b.json")
    assert "analysis" not in shipped("optimize_step_b")
    assert main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: analysis.sigma is required by analysis.mode constant, the default mode\n")


@pytest.mark.parametrize("base, key", [
    ("example1_greedy", "generator.length"),
    ("nfsr", "generator.length"),
    ("hybrid_window", "generator.lfsr.length"),
    ("hybrid_window", "generator.nfsr.length"),
])
def test_register_length_above_the_limit_is_exit_2_before_any_work(tmp_path, capsys, base, key):
    # analyze (greedy) at length 16,000 was still running after 90 s.
    doc = shipped(base)
    put(doc, key, 100_000)
    if base == "example1_greedy":
        doc["generator"]["taps"] = [1, 20_000, 40_000, 50_000, 70_000, 90_000, 100_000]
    cfg = write_config(tmp_path, doc)
    started = time.perf_counter()
    assert main(["analyze", "--config", cfg]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        f"error: {key} must be between 1 and {MAX_REGISTER_LENGTH}, not 100000\n")


@pytest.mark.parametrize("base, key", [
    ("nfsr", "generator.anf.constant"), ("hybrid_window", "generator.nfsr.anf.constant")])
@pytest.mark.parametrize("constant", [-1, 0, 1, 2, 3])
def test_anf_constant_outside_0_to_1_is_exit_2(tmp_path, capsys, base, key, constant):
    # NfsrSpec keeps the constant's low bit, so 3 used to load as 1 and 2 as 0.
    doc = shipped(base)
    put(doc, key, constant)
    code = main(["analyze", "--config", write_config(tmp_path, doc)])
    if constant in (0, 1):
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be between 0 and 1, not {constant}\n")


def readme_rows(heading):
    """The cells of the table rows under README section ``heading``."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"### {heading}\n")[1].split("\n### ")[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def readme_key_rows():
    """The README key table's rows: key, type, default, range and kinds."""
    return readme_rows("Scenario configs")


def test_readme_limits_table_lists_every_bound_with_its_value():
    # The bounds are config's upper-case integer constants; a row gives the
    # constant, its value, what it bounds and the exit code of its refusal.
    bounds = {name: value for name, value in vars(config).items()
              if name.isupper() and type(value) is int}
    rows = readme_rows("Limits")
    assert len(rows) == len(bounds) == 8
    assert {name.strip("`"): int(value.replace(",", ""))
            for name, value, _, _ in rows} == bounds
    assert {refusal for *_, refusal in rows} == {"exit 2", "exit 3", "exit 4"}


def test_readme_key_table_lists_every_config_key():
    assert [row[0].strip("`") for row in readme_key_rows()] == list(KEYS)


README_TYPES = {"integer": "integer", "integers": "list of integers",
                "integer lists": "list of lists of integers", "string": "string",
                "number": "number", "boolean": "boolean"}


def readme_default(default):
    """How the README key table writes a default of ``KEYS``."""
    if default is REQUIRED:
        return "required"
    if isinstance(default, bool):
        return f"`{str(default).lower()}`"
    if default == ():
        return "`[]`"
    if isinstance(default, str):
        return f"`{default}`"
    return str(default)


def test_readme_key_table_types_and_ranges_follow_the_key_table():
    # An integer range (lo, hi) reads lo..hi, and one without hi "at least lo"
    # or lo..n / lo..L, bounded by a check on another key; a string's values
    # are listed in order. A null default may say what stands in for it, and
    # analysis.stop.samples, required once its section names it, is absent
    # from a rank stop.
    for (key, typ, default, cell, kinds), (spec_key, spec) in zip(
            readme_key_rows(), KEYS.items()):
        spec_typ, spec_default, allowed, spec_kinds = spec
        assert (key.strip("`"), typ) == (spec_key, README_TYPES[spec_typ])
        if spec_key == "analysis.stop.samples":
            assert default == "none (a rank stop)"
        elif spec_default is None:
            assert default.startswith("null"), key
        else:
            assert default == readme_default(spec_default), key
        assert kinds == ("all" if spec_kinds == "lfsr nfsr hybrid"
                         else spec_kinds.replace(" ", ", ")), key
        if spec_typ == "integer" and allowed:
            lo, hi = allowed
            stated = [f"{lo}..{hi}"] if hi is not None else [
                f"at least {lo}", f"{lo}..n", f"{lo}..L"]
            assert re.match(f"({'|'.join(map(re.escape, stated))})(?![0-9])", cell), key
        elif spec_typ == "string" and allowed:
            assert cell == ", ".join(f"`{value}`" for value in allowed), key


# JSON type: values of another type (null too, which a key defaulting to None takes).
WRONG_TYPES = {
    "integer": ["7", 1.5, True, None],
    "boolean": [1, "true", None],
    "string": [5, ["hex"], None],
    "number": ["3", True, None],
    "integers": [5, [1.5], ["1"], None],
    "integer lists": [5, [1], [["1"]], None],
}


def mutant_values(typ, allowed):
    values = list(WRONG_TYPES[typ])
    if typ == "integer":
        lo, hi = allowed or (None, None)
        values += [-1, 0, 10**9] if lo is None else [lo - 1, lo, 10**9]
        if hi is not None:
            values += [hi, hi + 1]
    return values


@pytest.mark.parametrize("key", list(KEYS))
def test_table_mutant_ends_in_an_exit_code(tmp_path, key):
    # Each key gets a value of a wrong type, and an integer key the edges of
    # its range and 10^9, in every command that reads it: analyze on each
    # config whose kind takes the key and that has the key's section,
    # optimize on optimize_step_b and attack on toy_attack_lfsr.
    typ, _default, allowed, kinds = KEYS[key]
    ks = planted_toy_keystream(tmp_path)
    runs = 0
    for base in sorted(p.stem for p in SHIPPED_CONFIGS.glob("*.json")) + ["nfsr"]:
        doc = shipped(base)
        if doc["generator"]["kind"] not in kinds.split() or key.split(".")[0] not in doc:
            continue
        commands = ["analyze"] + {"optimize_step_b": ["optimize"],
                                  "toy_attack_lfsr": ["attack"]}.get(base, [])
        if base == "toy_attack_lfsr":
            doc["attack"]["keystream"] = ks
        for value in mutant_values(typ, allowed):
            mutant = json.loads(json.dumps(doc))
            put(mutant, key, value)
            cfg = write_config(tmp_path, mutant)
            for command in commands:
                assert main([command, "--config", cfg]) in (0, 2, 3, 4), (base, command, value)
                runs += 1
    assert runs


def test_table_defaults_are_values_of_their_type():
    # The reader returns a default without checking it.
    python_types = {"integer": int, "boolean": bool, "string": str, "number": float,
                    "integers": tuple, "integer lists": tuple}
    for key, (typ, default, allowed, _kinds) in KEYS.items():
        if default is REQUIRED or default is None:
            continue
        assert type(default) is python_types[typ], key
        if typ == "string":
            assert default in allowed, key
        elif allowed:
            assert allowed[0] <= default <= (allowed[1] or default), key
