import argparse
import json
import math
import random
import resource
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    LfsrSpec,
    TapSet,
    greedy_schedule,
    RankStop,
    keystream,
    primitive_lfsr,
    write_keystream_file,
)
from fsglab import cli, optimizer, sampling
from fsglab.cli import main
from fsglab.config import MAX_FILTER_INPUTS, load_config
from conftest import ROOT, run_fsglab, run_python

SHIPPED_CONFIGS = ROOT / "configs"


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def lfsr_generator_section(L, taps, n, m, seed=11):
    from fsglab.registers import primitive_lengths

    # Analysis commands never clock the register, so any feedback works for
    # lengths outside the built-in primitive table.
    spec = primitive_lfsr(L) if L in primitive_lengths() else LfsrSpec(L, frozenset({1, 2}))
    filt = FilterSpec.uniform_random(n, m, seed=seed)
    return {
        "kind": "lfsr",
        "length": L,
        "feedback": sorted(spec.feedback_positions),
        "taps": list(taps),
        "filter": {"n": n, "m": m, "source": "hex", "hex": filt.to_hex()},
    }, spec, filt


def test_analyze_custom_worked_example(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen,
            "analysis": {"mode": "custom", "schedule": [5, 2]},
            "report": {"format": "structured"},
        },
    )
    assert main(["analyze", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["profile"]["q"] == [1, 2]
    assert doc["payload"]["profile"]["repeated_sets"] == [[10], [10, 21]]
    assert doc["payload"]["estimate"] is None


def test_analyze_greedy_reference(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(80, (1, 6, 19, 26, 52, 63, 80), 7, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": gen, "analysis": {"mode": "greedy"}, "report": {"format": "structured"}},
    )
    assert main(["analyze", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["profile"]["R"] == 67
    assert doc["payload"]["profile"]["c"] == 22
    assert round(doc["payload"]["estimate"]["log2_total"], 2) == 63.97


def test_analyze_constant_full_length_sigma(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen,
            "analysis": {"mode": "constant", "sigma": 20},
            "report": {"format": "structured"},
        },
    )
    assert main(["analyze", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(q == 0 for q in doc["payload"]["profile"]["q"])


def test_analyze_rank_stop_exhaustion_is_exit_3(tmp_path):
    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen,
            "analysis": {"mode": "custom", "schedule": [5, 2], "stop": {"rank": True}},
        },
    )
    assert main(["analyze", "--config", cfg]) == 3


def test_config_errors_are_exit_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    gen["filter"]["n"] = 4  # tap-count mismatch
    cfg = write_config(tmp_path, "bad.json", {"generator": gen})
    assert main(["analyze", "--config", cfg]) == 2
    assert main(["analyze"]) == 2  # --config required
    capsys.readouterr()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff{}")
    assert main(["analyze", "--config", str(latin1)]) == 2
    assert capsys.readouterr().err == (
        "error: config is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte\n")


def test_config_directory_is_exit_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config ")


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    assert main(["report", "table1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["generator"]["filter"].update(n=None),
        lambda doc: doc.update(analysis=[]),
        lambda doc: doc.update(attack=[]),
        lambda doc: doc.update(report="x"),
        lambda doc: doc["analysis"].update(solver_exponent=None),
        lambda doc: doc["analysis"].update(solver_exponent=True),
        lambda doc: doc["analysis"].update(solver_exponent="3"),
        lambda doc: doc["analysis"].update(solver_exponent=float("nan")),
        lambda doc: doc["analysis"].update(solver_exponent=float("inf")),
        lambda doc: doc["analysis"].update(solver_exponent=0),
        lambda doc: doc["analysis"].update(solver_exponent=-1.5),
        lambda doc: doc["generator"]["filter"].update(seed="x"),
        lambda doc: doc["generator"]["filter"].update(seed=1.5),
        lambda doc: doc["generator"]["filter"].update(seed=[1]),
        lambda doc: doc["analysis"].update(m_calibration="false"),
        lambda doc: doc["analysis"].update(m_calibration=1),
        lambda doc: doc["generator"].update(taps=[True, 5, 10, 14, 16]),
        lambda doc: doc["generator"]["filter"].update(source="bogus"),
        lambda doc: doc["generator"]["filter"].update(source=5),
        lambda doc: doc["generator"]["filter"].update(source=["hex"]),
    ],
    ids=["filter-n-null", "analysis-list", "attack-list", "report-string",
         "solver-exponent-null", "solver-exponent-bool", "solver-exponent-string",
         "solver-exponent-nan", "solver-exponent-inf", "solver-exponent-zero",
         "solver-exponent-negative", "filter-seed-string", "filter-seed-float",
         "filter-seed-list", "m-calibration-string", "m-calibration-int", "taps-bool",
         "filter-source-string", "filter-source-int", "filter-source-list"],
)
def test_malformed_config_is_exit_2(tmp_path, capsys, mutate):
    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    doc = {"generator": gen, "analysis": {"mode": "greedy"}}
    mutate(doc)
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_structured_report_round_trip_and_determinism(tmp_path):
    gen, _, _ = lfsr_generator_section(80, (1, 6, 19, 26, 52, 63, 80), 7, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": gen, "analysis": {"mode": "cyclic"}, "report": {"format": "structured"}},
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", "--config", cfg, "--seed", "5", "--out", str(out1)]) == 0
    assert main(["analyze", "--config", cfg, "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert json.loads(json.dumps(doc)) == doc
    assert doc["provenance"]["seed"] == 5
    assert doc["provenance"]["config_sha256"]


def test_report_object_matches_structured_output(tmp_path):
    from fsglab.cli import cmd_analyze
    from fsglab.config import load_config

    gen, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    cfg_path = write_config(
        tmp_path, "c.json", {"generator": gen, "analysis": {"mode": "custom", "schedule": [5, 2]}}
    )
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", cfg_path, "--seed", "3",
                 "--format", "structured", "--out", str(out)]) == 0
    in_memory = cmd_analyze(load_config(cfg_path), 3)
    assert json.loads(out.read_text()) == in_memory.to_dict()


def test_optimize_deterministic_under_seed(tmp_path):
    gen, _, _ = lfsr_generator_section(48, tuple(range(2, 44, 7)), 6, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": gen, "optimize": {"budget": 6}, "report": {"format": "structured"}},
    )
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["optimize", "--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
    assert main(["optimize", "--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_optimize_step_b_reference_row(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(80, (1, 6, 19, 26, 52, 63, 80), 7, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen,
            "optimize": {"differences": [5, 13, 7, 26, 11, 17]},
            "report": {"format": "structured"},
        },
    )
    assert main(["optimize", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert round(doc["payload"]["scorecard"]["constant_log2"], 2) == 69.97
    assert sorted(doc["payload"]["ordering"]) == [5, 7, 11, 13, 17, 26]


def test_optimize_cut_over_is_step_b_limit(tmp_path, capsys, monkeypatch):
    # One constant decides both which search ``optimize`` runs and what step
    # B refuses. Lowered to 4, five taps (4 differences) still get step A+B,
    # six taps go to the staged search, and 5 given differences are refused.
    monkeypatch.setattr(optimizer, "MAX_EXHAUSTIVE_DIFFERENCES", 4)
    methods = {}
    for taps in ((2, 9, 17, 26, 40), (2, 9, 17, 26, 33, 40)):
        gen, _, _ = lfsr_generator_section(48, taps, len(taps), 2)
        cfg = write_config(tmp_path, f"n{len(taps)}.json", {
            "generator": gen, "optimize": {"budget": 2, "chunk_size": 2},
            "report": {"format": "structured"}})
        assert main(["optimize", "--config", cfg]) == 0
        methods[len(taps)] = json.loads(capsys.readouterr().out)["payload"]["method"]
    assert methods == {5: "step_a+step_b", 6: "staged"}
    gen, _, _ = lfsr_generator_section(48, (2, 9, 17, 26, 33, 40), 6, 2)
    cfg = write_config(tmp_path, "b.json", {
        "generator": gen, "optimize": {"differences": [7, 8, 9, 7, 7]}})
    assert main(["optimize", "--config", cfg]) == 2
    assert "more than 4 differences: exhaustive ordering search is infeasible" in (
        capsys.readouterr().err)


def test_optimize_step_a_past_the_ordering_limit_is_exit_2(tmp_path, capsys, monkeypatch):
    # n = 11 at budget 1000: step A's candidates have 565,185,600 orderings,
    # refused before the first one is priced.
    monkeypatch.setattr(optimizer, "_constant_sweep", None)  # a call would fail
    taps = (1, 14, 27, 40, 53, 66, 79, 92, 105, 118, 128)
    gen, _, _ = lfsr_generator_section(128, taps, 11, 1)
    cfg = write_config(tmp_path, "c.json", {"generator": gen, "optimize": {"budget": 1000}})
    assert main(["optimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: step B would price 565185600 orderings, more than the limit of "
        f"{optimizer.MAX_STEP_B_ORDERINGS}\n")


def test_optimize_rejects_workers_option(tmp_path, capsys):
    # The ordering search is serial; --workers is no longer an option.
    gen, _, _ = lfsr_generator_section(24, (1, 4, 9, 13, 20), 5, 2)
    cfg = write_config(
        tmp_path, "c.json", {"generator": gen, "optimize": {"differences": [3, 5, 4, 7]}}
    )
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", cfg, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_report_rejects_config_option(capsys):
    # report reads no config; --config there is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["report", "table1", "--config", "/nonexistent.json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "fsglab: error: unrecognized arguments: --config /nonexistent.json\n")


def test_staged_search_past_the_permutation_limit_is_exit_2(tmp_path, capsys, monkeypatch):
    # 21 taps in chunks of 9: each later-stage candidate walks 9! + 2!
    # permutations, so budget 1000 is refused before step A draws stage 1.
    monkeypatch.setattr(optimizer, "step_a_candidates", None)  # a call would fail
    cfg = write_config(tmp_path, "c.json", {
        "generator": {"kind": "lfsr", "length": 128, "feedback": [1, 2],
                      "taps": [1 + round(i * 127 / 20) for i in range(21)],
                      "filter": {"n": 21, "m": 3}},
        "optimize": {"budget": 1000, "chunk_size": 9},
    })
    assert main(["optimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: the staged search would step through 362882000 permutations, more than "
        f"the limit of {optimizer.MAX_STAGED_PERMUTATIONS}\n")


@pytest.mark.parametrize(
    "key,value",
    [("budget", 10**30), ("budget", 1001), ("budget", 0), ("chunk_size", 0), ("retries", 0)],
)
def test_optimize_search_size_out_of_range_is_exit_2(tmp_path, capsys, key, value):
    # Checked on load, before any search: without the check, budget 10**30
    # runs step A for hours, and budget 0, chunk_size 0 or retries 0 fail
    # inside the search with messages that do not name the key.
    with open(SHIPPED_CONFIGS / "optimize_step_b.json") as fh:
        doc = json.load(fh)
    doc["optimize"] = {key: value}
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["optimize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: optimize.{key} must be ")
    assert str(value) in err


def test_chunk_size_above_the_exhaustive_limit_is_exit_2(tmp_path, capsys, monkeypatch):
    # Stage 1 of the staged search orders its chunk exhaustively, so a chunk
    # of 12 differences used to fail inside the search with a message that
    # named no key; it is now refused on load.
    monkeypatch.setattr(optimizer, "step_a_candidates", None)  # a call would fail
    cfg = write_config(tmp_path, "c.json", {
        "generator": {"kind": "lfsr", "length": 128, "feedback": [1, 2],
                      "taps": [1 + round(i * 127 / 20) for i in range(21)],
                      "filter": {"n": 21, "m": 3}},
        "optimize": {"budget": 1, "chunk_size": 12},
    })
    assert main(["optimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: optimize.chunk_size must be between 1 and "
        f"{optimizer.MAX_EXHAUSTIVE_DIFFERENCES}, not 12\n")


def test_staged_optimize_table_renders_the_search_trace(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(64, range(1, 61, 5), 12, 2)
    cfg = write_config(tmp_path, "c.json", {
        "generator": gen, "optimize": {"budget": 2, "chunk_size": 4, "retries": 2}})
    assert main(["optimize", "--config", cfg, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["method"] == "staged"
    trace = payload["trace"]
    assert [stage["stage"] for stage in trace] == [1, 2, 3]
    assert {len(stage) for stage in trace} == {7}
    assert trace[-1]["ordering"] == payload["ordering"]
    assert main(["optimize", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("search trace:")
    assert lines[at + 1:at + 4] == [
        f"  stage {t['stage']}: chunk={t['chunk']} tried={t['candidates_tried']}"
        f" rejected={t['rejections']} sigma*={t['optimal_sigma']} cost={t['cost_log2']:.2f}"
        for t in trace]


@pytest.mark.parametrize("differences,named", [
    ([5, 13, 7, 0, 11, 17], "not 0"),
    ([5, 13, -2, 26, 11, 17], "not -2"),
    ([50, 13, 7, 26, 11, 17], "sum to 124, beyond L - 1 = 79"),
])
def test_optimize_bad_differences_are_exit_2(tmp_path, capsys, differences, named):
    # Checked on load: the tap set built from them used to fail with a
    # message that named neither the key nor the entry.
    with open(SHIPPED_CONFIGS / "optimize_step_b.json") as fh:
        doc = json.load(fh)
    doc["optimize"]["differences"] = differences
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["optimize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: optimize.differences ")
    assert named in err


def test_optimize_two_taps_trivial(tmp_path, capsys):
    gen, _, _ = lfsr_generator_section(16, (2, 9), 2, 1, seed=3)
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": gen, "report": {"format": "structured"}},
    )
    assert main(["optimize", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["differences"] == [15]


def test_attack_round_trip_lfsr(tmp_path, capsys):
    rng = random.Random(6)
    L, taps_pos, n, m = 20, (3, 5, 10, 14, 16), 5, 2
    gen_section, spec, filt = lfsr_generator_section(L, taps_pos, n, m, seed=29)
    taps = TapSet(taps_pos, L)
    gen = GeneratorSpec(spec, taps, filt)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    schedule, _ = greedy_schedule(taps, RankStop())
    blocks = keystream(gen, state, sum(schedule.steps) + 2 * L)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, n, m, L, blocks)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen_section,
            "analysis": {"mode": "greedy"},
            "attack": {"keystream": str(ks)},
            "report": {"format": "structured"},
        },
    )
    assert main(["attack", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    acc = sum(b << j for j, b in enumerate(state))
    assert doc["payload"]["recovered_state"] == format(acc, "05x")
    assert doc["payload"]["systems_solved"] >= 1


def test_attack_truncated_keystream_is_exit_4(tmp_path):
    gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, 5, 2, 20, [1] * 60)
    ks.write_bytes(ks.read_bytes()[:-2])
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen_section,
            "analysis": {"mode": "greedy"},
            "attack": {"keystream": str(ks)},
        },
    )
    assert main(["attack", "--config", cfg]) == 4


NFSR_GENERATOR = {
    "kind": "nfsr",
    "length": 16,
    "anf": {"constant": 1, "monomials": [[1], [3, 5], [2, 9]]},
    "taps": [2, 5, 8, 10],
    "filter": {"n": 4, "m": 1, "source": "random", "seed": 44},
}


@pytest.mark.parametrize("kind", ["lfsr", "nfsr"])
def test_attack_keystream_too_short_is_exit_4(tmp_path, capsys, kind):
    if kind == "lfsr":
        gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    else:
        gen_section = NFSR_GENERATOR
    filt = gen_section["filter"]
    ks = tmp_path / "stream.ks"
    # Well formed, but shorter than the schedule or the window needs.
    write_keystream_file(ks, filt["n"], filt["m"], gen_section["length"], [1] * 3)
    doc = {"generator": gen_section, "attack": {"keystream": str(ks)}}
    if kind == "lfsr":  # the window of an NFSR takes no analysis section
        doc["analysis"] = {"mode": "greedy"}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["attack", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def planted_lfsr_attack(tmp_path, analysis):
    """Config path for an attack on a planted L=20 LFSR keystream."""
    rng = random.Random(6)
    L, taps_pos, n, m = 20, (3, 5, 10, 14, 16), 5, 2
    gen_section, spec, filt = lfsr_generator_section(L, taps_pos, n, m, seed=29)
    gen = GeneratorSpec(spec, TapSet(taps_pos, L), filt)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    blocks = keystream(gen, state, 6 * L)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, n, m, L, blocks)
    return write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen_section,
            "analysis": analysis,
            "attack": {"keystream": str(ks)},
            "report": {"format": "structured"},
        },
    )


def test_attack_runs_the_schedule_analyze_prices(tmp_path, capsys):
    greedy, _ = greedy_schedule(TapSet((3, 5, 10, 14, 16), 20), RankStop())
    analysis = {
        "mode": "custom",
        "schedule": list(greedy.steps) + [1, 1, 1],
        "stop": {"rank": True},
    }
    cfg = planted_lfsr_attack(tmp_path, analysis)
    assert main(["analyze", "--config", cfg]) == 0
    priced = json.loads(capsys.readouterr().out)["payload"]["profile"]["steps"]
    assert len(priced) < len(analysis["schedule"])
    assert main(["attack", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["schedule"] == priced


@pytest.mark.parametrize("analysis", [
    {"mode": "greedy"},
    {"mode": "greedy", "stop": {"samples": 9}},
    {"mode": "cyclic"},
    {"mode": "custom", "schedule": [1, 2, 3, 4, 5, 6, 7, 8, 9], "stop": {"rank": True}},
])
def test_attack_builds_no_repeated_label_sets(tmp_path, capsys, monkeypatch, analysis):
    # attack reads only the steps; analyze prints the label sets of the same run.
    calls = []

    def labels(*args, original=sampling._labels):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(sampling, "_labels", labels)
    cfg = planted_lfsr_attack(tmp_path, analysis)
    assert main(["analyze", "--config", cfg]) == 0
    profile = json.loads(capsys.readouterr().out)["payload"]["profile"]
    assert len(calls) == len(profile["repeated_sets"]) == len(profile["steps"])
    calls.clear()
    assert main(["attack", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["schedule"] == profile["steps"]
    assert calls == []


def test_attack_short_custom_schedule_under_rank_stop_is_exit_3(tmp_path):
    analysis = {"mode": "custom", "schedule": [5, 2], "stop": {"rank": True}}
    cfg = planted_lfsr_attack(tmp_path, analysis)
    assert main(["analyze", "--config", cfg]) == 3
    assert main(["attack", "--config", cfg]) == 3


def test_attack_not_overdefined_custom_schedule_is_exit_3(tmp_path, capsys):
    # analyze reports the schedule as not overdefined; attack refuses it alike.
    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    doc["analysis"] = {"mode": "custom", "schedule": [5, 2]}
    ks = tmp_path / "toy.ks"
    write_keystream_file(ks, 5, 2, 20, [0] * 40)
    doc["attack"]["keystream"] = str(ks)
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["analyze", "--config", cfg, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["estimate"] is None
    assert main(["attack", "--config", cfg]) == 3
    assert "not overdefined" in capsys.readouterr().err


def test_attack_completion_cap_refuses_before_building_offsets(tmp_path):
    # A rotation register reads cell ((j - 1) mod 32) + 1 at label j, so the
    # 34 labels of sixteen 32-steps span rank 2: 2^30 completion offsets.
    # The cap must refuse before they exist; a 1 GiB address space cannot
    # hold them.
    L = 32
    spec = LfsrSpec(L, frozenset({1}))
    filt = FilterSpec.uniform_random(2, 1, seed=1)
    gen = GeneratorSpec(spec, TapSet((1, 2), L), filt)
    state = tuple(random.Random(0).getrandbits(1) for _ in range(L))
    ks = tmp_path / "rotation.ks"
    write_keystream_file(ks, 2, 1, L, keystream(gen, state, 600))
    cfg = write_config(tmp_path, "rotation.json", {
        "generator": {
            "kind": "lfsr", "length": L, "feedback": [1], "taps": [1, 2],
            "filter": {"n": 2, "m": 1, "source": "hex", "hex": filt.to_hex()},
        },
        "analysis": {"mode": "custom", "schedule": [32] * 16},
        "attack": {"keystream": str(ks)},
    })

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = run_fsglab("attack", "--config", cfg, preexec_fn=limit_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stderr == (
        "error: labels read have rank 2 of 32: 30 free bits exceed the "
        "completion cap of 14\n")


def test_attack_keystream_longer_than_the_limit_is_refused_from_its_header(tmp_path):
    # 10**6 blocks attack within a 1 GiB address space; a header past the
    # limit exits 4 before a payload byte is read (this file has none).
    from fsglab.attack import MAX_KEYSTREAM_BLOCKS

    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    gen = load_config(SHIPPED_CONFIGS / "toy_attack_lfsr.json").generator.build_generator()
    state = tuple(random.Random(8).getrandbits(1) for _ in range(20))
    ks = tmp_path / "long.ks"
    write_keystream_file(ks, 5, 2, 20, keystream(gen, state, 10**6))
    doc["attack"]["keystream"] = str(ks)
    cfg = write_config(tmp_path, "c.json", doc)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = run_fsglab("attack", "--config", cfg, preexec_fn=limit_address_space)
    assert done.returncode == 0, done.stderr
    ks.write_bytes(struct.pack("<4I", 5, 2, 20, MAX_KEYSTREAM_BLOCKS + 1))
    done = run_fsglab("attack", "--config", cfg, preexec_fn=limit_address_space)
    assert done.returncode == 4, done.stderr
    assert done.stderr == (
        f"error: header counts {MAX_KEYSTREAM_BLOCKS + 1} blocks, more than the limit "
        f"of {MAX_KEYSTREAM_BLOCKS}\n")


# Fields that only ``attack`` reads; the numbers cannot be live descriptors.
@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["generator"]["filter"].update(hex=1000000),
        lambda doc: doc["generator"]["filter"].update(hex=12.5),
        lambda doc: doc["attack"].update(keystream=1000000),
        lambda doc: doc["attack"].update(keystream=12.5),
    ],
    ids=["hex-int", "hex-float", "keystream-int", "keystream-float"],
)
def test_attack_wrong_type_is_exit_2(tmp_path, capsys, mutate):
    cfg = planted_lfsr_attack(tmp_path, {"mode": "greedy"})
    with open(cfg) as fh:
        doc = json.load(fh)
    mutate(doc)
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["attack", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hybrid_coupling_string_is_exit_2(tmp_path, capsys):
    with open(SHIPPED_CONFIGS / "hybrid_window.json") as fh:
        doc = json.load(fh)
    doc["generator"]["coupling"] = "false"
    assert main(["analyze", "--config", write_config(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


WINDOW_ANALYSIS_ERROR = (
    "not accepted: nfsr and hybrid generators take no analysis section (analyze and "
    "attack derive the distance-1 window from the register geometry)\n")


def test_hybrid_non_custom_mode_is_exit_2(tmp_path, capsys):
    with open(SHIPPED_CONFIGS / "hybrid_window.json") as fh:
        doc = json.load(fh)
    doc["analysis"] = {"mode": "greedy"}
    assert main(["analyze", "--config", write_config(tmp_path, "greedy.json", doc)]) == 2
    assert capsys.readouterr().err == "error: analysis.mode " + WINDOW_ANALYSIS_ERROR


@pytest.mark.parametrize("command", ["analyze", "attack"])
@pytest.mark.parametrize("kind", ["nfsr", "hybrid"])
@pytest.mark.parametrize("key, value", [
    ("mode", "custom"), ("schedule", [1, 1, 1]), ("sigma", 1), ("stop", {"rank": True}),
    ("solver_exponent", 3.0), ("m_calibration", False),
])
def test_window_generator_analysis_key_is_exit_2(tmp_path, capsys, command, kind, key, value):
    # The window is derived from the register geometry, so any analysis key,
    # even one that restates a default, is refused before the command runs.
    if kind == "nfsr":
        generator = NFSR_GENERATOR
    else:
        with open(SHIPPED_CONFIGS / "hybrid_window.json") as fh:
            generator = json.load(fh)["generator"]
    doc = {"generator": generator, "analysis": {key: value}}
    assert main([command, "--config", write_config(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: analysis.{key} " + WINDOW_ANALYSIS_ERROR


def _state_bits(text: str, length: int) -> tuple[int, ...]:
    value = int(text, 16)
    return tuple((value >> j) & 1 for j in range(length))


def test_hybrid_attack_recovers_both_registers(tmp_path, capsys):
    # A coupled 10 + 10-bit hybrid: the recovered state is one hex string
    # per register, and the table form prints the window line.
    from fsglab import HybridSpec, HybridTaps, NfsrSpec

    L, n, m = 10, 4, 1
    rng = random.Random(21)
    nfsr = NfsrSpec(L, 1, (frozenset({1}), frozenset({3, 7})))
    register = HybridSpec(primitive_lfsr(L), nfsr, True)
    taps = HybridTaps(TapSet((1, 2), L), TapSet((1, 3), L))
    gen = GeneratorSpec(register, taps, FilterSpec.uniform_random(n, m, 5))
    planted = tuple(tuple(rng.getrandbits(1) for _ in range(L)) for _ in "ab")
    blocks = keystream(gen, planted, 6 * L)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, n, m, 2 * L, blocks)
    cfg = write_config(tmp_path, "c.json", {
        "generator": {
            "kind": "hybrid", "coupling": True,
            "lfsr": {"length": L, "feedback": sorted(register.lfsr.feedback_positions)},
            "nfsr": {"length": L, "anf": {"constant": 1, "monomials": [[1], [3, 7]]}},
            "taps": {"lfsr": [1, 2], "nfsr": [1, 3]},
            "filter": {"n": n, "m": m, "source": "random", "seed": 5},
        },
        "attack": {"keystream": str(ks)},
    })
    assert main(["attack", "--config", cfg, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    state = payload["recovered_state"]
    assert set(state) == {"lfsr", "nfsr"}
    recovered = (_state_bits(state["lfsr"], L), _state_bits(state["nfsr"], L))
    assert keystream(gen, recovered, len(blocks)) == blocks
    window = payload["window"]
    assert main(["attack", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"recovered_state: {state}" in lines
    assert (f"window: length={window['window_length']} "
            f"recovered={window['recovered_bit_count']} "
            f"remaining={window['remaining_guess']}") in lines


def test_window_generator_takes_an_empty_analysis_section(tmp_path, capsys):
    doc = {"generator": NFSR_GENERATOR, "analysis": {}}
    assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 0


def test_analyze_prices_the_64_bit_nfsr_window(tmp_path, capsys):
    # The linear model priced this register at 2^60.00 (solver term
    # 3 log2 64 = 18); the 32-sample window that attack runs costs 2^32.
    doc = {"generator": {
        "kind": "nfsr", "length": 64,
        "anf": {"constant": 1, "monomials": [[1], [3, 5], [2, 9]]},
        "taps": [2, 9, 17, 25, 31], "filter": {"n": 5, "m": 1},
    }}
    cfg = write_config(tmp_path, "nfsr64.json", doc)
    assert main(["analyze", "--config", cfg]) == 0
    assert "log2 cost = 32.00 " in capsys.readouterr().out
    assert main(["analyze", "--config", cfg, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["estimate"]["log2_total"] == 32
    assert payload["profile"]["c"] == 32
    assert payload["notes"] == []


MUTANT_VALUES = (None, True, "false", 0, -1, 1.5, "x", [], {})


@pytest.mark.parametrize("mode", ["greedy", "custom"])
@pytest.mark.parametrize("value", MUTANT_VALUES, ids=repr)
def test_mutated_analysis_schedule_ends_in_an_exit_code(tmp_path, capsys, mode, value):
    # A schedule is checked whenever it is present, even in a mode that
    # does not read it; null counts as absent.
    with open(SHIPPED_CONFIGS / "example1_greedy.json") as fh:
        doc = json.load(fh)
    doc["analysis"].update(mode=mode, schedule=value)
    code = main(["analyze", "--config", write_config(tmp_path, "c.json", doc)])
    err = capsys.readouterr().err
    if value is None or value == []:
        assert code == (0 if mode == "greedy" else 2)
    else:
        assert code == 2
        assert err == "error: analysis.schedule must be a list of integers\n"


def node_paths(node, prefix=()):
    """Paths to every key or list item below ``node``, sections included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, prefix + (key,))


@pytest.mark.parametrize("name", sorted(p.stem for p in SHIPPED_CONFIGS.glob("*.json")))
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_shipped_config_ends_in_an_exit_code(tmp_path, name, data):
    with open(SHIPPED_CONFIGS / f"{name}.json") as fh:
        doc = json.load(fh)
    attack = name == "toy_attack_lfsr"
    if attack:
        gen = load_config(SHIPPED_CONFIGS / f"{name}.json").generator.build_generator()
        rng = random.Random(3)
        state = tuple(rng.getrandbits(1) for _ in range(20))
        ks = tmp_path / "toy.ks"
        write_keystream_file(ks, 5, 2, 20, keystream(gen, state, 120))
        doc["attack"]["keystream"] = str(ks)
    path = data.draw(st.sampled_from(sorted(node_paths(doc), key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(MUTANT_VALUES))
    cfg = write_config(tmp_path, "mutant.json", doc)
    assert main(["analyze", "--config", cfg]) in (0, 2, 3, 4)
    if attack:
        assert main(["attack", "--config", cfg]) in (0, 2, 3, 4)


def test_attack_header_mismatch_is_exit_4(tmp_path):
    gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, 6, 2, 20, [1] * 60)  # wrong n
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen_section,
            "analysis": {"mode": "greedy"},
            "attack": {"keystream": str(ks)},
        },
    )
    assert main(["attack", "--config", cfg]) == 4


def test_attack_keystream_directory_is_exit_4(tmp_path, capsys):
    gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen_section,
            "analysis": {"mode": "greedy"},
            "attack": {"keystream": str(tmp_path)},
        },
    )
    assert main(["attack", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith("error: cannot read keystream file ")


def test_analyze_m_calibration_sweep(tmp_path, capsys, monkeypatch):
    gen, _, _ = lfsr_generator_section(80, (1, 6, 19, 26, 52, 63, 80), 7, 2)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": gen,
            "analysis": {"mode": "greedy", "m_calibration": True},
            "report": {"format": "structured"},
        },
    )
    priced = []
    for mode in ("greedy", "cyclic"):
        def build(*args, mode=mode, original=getattr(optimizer, f"{mode}_schedule"), **kwargs):
            priced.append(mode)
            return original(*args, **kwargs)
        monkeypatch.setattr(optimizer, f"{mode}_schedule", build)
    assert main(["analyze", "--config", cfg]) == 0
    assert priced == ["cyclic"]  # the analyzed greedy profile is reused
    doc = json.loads(capsys.readouterr().out)
    sweep = doc["payload"]["calibration_sweep"]
    assert [row["m"] for row in sweep] == [1, 2, 3, 4]
    assert all("constant_log2" in row for row in sweep)
    assert main(["analyze", "--config", cfg, "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert "calibration m=2: sigma*=1 constant=69.97 greedy=63.97 cyclic=59.97" in text
    assert text.count("calibration m=") == 4


def test_analyze_m_calibration_sweep_uses_the_solver_exponent(tmp_path, capsys):
    doc = json.loads((SHIPPED_CONFIGS / "example1_greedy.json").read_text())
    doc["analysis"]["m_calibration"] = True
    doc["report"]["format"] = "structured"
    runs = {}
    for exponent in (3.0, 2.0):
        doc["analysis"]["solver_exponent"] = exponent
        assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 0
        runs[exponent] = json.loads(capsys.readouterr().out)["payload"]
    estimate = runs[2.0]["estimate"]["log2_total"]
    assert round(estimate, 2) == 57.64
    row = next(r for r in runs[2.0]["calibration_sweep"] if r["m"] == 2)
    assert row["greedy_log2"] == estimate
    # One less log2(L) in every cost of every row.
    for low, high in zip(runs[2.0]["calibration_sweep"], runs[3.0]["calibration_sweep"]):
        for key in ("constant_log2", "greedy_log2", "cyclic_log2"):
            assert high[key] - low[key] == pytest.approx(math.log2(80), abs=1e-9)


def test_report_fixture_and_unknown_id(capsys):
    assert main(["report", "table3", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row1 = [r for r in doc["payload"]["rows"] if r["cell"].startswith("L=80")]
    by_cell = {r["cell"]: r for r in row1}
    assert by_cell["L=80 (n,m)=(7,2) constant"]["computed"] == 69.97
    assert by_cell["L=80 (n,m)=(7,2) greedy"]["computed"] == 63.97
    assert by_cell["L=80 (n,m)=(7,2) cyclic"]["computed"] == 59.97
    assert main(["report", "nosuchtable"]) == 2


def test_report_table_format_renders(capsys):
    assert main(["report", "table1"]) == 0
    text = capsys.readouterr().out
    assert "scheme row 1" in text and "reference" in text


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["report", "example1"]) == 0
    assert built  # the first call builds the parser tree
    built.clear()
    assert main(["report", "example1"]) == 0
    assert main(["analyze"]) == 2
    assert built == []


def _structured(argv, capsys):
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("timing")
    return doc


def test_shared_parser_leaks_no_state_between_calls(capsys):
    first = _structured(["report", "table1", "--seed", "5", "--format", "structured"], capsys)
    assert first["provenance"]["seed"] == 5
    second = _structured(["report", "table1", "--format", "structured"], capsys)
    assert second["provenance"]["seed"] is None


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    argv = ["report", "example1", "--format", "structured"]
    cli._build_parser.cache_clear()
    fresh = _structured(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    after = _structured(argv, capsys)
    assert json.dumps(after, sort_keys=True) == json.dumps(fresh, sort_keys=True)


@pytest.mark.parametrize("command", ["analyze", "attack"])
@pytest.mark.parametrize("samples", [0, 21, 100000, 10**9])
def test_sample_stop_outside_1_to_L_is_exit_2(tmp_path, capsys, command, samples):
    # Refused on load: 100000 samples used to build a schedule for seconds
    # before the attack exited 4 and analyze printed megabytes.
    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    doc["analysis"]["stop"] = {"samples": samples}
    doc["attack"]["keystream"] = str(tmp_path / "missing.ks")
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: analysis.stop.samples must lie in 1..L = 20, not {samples}\n"


def test_sample_stop_at_L_is_accepted(tmp_path, capsys):
    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    doc["analysis"]["stop"] = {"samples": 20}
    assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 0


@pytest.mark.parametrize("rank", ["false", "true", 1, 0, None, [], {}])
def test_rank_stop_non_boolean_is_exit_2(tmp_path, capsys, rank):
    # A truthy string such as "false" used to read as a rank stop.
    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    doc["analysis"]["stop"] = {"rank": rank}
    assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: analysis.stop.rank must be true or false, not {rank!r}\n"


@pytest.mark.parametrize("command", ["analyze", "attack"])
@pytest.mark.parametrize("rank", ["no", True, False])
def test_rank_and_sample_stop_together_is_exit_2(tmp_path, capsys, command, rank):
    # {"rank": "no", "samples": 3} used to run a 3-sample stop and exit 0.
    doc = json.loads((SHIPPED_CONFIGS / "toy_attack_lfsr.json").read_text())
    doc["analysis"]["stop"] = {"rank": rank, "samples": 3}
    doc["attack"]["keystream"] = str(tmp_path / "missing.ks")
    assert main([command, "--config", write_config(tmp_path, "c.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: analysis.stop takes analysis.stop.rank or analysis.stop.samples, "
                   "not both\n")


NFSR_CONFIG = {
    "generator": {
        "kind": "nfsr", "length": 16, "anf": {"constant": 1, "monomials": [[1], [3, 5]]},
        "taps": [2, 5, 8, 10], "filter": {"n": 4, "m": 1},
    },
}


@pytest.mark.parametrize(
    "base,section,key",
    [
        ("example1_greedy", (), "analysys"),
        ("example1_greedy", ("generator",), "lenght"),
        ("hybrid_window", ("generator",), "length"),  # read by lfsr and nfsr only
        ("example1_greedy", ("generator", "filter"), "sead"),
        ("hybrid_window", ("generator", "lfsr"), "taps"),
        ("hybrid_window", ("generator", "nfsr"), "feedback"),
        ("hybrid_window", ("generator", "nfsr", "anf"), "monomial"),
        ("nfsr", ("generator", "anf"), "constnat"),
        ("hybrid_window", ("generator", "taps"), "both"),
        ("example1_greedy", ("analysis",), "solver_exponnet"),
        ("example1_greedy", ("analysis", "stop"), "sample"),
        ("example1_greedy", ("attack",), "keystrem"),
        ("hybrid_window", ("attack",), "window_model"),  # per-register was its only value
        ("example1_greedy", ("optimize",), "budgte"),
        ("example1_greedy", ("report",), "fromat"),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else v,
)
def test_unknown_config_key_is_exit_2(tmp_path, capsys, base, section, key):
    # A misspelled key used to be ignored: "solver_exponnet" priced at the
    # default 3.0, and stop {"sample": 3} read as a rank stop.
    if base == "nfsr":
        doc = json.loads(json.dumps(NFSR_CONFIG))
    else:
        doc = json.loads((SHIPPED_CONFIGS / f"{base}.json").read_text())
    node = doc
    for name in section:
        node = node.setdefault(name, {})
    node[key] = 3
    assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 2
    err = capsys.readouterr().err
    dotted = ".".join((*section, key))
    assert err.startswith(f"error: unknown config key {dotted}: "), err


def test_analysis_keys_the_mode_does_not_read_are_accepted(tmp_path, capsys):
    doc = json.loads((SHIPPED_CONFIGS / "example1_greedy.json").read_text())
    doc["analysis"].update(sigma=5, schedule=[3, 4])
    assert main(["analyze", "--config", write_config(tmp_path, "c.json", doc)]) == 0
    assert "log2 cost = 63.97 " in capsys.readouterr().out


def test_attack_header_mismatch_exits_before_building_the_filter(tmp_path, monkeypatch):
    def refuse(cls, n, m, seed):
        raise AssertionError("the filter was built before the header check")

    gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    gen_section["filter"] = {"n": 5, "m": 2, "source": "random", "seed": 1}
    monkeypatch.setattr(FilterSpec, "uniform_random", classmethod(refuse))
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, 5, 2, 21, [1] * 60)  # wrong L
    cfg = write_config(tmp_path, "c.json", {
        "generator": gen_section,
        "analysis": {"mode": "greedy"},
        "attack": {"keystream": str(ks)},
    })
    assert main(["attack", "--config", cfg]) == 4


@pytest.mark.parametrize("source", ["random", "hex"])
def test_attack_filter_wider_than_the_limit_is_exit_2(tmp_path, capsys, monkeypatch, source):
    def refuse(cls, *args):
        raise AssertionError("the 2^n filter table was built")

    n = MAX_FILTER_INPUTS + 1
    monkeypatch.setattr(FilterSpec, "uniform_random", classmethod(refuse))
    monkeypatch.setattr(FilterSpec, "from_hex", classmethod(refuse))
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, n, 1, 24, [1] * 8)  # the header matches
    filt = {"n": n, "m": 1, "source": source}
    filt.update({"seed": 1} if source == "random" else {"hex": "00"})
    cfg = write_config(tmp_path, "c.json", {
        "generator": {"kind": "lfsr", "length": 24, "feedback": [1, 2],
                      "taps": list(range(1, n + 1)), "filter": filt},
        "analysis": {"mode": "greedy"},
        "attack": {"keystream": str(ks)},
    })
    assert main(["attack", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: generator.filter.n must be at most {MAX_FILTER_INPUTS} for a concrete "
        f"filter (source {source}), not {n}\n")


def test_search_exhausted_is_exit_2(tmp_path, capsys):
    # Twelve taps on a 12-bit register leave the staged search no seed chunk.
    cfg = write_config(tmp_path, "c.json", {
        "generator": {"kind": "lfsr", "length": 12, "feedback": [1, 2],
                      "taps": list(range(1, 13)), "filter": {"n": 12, "m": 2}},
        "optimize": {"budget": 1, "retries": 1},
    })
    params = optimizer.StagedSearchParams(chunk_size=5, stage_budget=1, retries=1, seed=0)
    with pytest.raises(optimizer.SearchExhaustedError, match="no feasible seed chunk"):
        optimizer.staged_search(12, 12, 2, params)
    assert main(["optimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: no feasible seed chunk\n"


def test_short_keystream_is_exit_4_when_attack_loads_in_the_command(tmp_path):
    gen_section, _, _ = lfsr_generator_section(20, (3, 5, 10, 14, 16), 5, 2)
    ks = tmp_path / "stream.ks"
    write_keystream_file(ks, 5, 2, 20, [1] * 3)
    cfg = write_config(tmp_path, "c.json", {
        "generator": gen_section,
        "analysis": {"mode": "greedy"},
        "attack": {"keystream": str(ks)},
    })
    script = (
        "import sys\n"
        "from fsglab.cli import main\n"
        "assert 'fsglab.attack' not in sys.modules\n"
        f"sys.exit(main(['attack', '--config', {cfg!r}]))\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 4, done.stderr
    assert done.stderr == "error: keystream does not cover the sampling schedule\n"
