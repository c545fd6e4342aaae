"""The ``fsglab`` command in a fresh process: the installed console script
when there is one, else ``python -m fsglab.cli`` on this checkout (see
``conftest.run_fsglab``).

Each command runs in table and in structured form, exits 0 and writes
nothing to stderr, and its structured command and payload equal those of
in-process ``cli.main``, so the entry point runs this checkout's code. The
planted attacks must also print the planted state in both forms.
"""

import itertools
import json
import random
import shlex
import shutil
from pathlib import Path

import pytest

from fsglab import (
    FilterSpec,
    GeneratorSpec,
    LfsrSpec,
    NfsrSpec,
    RankStop,
    TapSet,
    greedy_schedule,
    keystream,
    write_keystream_file,
)
from fsglab.cli import main
from fsglab.registers import label_expressions
from conftest import ROOT, run_fsglab, run_python
from gfsga_reference import Eliminator


def run_both_forms(argv, cwd, capsys, monkeypatch):
    """The table lines and the structured payload that ``fsglab argv`` prints in ``cwd``."""
    table = run_fsglab(*argv, cwd=cwd)
    assert (table.returncode, table.stderr) == (0, "")
    structured = run_fsglab(*argv, "--format", "structured", cwd=cwd)
    assert (structured.returncode, structured.stderr) == (0, "")
    doc = json.loads(structured.stdout)
    monkeypatch.chdir(cwd)
    assert main([*argv, "--format", "structured"]) == 0
    expected = json.loads(capsys.readouterr().out)
    assert (doc["command"], doc["payload"]) == (expected["command"], expected["payload"])
    return table.stdout.splitlines(), doc["payload"]


SHIPPED_COMMANDS = [
    *(("analyze", "--config", f"configs/{name}.json")
      for name in ("example1_greedy", "hybrid_window", "worked_custom", "toy_attack_lfsr")),
    ("optimize", "--config", "configs/optimize_step_b.json"),
    ("report", "table1"),
]


@pytest.mark.parametrize("argv", SHIPPED_COMMANDS,
                         ids=lambda argv: f"{argv[0]}-{Path(argv[-1]).stem}")
def test_shipped_command_prints_what_main_prints(capsys, monkeypatch, argv):
    run_both_forms(argv, ROOT, capsys, monkeypatch)


def state_hex(state) -> str:
    return format(sum(b << j for j, b in enumerate(state)), f"0{(len(state) + 3) // 4}x")


def plant(tmp_path, generator, gen, state, nblocks, **sections):
    """Write ``gen``'s keystream from ``state`` and a config that attacks it."""
    ks = tmp_path / "planted.ks"
    f = gen.filter
    write_keystream_file(ks, f.n, f.m, len(state), keystream(gen, state, nblocks))
    generator["filter"] = {"n": f.n, "m": f.m, "source": "hex", "hex": f.to_hex()}
    cfg = tmp_path / "planted.json"
    cfg.write_text(json.dumps({"generator": generator, **sections,
                               "attack": {"keystream": str(ks)}}))
    return ["attack", "--config", str(cfg)]


def readme_demo(tmp_path):
    """The README's end-to-end demo: its heredoc, then its command."""
    demo = (ROOT / "README.md").read_text().split("### End-to-end attack demo", 1)[1]
    script, command = (demo.split("python - <<'PY'\n", 1)[1].split("\n```", 1)[0]
                       .split("\nPY\n"))
    program, *argv = shlex.split(command)
    assert program == "fsglab"
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "toy_attack_lfsr.json", tmp_path / "configs")
    done = run_python("-", input=script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return tmp_path, argv, done.stdout.split("planted:", 1)[1].strip(), None


def rank_deficient_lfsr(tmp_path):
    """A 21-bit LFSR whose greedy schedule reads labels of rank L - 3, so each
    path sweeps 2^3 null-space completion offsets."""
    L, feedback, taps = 21, [1, 20], [5, 11, 12, 13, 18]
    gen = GeneratorSpec(LfsrSpec(L, frozenset(feedback)), TapSet(tuple(taps), L),
                        FilterSpec.uniform_random(5, 2, seed=11))
    schedule, _ = greedy_schedule(gen.taps, RankStop())
    shifts = list(itertools.accumulate(schedule.steps, initial=0))
    exprs = label_expressions(gen.register, taps[-1] + shifts[-1])
    labels = Eliminator(L)
    for shift in shifts:
        for pos in taps:
            labels.add_row(exprs[pos + shift - 1], 0)
    assert L - labels.rank >= 2
    rng = random.Random(9)
    state = tuple(rng.getrandbits(1) for _ in range(L))
    argv = plant(tmp_path, {"kind": "lfsr", "length": L, "feedback": feedback, "taps": taps},
                 gen, state, shifts[-1] + 2 * L, analysis={"mode": "greedy"})
    return tmp_path, argv, state_hex(state), None


def nfsr_window(tmp_path):
    """A 16-bit NFSR, attacked through its distance-1 window of 5 samples."""
    monomials = [[1], [3, 5], [2, 9]]
    gen = GeneratorSpec(NfsrSpec(16, 1, tuple(map(frozenset, monomials))),
                        TapSet((2, 5, 8, 10), 16), FilterSpec.uniform_random(4, 1, seed=44))
    rng = random.Random(8)
    state = tuple(rng.getrandbits(1) for _ in range(16))
    generator = {"kind": "nfsr", "length": 16, "anf": {"constant": 1, "monomials": monomials},
                 "taps": [2, 5, 8, 10]}
    argv = plant(tmp_path, generator, gen, state, 5 + 40)  # extra blocks pin uniqueness
    return tmp_path, argv, state_hex(state), 5


@pytest.mark.parametrize("planted", [readme_demo, rank_deficient_lfsr, nfsr_window],
                         ids=lambda planted: planted.__name__)
def test_planted_attack_recovers_the_state(tmp_path, capsys, monkeypatch, planted):
    cwd, argv, state, window_length = planted(tmp_path)
    lines, payload = run_both_forms(argv, cwd, capsys, monkeypatch)
    assert f"recovered_state: {state}" in lines
    assert payload["recovered_state"] == state
    assert payload.get("window", {}).get("window_length") == window_length
