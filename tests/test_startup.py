"""Start-up contract: ``import fsglab`` loads no submodule, and each command
loads only the modules it runs. Module loading is checked in fresh
interpreters, since the test session has imported everything already."""

import json
import sys

import pytest

import fsglab
from conftest import ROOT, run_python


def loaded_after(code: str) -> set[str]:
    """The ``fsglab.*`` submodules loaded after ``code`` runs in a fresh interpreter."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fsglab.'))))")
    done = run_python("-c", script, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("fsglab.")
            for name in json.loads(done.stdout.splitlines()[-1])}


def test_import_fsglab_loads_no_submodule():
    assert loaded_after("import fsglab; fsglab.__version__") == set()


def test_import_cli_loads_only_parsing_and_dispatch():
    loaded = loaded_after("import fsglab.cli")
    assert loaded == {"cli", "config", "registers", "report", "sampling"}
    assert not loaded & {"attack", "optimizer", "complexity", "fixtures", "gf2"}


def test_import_cli_loads_no_dataclasses_inspect_or_platform():
    # The value types are plain slotted classes and the report reads the
    # Python version off sys.version, so none of these is on the path.
    # Site hooks may load any of them first; only what the import adds counts.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import fsglab.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'platform'} & (set(sys.modules) - before)))")
    done = run_python("-c", script, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_optimize_leaves_attack_and_fixtures_unloaded():
    loaded = loaded_after(
        "from fsglab.cli import main\n"
        "assert main(['optimize', '--config', 'configs/optimize_step_b.json']) == 0")
    assert {"optimizer", "complexity"} <= loaded
    assert not loaded & {"attack", "fixtures", "gf2"}


NFSR_CONFIG = {"generator": {
    "kind": "nfsr", "length": 16, "anf": {"constant": 1, "monomials": [[1], [3, 5]]},
    "taps": [2, 5, 8, 10], "filter": {"n": 4, "m": 1},
}}


@pytest.mark.parametrize("kind", ["hybrid", "nfsr"])
def test_window_analyze_leaves_attack_optimizer_and_fixtures_unloaded(tmp_path, kind):
    # analyze reads the window from registers.window_geometry, not from attack.
    if kind == "hybrid":
        path = ROOT / "configs" / "hybrid_window.json"
    else:
        path = tmp_path / "nfsr.json"
        path.write_text(json.dumps(NFSR_CONFIG))
    loaded = loaded_after(
        "from fsglab.cli import main\n"
        f"assert main(['analyze', '--config', {str(path)!r}]) == 0")
    assert "complexity" in loaded
    assert not loaded & {"attack", "optimizer", "fixtures", "gf2"}


def test_every_public_name_is_its_defining_modules_object():
    listed = dir(fsglab)
    assert len(set(fsglab.__all__)) == len(fsglab.__all__)
    for name in fsglab.__all__:
        obj = getattr(fsglab, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("fsglab."), name
        assert getattr(module, name) is obj, name
        assert name in listed, name
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fsglab.no_such_name
    assert not hasattr(fsglab, "_scorecards")  # private names are not exported
    with pytest.raises(ImportError):
        from fsglab import no_such_name  # noqa: F401

