"""The value types' contract: every exported value type compares and hashes
by type and fields, refuses assignment and deletion, survives ``copy``,
``deepcopy`` and ``pickle``, and reprs as ``Name(field=value, ...)``."""

import copy
import pickle

import pytest

import fsglab
from fsglab import (
    AttackResult,
    CandidateDifferenceSet,
    DifferenceScheme,
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    RankStop,
    SampleStop,
    SamplingSchedule,
    StagedSearchParams,
    TapSet,
    WindowCostEstimate,
    WindowRecovery,
    fsga_cost,
    greedy_schedule,
    primitive_lfsr,
    scorecard,
)
from fsglab.sampling import _Frozen

NFSR = (8, 1, ({1}, {2, 5}))

# One builder per exported value type; each call builds a fresh instance.
EXAMPLES = {
    "AttackResult": lambda: AttackResult(((0, 1, 1), (1, 0, 0)), 3, 2),
    "CandidateDifferenceSet": lambda: CandidateDifferenceSet((5, 2, 3), 16),
    "ComplexityEstimate": lambda: fsga_cost(6, 1, 87),
    "DifferenceScheme": lambda: DifferenceScheme.from_differences((2, 5, 4, 2)),
    "FilterSpec": lambda: FilterSpec.uniform_random(3, 1, 7),
    "GeneratorSpec": lambda: GeneratorSpec(
        primitive_lfsr(8), TapSet((1, 4, 6), 8), FilterSpec.uniform_random(3, 2, 1)),
    "HybridSpec": lambda: HybridSpec(primitive_lfsr(8), NfsrSpec(*NFSR), False),
    "HybridTaps": lambda: HybridTaps(TapSet((1, 3), 8), TapSet((2,), 8)),
    "LfsrSpec": lambda: LfsrSpec(8, [1, 3, 3]),
    "NfsrSpec": lambda: NfsrSpec(*NFSR),
    "RankStop": RankStop,
    "RepetitionProfile": lambda: greedy_schedule(TapSet((1, 6, 19, 26), 40), RankStop())[1],
    "SampleStop": lambda: SampleStop(4),
    "SamplingSchedule": lambda: SamplingSchedule([2, 3, 2], "greedy"),
    "Scorecard": lambda: scorecard(TapSet((1, 3, 7, 12), 16), 4, 1, 16),
    "StagedSearchParams": lambda: StagedSearchParams(chunk_size=3, seed=2),
    "TapSet": lambda: TapSet([1, 3, 7], 9),
    "WindowCostEstimate": lambda: WindowCostEstimate(fsga_cost(6, 2, 40), 30, 128, 64),
    "WindowRecovery": lambda: WindowRecovery(4, 12, 2, (3, 2, 2, 1)),
}


def test_every_exported_value_type_has_an_example():
    exported = {name for name in fsglab.__all__
                if isinstance(getattr(fsglab, name), type)
                and issubclass(getattr(fsglab, name), _Frozen)}
    assert exported == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_value_type_contract(name):
    cls = getattr(fsglab, name)
    value, twin = EXAMPLES[name](), EXAMPLES[name]()
    assert type(value) is cls and value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    fields = tuple(getattr(value, field) for field in cls.__slots__)
    assert value != fields  # not a tuple in disguise
    field = cls.__slots__[0] if cls.__slots__ else "anything"
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
    text = repr(value)
    assert text.startswith(f"{name}(") and text.endswith(")")
    assert all(f"{field}=" in text for field in cls.__slots__)


def test_equal_fields_of_another_type_are_not_equal():
    assert SampleStop(3) != 3 and SampleStop(3) != (3,)
    assert RankStop() != () and bool(RankStop())
    assert HybridTaps(TapSet((1,), 4), TapSet((2,), 4)) != HybridTaps(
        TapSet((1,), 4), TapSet((3,), 4))
    with pytest.raises(TypeError):
        len(TapSet((1, 2), 4))
