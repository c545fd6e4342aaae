"""Reference tables and their recomputation.

Each fixture pairs published reference values with a from-scratch
recomputation by this package and reports per-cell deltas. Known
inconsistencies inside the reference material are flagged in the notes
rather than silently corrected.
"""

from __future__ import annotations

from .complexity import (
    fsga_cost,
    gfsga_constant_cost,
    gfsga_variable_cost,
    internal_state_recovery_cost,
    optimal_constant_sigma,
    restricted_annihilator_cost,
)
from .optimizer import calibrate_filter_width, scorecard
from .sampling import (
    RankStop,
    RepetitionProfile,
    SampleStop,
    TapSet,
    constant_profile,
    cyclic_schedule,
    greedy_schedule,
    hybrid_window_profile,
    repetition_profile,
    difference_scheme,
)

# ---------------------------------------------------------------------------
# Reference data

EXAMPLE1_TAPS = (1, 6, 19, 26, 52, 63, 80)
EXAMPLE1_PARAMS = (7, 2, 80)  # n, m, L

# Greedy run: (repeated labels, q, sigma) per sample after the first.
EXAMPLE1_GREEDY_ROWS = (
    ((6,), 1, 5),
    ((19, 24), 2, 13),
    ((26, 31, 44), 3, 7),
    ((52, 57, 70, 77), 4, 26),
    ((63, 68, 81, 88, 114), 5, 11),
    ((80, 85, 98, 105, 131, 142), 6, 17),
    ((85, 103), 2, 5),
    ((114, 147), 2, 11),
    ((131, 164, 175), 3, 17),
    ((118, 136), 2, 5),
    ((125, 138), 2, 2),
    ((131, 136, 182), 3, 11),
    ((138, 143, 156), 3, 7),
    ((164, 169, 182, 189), 4, 26),
    ((175, 180, 193, 200, 226), 5, 11),
    ((192, 197, 210, 217, 243, 254), 6, 17),
    ((197, 215), 2, 5),
    ((199, 217), 2, 2),
    ((210, 215, 261), 3, 11),
    ((217, 222, 235), 3, 7),
    ((243, 248, 261, 268), 4, 26),
)
EXAMPLE1_GREEDY_TOTAL = 67
EXAMPLE1_GREEDY_SAMPLES = 22
EXAMPLE1_GREEDY_LOG2 = 63.97

EXAMPLE1_CONSTANT = {
    "sigmas": (1, 13, 37),
    "c": 16,
    "R": 24,
    "r_list": (0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4),
    "log2": 69.97,
}

EXAMPLE2_CYCLIC_ROWS = (
    ((6,), 1, 5),
    ((19, 24), 2, 13),
    ((26, 31, 44), 3, 7),
    ((52, 57, 70, 77), 4, 26),
    ((63, 68, 81, 88, 114), 5, 11),
    ((80, 85, 98, 105, 131, 142), 6, 17),
    ((85, 103), 2, 5),
    ((98, 103), 2, 13),
    ((105, 110, 123), 3, 7),
    ((131, 136, 149, 156), 4, 26),
    ((142, 147, 160, 167, 193), 5, 11),
    ((159, 164, 177, 184, 210, 221), 6, 17),
    ((164, 182), 2, 5),
    ((177, 182), 2, 13),
    ((184, 189, 202), 3, 7),
    ((210, 215, 228, 235), 4, 26),
    ((221, 226, 239, 246, 272), 5, 11),
    ((238, 243, 256, 263, 289, 300), 6, 17),
    ((243, 261), 2, 5),
    ((256, 261), 2, 13),
    ((263, 268, 281), 3, 7),
)
EXAMPLE2_CYCLIC_TOTAL = 72
EXAMPLE2_CYCLIC_SAMPLES = 22
EXAMPLE2_CYCLIC_LOG2 = 59.97

TABLE1_SCHEME = ((2, 5, 4, 2), (7, 9, 6), (11, 11), (13,))
TABLE1_WORKED_STEPS = (5, 2)
TABLE1_WORKED_Q = (1, 2)
TABLE1_WORKED_SETS = ((10,), (10, 21))
TABLE1_TAPS = (3, 5, 10, 14, 16)
TABLE1_L = 20

# (L, n, m, differences, constant log2, greedy log2, cyclic log2)
TABLE2_ROWS = (
    (80, 9, 2, (12, 3, 6, 12, 6, 4, 24, 12), 43.97, 67.97, 62.97),
    (120, 11, 3, (5, 10, 15, 4, 5, 10, 5, 15, 20, 25), 37.7, 63.0, 69.7),
    (160, 15, 6, (14, 7, 3, 14, 7, 7, 14, 7, 14, 28, 7, 14, 14, 7), 32.97, 32.97, 50.97),
)

TABLE3_ROWS = (
    (80, 7, 2, (5, 13, 7, 26, 11, 17), 69.97, 63.97, 59.97),
    (120, 13, 3, (5, 7, 3, 13, 6, 11, 5, 11, 7, 13, 21, 17), 99.7, 104.0, 78.7),
    (160, 17, 6, (5, 11, 4, 3, 7, 9, 1, 2, 23, 15, 5, 13, 7, 26, 11, 17), 86.97, 79.97, 41.97),
    (200, 21, 7, (3, 7, 9, 13, 18, 7, 9, 1, 2, 9, 1, 2, 23, 15, 5, 13, 7, 26, 11, 17), 108.9, 96.93, 68.93),
)

# (L, n, m, tap positions, constant, greedy, cyclic)
TABLE4_FPDS_ROWS = (
    (80, 7, 2, (1, 3, 8, 14, 22, 23, 26), 35.97, 37.97, 57.97),
    (120, 13, 3, (1, 3, 6, 26, 38, 44, 60, 71, 86, 90, 99, 100, 107), 86.72, 90.72, 95.72),
    (160, 15, 4, (1, 5, 21, 31, 58, 60, 63, 77, 101, 112, 124, 137, 145, 146, 152), 96.97, 105.97, 116.97),
    (200, 17, 5, (1, 6, 8, 18, 53, 57, 68, 81, 82, 101, 123, 139, 160, 166, 169, 192, 200), 113.93, 123.93, 132.93),
)

# (L, n, m, differences, lambda, constant, greedy, cyclic)
TABLE4_ALGO_ROWS = (
    (80, 7, 2, (5, 13, 7, 26, 11, 17), 1, 69.97, 63.97, 59.97),
    (120, 13, 3, (5, 7, 3, 13, 6, 11, 5, 11, 7, 13, 21, 17), 3, 99.7, 104.0, 78.7),
    (160, 15, 4, (5, 3, 7, 1, 9, 17, 15, 23, 5, 13, 7, 26, 11, 17), 3, 114.97, 124.97, 101.97),
    (200, 17, 5, (7, 13, 10, 13, 7, 1, 9, 17, 15, 23, 5, 13, 7, 26, 11, 17), 3, 120.93, 120.93, 113.93),
)

EXAMPLE3_TAPS = (1, 7, 21, 26, 52, 67, 89, 105)
EXAMPLE3_PARAMS = (8, 1, 128)  # n, m, L
EXAMPLE3_Q = (0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5)
EXAMPLE3_RECOVERED = 122
EXAMPLE3_LOG2 = 106
EXAMPLE3_DATA_BITS = 150

# NFSR taps (set A) and LFSR taps (set B) of the 256-bit hybrid variant. The
# source tables reuse the letter A across sections; both sets are recorded
# here explicitly to keep the mapping unambiguous.
GRAIN_NFSR_TAPS = (2, 12, 15, 36, 45, 64, 73, 89, 95)
GRAIN_LFSR_TAPS = (8, 13, 20, 42, 60, 79, 93, 95)
GRAIN_REGISTER_LENGTH = 128

EXAMPLE4_PARAMS = (17, 1, 256)  # n, m, total L
EXAMPLE4_Q = (
    0, 1, 2, 2, 3, 4, 5, 5, 7, 8, 8, 8, 8, 9, 9, 10, 10, 11, 13, 13, 14,
    15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
)
EXAMPLE4_RECOVERED = 244
EXAMPLE4_EXPONENT_PARTS = (16, 196, 12)
EXAMPLE4_LOG2 = 224

TABLE6_TARGETS = (108.0, 125.0, 118.0)  # constant, greedy, cyclic on LFSR taps
TABLE7_TARGETS = (114.0, 125.0, 122.0)  # on NFSR taps
IMPROVED_LFSR_TAPS = (1, 16, 27, 54, 71, 95, 108, 127)
IMPROVED_LFSR_TARGETS = (129.0, 132.0, 123.0)
IMPROVED_NFSR_TAPS = (3, 10, 29, 42, 59, 67, 88, 103, 126)
IMPROVED_NFSR_TARGETS = (130.0, 139.0, 125.0)

ANNIHILATOR_SIZES = (5.0, 2.5)
ANNIHILATOR_COUNTS = (1, 42)
ANNIHILATOR_L = 87
ANNIHILATOR_OMEGA = 2.807
ANNIHILATOR_REFERENCE_LOG2 = 76.32
SINGLE_OUTPUT_FSGA = (6, 1, 87)  # n, m, L
SINGLE_OUTPUT_FSGA_REFERENCE_LOG2 = 87.0  # coarse figure quoted with a different solver term


def _report(fixture: str, title: str, rows: list[dict], notes=()) -> dict:
    """A fixture's report: its id, title, delta rows and notes."""
    return {"fixture": fixture, "title": title, "rows": rows, "notes": list(notes)}


def _delta_row(label: str, reference, computed) -> dict:
    delta = None
    if isinstance(reference, (int, float)) and isinstance(computed, (int, float)):
        delta = round(computed - reference, 4)
    return {"cell": label, "reference": reference, "computed": computed, "delta": delta}


def _scorecard_rows(label: str, card, ref_const, ref_greedy, ref_cyclic) -> list[dict]:
    return [
        _delta_row(f"{label} constant", ref_const, round(card.constant_cost.log2_total, 2)),
        _delta_row(f"{label} greedy", ref_greedy, round(card.greedy_cost.log2_total, 2)),
        _delta_row(f"{label} cyclic", ref_cyclic, round(card.cyclic_cost.log2_total, 2)),
    ]


def fixture_table1() -> dict:
    taps = TapSet(TABLE1_TAPS, TABLE1_L)
    scheme = difference_scheme(taps)
    rows = [
        _delta_row(f"scheme row {k + 1}", list(TABLE1_SCHEME[k]), list(scheme.table[k]))
        for k in range(len(TABLE1_SCHEME))
    ]
    prof = repetition_profile(taps, TABLE1_WORKED_STEPS)
    rows.append(_delta_row("q after steps (5,2)", list(TABLE1_WORKED_Q), list(prof.q)))
    rows.append(
        _delta_row(
            "repeated labels",
            [list(s) for s in TABLE1_WORKED_SETS],
            [sorted(s) for s in prof.repeated_sets],
        )
    )
    return _report(
        "table1",
        "Scheme of all differences for D=(2,5,4,2) and the two-step walkthrough",
        rows,
    )


def _difference_table_fixture(fixture: str, title: str, table_rows) -> dict:
    rows = []
    for L, n, m, diffs, ref_c, ref_g, ref_y in table_rows:
        taps = TapSet.from_differences(diffs, L)
        card = scorecard(taps, n, m, L)
        label = f"L={L} (n,m)=({n},{m})"
        rows.extend(_scorecard_rows(label, card, ref_c, ref_g, ref_y))
    return _report(fixture, title, rows)


def fixture_table2() -> dict:
    return _difference_table_fixture(
        "table2", "Attack complexities for poorly spread tap choices", TABLE2_ROWS
    )


def fixture_table3() -> dict:
    return _difference_table_fixture(
        "table3", "Attack complexities for algorithmically chosen taps", TABLE3_ROWS
    )


def fixture_table4() -> dict:
    rows = []
    for L, n, m, taps_pos, ref_c, ref_g, ref_y in TABLE4_FPDS_ROWS:
        taps = TapSet(taps_pos, L)
        card = scorecard(taps, n, m, L)
        label = f"fpds L={L} (n,m)=({n},{m})"
        rows.append(_delta_row(f"{label} is_fpds", True, card.fpds))
        rows.extend(_scorecard_rows(label, card, ref_c, ref_g, ref_y))
    for L, n, m, diffs, ref_lam, ref_c, ref_g, ref_y in TABLE4_ALGO_ROWS:
        taps = TapSet.from_differences(diffs, L)
        card = scorecard(taps, n, m, L)
        label = f"algo L={L} (n,m)=({n},{m})"
        rows.append(_delta_row(f"{label} lambda", ref_lam, card.lam))
        rows.extend(_scorecard_rows(label, card, ref_c, ref_g, ref_y))
    return _report(
        "table4",
        "Full positive difference sets versus algorithmic tap choice",
        rows,
    )


def fixture_example1() -> dict:
    n, m, L = EXAMPLE1_PARAMS
    taps = TapSet(EXAMPLE1_TAPS, L)
    _, prof = greedy_schedule(taps, RankStop())
    rows = []
    ref_q = [r[1] for r in EXAMPLE1_GREEDY_ROWS]
    ref_sigma = [r[2] for r in EXAMPLE1_GREEDY_ROWS]
    ref_sets = [list(r[0]) for r in EXAMPLE1_GREEDY_ROWS]
    rows.append(_delta_row("greedy q table", ref_q, list(prof.q)))
    rows.append(_delta_row("greedy sigma table", ref_sigma, list(prof.steps)))
    rows.append(
        _delta_row(
            "greedy repeated labels",
            ref_sets,
            [sorted(s) for s in prof.repeated_sets],
        )
    )
    rows.append(_delta_row("greedy R*", EXAMPLE1_GREEDY_TOTAL, prof.total))
    rows.append(_delta_row("greedy c*", EXAMPLE1_GREEDY_SAMPLES, prof.samples))
    est = gfsga_variable_cost(prof, n, m, L)
    rows.append(_delta_row("greedy log2 cost", EXAMPLE1_GREEDY_LOG2, round(est.log2_total, 2)))

    sigma_star, best = optimal_constant_sigma(taps, n, m, L)
    rows.append(
        _delta_row("constant optimum log2", EXAMPLE1_CONSTANT["log2"], round(best.log2_total, 2))
    )
    per_sigma = {}
    for sigma in EXAMPLE1_CONSTANT["sigmas"]:
        minimal = constant_profile(taps, sigma, stop=RankStop())
        at_ref_c = constant_profile(taps, sigma, stop=SampleStop(EXAMPLE1_CONSTANT["c"]))
        per_sigma[sigma] = (minimal, at_ref_c)
        rows.append(
            _delta_row(
                f"sigma={sigma} log2 at reference c={EXAMPLE1_CONSTANT['c']}",
                EXAMPLE1_CONSTANT["log2"],
                round(gfsga_constant_cost(at_ref_c, n, m, L).log2_total, 2),
            )
        )
        rows.append(
            _delta_row(
                f"sigma={sigma} minimal (c, R, log2)",
                [EXAMPLE1_CONSTANT["c"], EXAMPLE1_CONSTANT["R"], EXAMPLE1_CONSTANT["log2"]],
                [
                    minimal.samples,
                    minimal.total,
                    round(gfsga_constant_cost(minimal, n, m, L).log2_total, 2),
                ],
            )
        )
    r_list_sum = sum(EXAMPLE1_CONSTANT["r_list"])
    sigma1_ref = per_sigma[1][1]
    rows.append(
        _delta_row("sigma=1 r-list", list(EXAMPLE1_CONSTANT["r_list"]), list(sigma1_ref.q))
    )
    notes = [
        "reference prints (c=16, R=24) yet its own r-list sums to "
        f"{r_list_sum}; direct computation gives R={sigma1_ref.total} at c=16 "
        f"and (c={per_sigma[1][0].samples}, R={per_sigma[1][0].total}) under the minimal rank stop",
        "at the reference c=16 the sigma=1 cost is "
        f"2^{gfsga_constant_cost(sigma1_ref, n, m, L).log2_total:.2f}, so the "
        "optimum membership reduces to {13, 37}",
        f"sweep minimizer: sigma={sigma_star} (smallest-sigma tie-break)",
    ]
    return _report(
        "example1",
        "Greedy-mode walkthrough and constant-mode comparison on taps {1,6,19,26,52,63,80}",
        rows,
        notes,
    )


def fixture_example2() -> dict:
    n, m, L = EXAMPLE1_PARAMS
    taps = TapSet(EXAMPLE1_TAPS, L)
    _, prof = cyclic_schedule(taps, RankStop())
    est = gfsga_variable_cost(prof, n, m, L)
    rows = [
        _delta_row("cyclic q table", [r[1] for r in EXAMPLE2_CYCLIC_ROWS], list(prof.q)),
        _delta_row("cyclic sigma table", [r[2] for r in EXAMPLE2_CYCLIC_ROWS], list(prof.steps)),
        _delta_row(
            "cyclic repeated labels",
            [list(r[0]) for r in EXAMPLE2_CYCLIC_ROWS],
            [sorted(s) for s in prof.repeated_sets],
        ),
        _delta_row("cyclic R*", EXAMPLE2_CYCLIC_TOTAL, prof.total),
        _delta_row("cyclic c*", EXAMPLE2_CYCLIC_SAMPLES, prof.samples),
        _delta_row("cyclic log2 cost", EXAMPLE2_CYCLIC_LOG2, round(est.log2_total, 2)),
    ]
    return _report(
        "example2",
        "Cyclic-mode walkthrough on taps {1,6,19,26,52,63,80}",
        rows,
    )


def example3_window_profile() -> RepetitionProfile:
    n, m, L = EXAMPLE3_PARAMS
    taps = TapSet(EXAMPLE3_TAPS, L)
    return repetition_profile(taps, [1] * len(EXAMPLE3_Q))


def fixture_example3() -> dict:
    n, m, L = EXAMPLE3_PARAMS
    prof = example3_window_profile()
    cost = internal_state_recovery_cost(prof, n, m, L)
    rows = [
        _delta_row("window q table", list(EXAMPLE3_Q), list(prof.q)),
        _delta_row(
            "per-sample recovered bits",
            [n] + [n - q for q in EXAMPLE3_Q],
            [n] + [n - q for q in prof.q],
        ),
        _delta_row(
            "per-sample preimage size exponents",
            [n - m] + [n - m - q for q in EXAMPLE3_Q],
            [n - m] + [n - m - q for q in prof.q],
        ),
        _delta_row("recovered bits R_p", EXAMPLE3_RECOVERED, cost.recovered_bits),
        _delta_row("attack log2 cost", EXAMPLE3_LOG2, cost.estimate.log2_total),
        _delta_row("data bits", EXAMPLE3_DATA_BITS, cost.data_bits),
        _delta_row("memory bits < 2^15", True, cost.memory_bits < (1 << 15)),
    ]
    return _report(
        "example3",
        "Distance-1 window analysis of the 128-bit nonlinear register",
        rows,
        (f"memory bound {cost.memory_bits} bits",),
    )


def example4_families() -> list[tuple[str, TapSet]]:
    return [
        ("lfsr", TapSet(GRAIN_LFSR_TAPS, GRAIN_REGISTER_LENGTH)),
        ("nfsr", TapSet(GRAIN_NFSR_TAPS, GRAIN_REGISTER_LENGTH)),
    ]


def example4_fixture_profile() -> RepetitionProfile:
    n, m, L = EXAMPLE4_PARAMS
    return RepetitionProfile(
        q=EXAMPLE4_Q,
        samples=len(EXAMPLE4_Q) + 1,
        total=sum(EXAMPLE4_Q),
        n=n,
        register_length=L,
        mode="custom",
        steps=(1,) * len(EXAMPLE4_Q),
    )


def fixture_example4() -> dict:
    n, m, L = EXAMPLE4_PARAMS
    fixture_prof = example4_fixture_profile()
    cost = internal_state_recovery_cost(fixture_prof, n, m, L)
    first, middle, tail = EXAMPLE4_EXPONENT_PARTS
    steps = [1] * len(EXAMPLE4_Q)
    families = example4_families()
    per_reg = hybrid_window_profile(families, steps, model="per-register")
    merged = hybrid_window_profile(families, steps, model="merged")
    dev_reg = [i + 1 for i, (a, b) in enumerate(zip(per_reg.q, EXAMPLE4_Q)) if a != b]
    dev_merge = [i + 1 for i, (a, b) in enumerate(zip(merged.q, EXAMPLE4_Q)) if a != b]
    rows = [
        _delta_row("fixture recovered bits", EXAMPLE4_RECOVERED, cost.recovered_bits),
        _delta_row(
            "fixture exponent parts",
            list(EXAMPLE4_EXPONENT_PARTS),
            [n - m, sum(n - m - q for q in fixture_prof.q), L - cost.recovered_bits],
        ),
        _delta_row("fixture log2 cost", EXAMPLE4_LOG2, cost.estimate.log2_total),
        _delta_row("per-register q", list(EXAMPLE4_Q), list(per_reg.q)),
        _delta_row("merged-timeline q", list(EXAMPLE4_Q), list(merged.q)),
        _delta_row("per-register deviating rows", [], dev_reg),
        _delta_row("merged deviating rows", "reported", dev_merge),
    ]
    notes = [
        "per-register counting reproduces the fixture row for row; the "
        "merged-timeline model does not (it collapses the shared label 95 "
        "and lets cross-register labels collide)",
        "NFSR taps are set A = {2,..,95}, LFSR taps set B = {8,..,95}; both "
        "recorded explicitly because the source tables reuse the letter A",
    ]
    return _report(
        "example4",
        "256-bit hybrid window fixture and both counting models",
        rows,
        notes,
    )


def grain_calibration(which: str):
    if which == "table6":
        taps = TapSet(GRAIN_LFSR_TAPS, GRAIN_REGISTER_LENGTH)
        targets = TABLE6_TARGETS
    elif which == "table7":
        taps = TapSet(GRAIN_NFSR_TAPS, GRAIN_REGISTER_LENGTH)
        targets = TABLE7_TARGETS
    else:
        raise ValueError("which must be table6 or table7")
    return calibrate_filter_width(taps, GRAIN_REGISTER_LENGTH, targets)


def _grain_fixture(which: str, title: str) -> dict:
    cal = grain_calibration(which)
    rows = [
        _delta_row(
            f"m={r.m} (constant, greedy, cyclic)",
            list(cal.targets),
            [round(r.constant_log2, 2), round(r.greedy_log2, 2), round(r.cyclic_log2, 2)],
        )
        for r in cal.rows
    ]
    rows.append(_delta_row("best m", "unstated in reference", cal.best_m))
    notes = (
        "the reference omits the filter output width m; the sweep reports "
        f"m={cal.best_m} as the closest fit",
    )
    return _report(which, title, rows, notes)


def fixture_table6() -> dict:
    return _grain_fixture("table6", "Mode costs on the 128-bit linear register tap set")


def fixture_table7() -> dict:
    return _grain_fixture("table7", "Mode costs on the 128-bit nonlinear register tap set")


def fixture_annihilator() -> dict:
    est = restricted_annihilator_cost(
        ANNIHILATOR_SIZES, ANNIHILATOR_COUNTS, ANNIHILATOR_L, ANNIHILATOR_OMEGA
    )
    n, m, L = SINGLE_OUTPUT_FSGA
    base = fsga_cost(n, m, L)
    rows = [
        _delta_row(
            "restricted annihilator log2",
            ANNIHILATOR_REFERENCE_LOG2,
            round(est.log2_total, 2),
        ),
        _delta_row(
            f"plain FSGA (n={n}, m={m}, L={L}) log2",
            SINGLE_OUTPUT_FSGA_REFERENCE_LOG2,
            round(base.log2_total, 2),
        ),
    ]
    notes = (
        "the reference figure 2^76.32 rounds intermediate sizes; recomputing "
        "5 * 2.5^42 * 87^2.807 directly lands within half a bit",
        "the reference quotes 'about 2^87' for plain FSGA using a coarser "
        "solver term; the L^3 convention gives the computed value",
    )
    return _report(
        "annihilator",
        "Single-output combination arithmetic (restricted preimage sizes)",
        rows,
        notes,
    )


FIXTURES = {
    "table1": fixture_table1,
    "table2": fixture_table2,
    "table3": fixture_table3,
    "table4": fixture_table4,
    "table6": fixture_table6,
    "table7": fixture_table7,
    "example1": fixture_example1,
    "example2": fixture_example2,
    "example3": fixture_example3,
    "example4": fixture_example4,
    "annihilator": fixture_annihilator,
}


def run_fixture(fixture_id: str) -> dict:
    try:
        builder = FIXTURES[fixture_id]
    except KeyError:
        raise ValueError(
            f"unknown fixture {fixture_id!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
    return builder()
