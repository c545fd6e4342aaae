"""Command-line surface: analyze, optimize, attack, report.

Exit codes: 0 success, 2 configuration error, 3 no overdefined system,
4 attack failure (corrupt keystream or unrecovered state).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

from .attack import (
    KeystreamFormatError,
    gfsga_recover,
    nfsr_window_recover,
    read_keystream_file,
)
from .complexity import (
    gfsga_constant_cost,
    gfsga_variable_cost,
    internal_state_recovery_cost,
    window_recovered_bits,
)
from .config import AnalysisConfig, ConfigError, ScenarioConfig, load_config
from .fixtures import run_fixture
from .optimizer import (
    SearchExhaustedError,
    StagedSearchParams,
    _scorecards,
    staged_search,
    step_a_candidates,
    step_ab_best_ordering,
    step_b_best_ordering,
)
from .registers import HybridSpec, LfsrSpec
from .report import Report, emit, make_provenance
from .sampling import (
    NoOverdefinedSystemError,
    RepetitionProfile,
    SamplingSchedule,
    TapSet,
    constant_profile,
    cyclic_schedule,
    greedy_schedule,
    hybrid_window_profile,
    repetition_profile,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SYSTEM = 3
EXIT_ATTACK = 4


def _state_hex(state) -> str:
    acc = 0
    for j, b in enumerate(state):
        acc |= (b & 1) << j
    width = (len(state) + 3) // 4
    return format(acc, f"0{width}x")


def _profile(taps: TapSet, analysis: AnalysisConfig) -> RepetitionProfile:
    """The profile of the configured sampling mode, cut by ``analysis.stop``.

    ``analyze`` prices it and ``attack`` runs its steps, so both see the same
    schedule.
    """
    mode, stop = analysis.mode, analysis.stop
    if mode == "custom":
        return repetition_profile(taps, analysis.schedule, stop=stop)
    if mode == "constant":
        if analysis.sigma is None:
            raise ConfigError("constant mode needs analysis.sigma")
        return constant_profile(taps, analysis.sigma, stop=stop)
    if mode == "greedy":
        return greedy_schedule(taps, stop)[1]
    return cyclic_schedule(taps, stop)[1]


def cmd_analyze(config: ScenarioConfig, seed: int | None) -> Report:
    gen = config.generator
    analysis = config.analysis
    n, m = gen.filter.n, gen.filter.m
    payload: dict = {"notes": []}
    hybrid = isinstance(gen.register, HybridSpec)
    if hybrid:
        if analysis.mode != "custom":
            raise ConfigError("hybrid generators support custom schedules only")
        families = [("lfsr", gen.taps.lfsr), ("nfsr", gen.taps.nfsr)]
        profile = hybrid_window_profile(families, analysis.schedule)
        payload["notes"].append("hybrid counting model: per-register")
    else:
        profile = _profile(gen.taps, analysis)
    payload["profile"] = profile.to_dict()
    L = gen.total_length
    overdefined = n * profile.samples - profile.total > L
    if hybrid and set(profile.steps) == {1}:
        recovered = window_recovered_bits(profile)
        cost = internal_state_recovery_cost(profile, n, m, L, recovered)
        payload["estimate"] = cost.estimate.to_dict()
        payload["window_cost"] = {
            "recovered_bits": recovered,
            "memory_bits": cost.memory_bits,
            "data_bits": cost.data_bits,
        }
    elif not hybrid and m < n and overdefined:
        if profile.mode == "constant":
            est = gfsga_constant_cost(profile, n, m, L, analysis.solver_exponent)
        else:
            est = gfsga_variable_cost(profile, n, m, L, analysis.solver_exponent)
        payload["estimate"] = est.to_dict()
    else:
        payload["estimate"] = None
        if not overdefined:
            payload["notes"].append(
                f"system not overdefined: {n * profile.samples - profile.total} "
                f"distinct equations for {L} unknowns"
            )
    if analysis.m_calibration and not isinstance(gen.register, HybridSpec):
        ms = range(1, min(5, n))
        cards = _scorecards(gen.taps, n, ms, gen.register.length)
        payload["calibration_sweep"] = [
            card.to_dict() | {"m": m_try} for m_try, card in zip(ms, cards)]
    return Report("analyze", payload, make_provenance(config.sha256(), seed))


def cmd_optimize(config: ScenarioConfig, seed: int | None) -> Report:
    gen = config.generator
    opt = config.optimize
    n, m = gen.filter.n, gen.filter.m
    L = gen.total_length
    seed = 0 if seed is None else seed
    payload: dict = {"notes": []}
    if opt.differences is not None:
        ordering, card = step_b_best_ordering(opt.differences, n, m, L)
        payload["method"] = "step_b"
    elif n - 1 <= 10:
        candidates = step_a_candidates(L, n, opt.budget, seed)
        ordering, card = step_ab_best_ordering([c.differences for c in candidates], n, m, L)
        payload["method"] = "step_a+step_b"
        payload["candidates_tried"] = len(candidates)
    else:
        params = StagedSearchParams(
            chunk_size=opt.chunk_size,
            stage_budget=opt.budget,
            retries=opt.retries,
            seed=seed,
        )
        ordering, card, trace = staged_search(L, n, m, params)
        payload["method"] = "staged"
        payload["trace"] = [
            {**asdict(t), "chunk": list(t.chunk), "ordering": list(t.ordering)}
            for t in trace
        ]
    payload["differences"] = sorted(ordering)
    payload["ordering"] = list(ordering)
    payload["optimal_sigma"] = card.optimal_sigma
    payload["scorecard"] = card.to_dict()
    return Report("optimize", payload, make_provenance(config.sha256(), seed))


class AttackFailure(RuntimeError):
    pass


def cmd_attack(config: ScenarioConfig, seed: int | None) -> Report:
    gen_cfg = config.generator
    if not gen_cfg.filter.source:
        raise ConfigError("attack needs a concrete filter (source hex or random)")
    if not config.attack.keystream:
        raise ConfigError("attack.keystream path is required")
    gen = gen_cfg.build_generator(0 if seed is None else seed)
    try:
        header, blocks = read_keystream_file(config.attack.keystream)
    except FileNotFoundError:
        raise AttackFailure(f"keystream file not found: {config.attack.keystream}")
    n, m, L, _count = header
    if (n, m, L) != (gen.filter.n, gen.filter.m, gen_cfg.total_length):
        raise AttackFailure(
            f"keystream header (n={n}, m={m}, L={L}) does not match the configuration"
        )
    payload: dict = {"notes": []}
    started = time.perf_counter()
    if isinstance(gen.register, LfsrSpec):
        profile = _profile(gen_cfg.taps, config.analysis)
        if not profile.is_overdefined():
            raise NoOverdefinedSystemError(
                f"system not overdefined: {profile.distinct_equations} "
                f"distinct equations for {L} unknowns"
            )
        schedule = SamplingSchedule(profile.steps, profile.mode)
        result = gfsga_recover(gen, blocks, schedule)
        payload["schedule"] = list(schedule.steps)
        if result.recovered_state is None:
            raise AttackFailure("no consistent state reproduces the keystream")
        payload["recovered_state"] = _state_hex(result.recovered_state)
    else:
        recovery, result = nfsr_window_recover(gen, blocks)
        payload["window"] = {
            "window_length": recovery.window_length,
            "recovered_bit_count": recovery.recovered_bit_count,
            "remaining_guess": recovery.remaining_guess,
            "per_sample_sizes": list(recovery.per_sample_sizes),
        }
        if result.recovered_state is None:
            raise AttackFailure("no window candidate reproduces the keystream")
        state = result.recovered_state
        if isinstance(gen.register, HybridSpec):
            payload["recovered_state"] = {
                "lfsr": _state_hex(state[0]),
                "nfsr": _state_hex(state[1]),
            }
        else:
            payload["recovered_state"] = _state_hex(state)
    payload["systems_solved"] = result.systems_solved
    payload["candidates_pruned"] = result.candidates_pruned
    report = Report("attack", payload, make_provenance(config.sha256(), seed))
    report.timing["wall_clock"] = time.perf_counter() - started
    return report


def cmd_report_tables(fixture_id: str, seed: int | None) -> Report:
    fx = run_fixture(fixture_id)
    payload = fx.to_dict()
    return Report("report", payload, make_provenance(None, seed))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsglab",
        description="Guess-and-determine workbench for shift-register filter generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config (JSON)")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized parts")
    common.add_argument("--format", choices=("table", "structured"), default=None)
    common.add_argument("--out", default=None, help="write the report to this path")
    sub.add_parser("analyze", parents=[common], help="profile and cost a sampling mode")
    sub.add_parser("optimize", parents=[common], help="search for resistant tap placements")
    sub.add_parser("attack", parents=[common], help="run a state-recovery attack")
    rep = sub.add_parser("report", parents=[common], help="recompute a reference table")
    rep.add_argument("fixture", help="fixture id (e.g. table3, example1)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            report = cmd_report_tables(args.fixture, args.seed)
            fmt = args.format or "table"
        else:
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            config = load_config(args.config)
            fmt = args.format or config.report_format
            if args.command == "analyze":
                report = cmd_analyze(config, args.seed)
            elif args.command == "optimize":
                report = cmd_optimize(config, args.seed)
            else:
                report = cmd_attack(config, args.seed)
        emit(report, fmt, args.out)
        return EXIT_OK
    except (AttackFailure, KeystreamFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ATTACK
    except NoOverdefinedSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SYSTEM
    except (ConfigError, SearchExhaustedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
