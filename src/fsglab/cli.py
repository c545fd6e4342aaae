"""Command-line surface: analyze, optimize, attack, report.

Exit codes: 0 success, 2 configuration error (an unreadable config or an
unwritable ``--out`` included), 3 no overdefined system, 4 attack failure
(missing, unreadable or corrupt keystream, or unrecovered state).

``main`` parses argv with the subparser of the command it names and falls
back to the full two-level parser only when that could differ (no command
named, or a token left over), so every usage error, ``-h`` and exit code is
the full parser's; the parsers are built once per process.

Only what parsing and dispatch need is imported here. Each command imports
the modules it runs when it runs, so ``optimize`` never loads ``attack`` and
``attack`` never loads ``optimizer``. The imports sit inside the functions and
read the names at call time, so a rebinding in the defining module (a test's
monkeypatch, a tracer) is what the command calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .config import ConfigError, ScenarioConfig, load_config
from .registers import HybridSpec, LfsrSpec, window_geometry
from .report import Report, emit, make_provenance
from .sampling import (
    NoOverdefinedSystemError,
    RankStop,
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


def _profile(taps: TapSet, analysis: dict,
             materialize_sets: bool = True) -> RepetitionProfile:
    """The profile of the configured sampling mode, cut by the analysis
    section's stop.

    ``analyze`` prices it and ``attack`` runs its steps, so both see the same
    schedule. ``attack`` reads only the steps and passes
    ``materialize_sets=False``, so no repeated label sets are built.
    """
    mode, stop = analysis["mode"], analysis["stop"]
    if mode == "custom":
        return repetition_profile(taps, analysis["schedule"], stop=stop,
                                  materialize_sets=materialize_sets)
    if mode == "constant":
        if analysis["sigma"] is None:
            raise ConfigError(
                "analysis.sigma is required by analysis.mode constant, the default mode")
        return constant_profile(taps, analysis["sigma"], stop=stop)
    if mode == "greedy":
        return greedy_schedule(taps, stop, materialize_sets=materialize_sets)[1]
    return cyclic_schedule(taps, stop, materialize_sets=materialize_sets)[1]


def cmd_analyze(config: ScenarioConfig, seed: int | None) -> Report:
    from .complexity import (
        gfsga_constant_cost,
        gfsga_variable_cost,
        internal_state_recovery_cost,
    )

    gen = config.generator
    analysis = config.analysis
    n, m = gen.filter["n"], gen.filter["m"]
    L = gen.total_length
    payload: dict = {"notes": []}
    if not isinstance(gen.register, LfsrSpec):
        # NFSR and hybrid generators: price the window that ``attack`` runs.
        families, _, window = window_geometry(gen.register, gen.taps)
        if len(families) > 1:
            payload["notes"].append("hybrid counting model: per-register")
        profile = hybrid_window_profile(families, [1] * (window - 1))
        cost = internal_state_recovery_cost(profile, n, m, L)
        payload["profile"] = profile.to_dict()
        payload["estimate"] = cost.estimate.to_dict()
        payload["window_cost"] = {
            key: getattr(cost, key) for key in ("recovered_bits", "memory_bits", "data_bits")}
        return Report("analyze", payload, make_provenance(config.sha256(), seed))
    profile = _profile(gen.taps, analysis)
    payload["profile"] = profile.to_dict()
    overdefined = n * profile.samples - profile.total > L
    if m < n and overdefined:
        if profile.mode == "constant":
            est = gfsga_constant_cost(profile, n, m, L, analysis["solver_exponent"])
        else:
            est = gfsga_variable_cost(profile, n, m, L, analysis["solver_exponent"])
        payload["estimate"] = est.to_dict()
    else:
        payload["estimate"] = None
        if not overdefined:
            payload["notes"].append(
                f"system not overdefined: {n * profile.samples - profile.total} "
                f"distinct equations for {L} unknowns"
            )
    if analysis["m_calibration"]:
        from .optimizer import _calibration_widths, _scorecards

        ms = _calibration_widths(n)
        # The scorecards price the RankStop greedy and cyclic schedules: a
        # profile of either, built above under a RankStop, is reused.
        built = profile if isinstance(analysis["stop"], RankStop) else None
        cards = _scorecards(gen.taps, n, ms, L, built, analysis["solver_exponent"])
        payload["calibration_sweep"] = [
            card.to_dict() | {"m": m_try} for m_try, card in zip(ms, cards)]
    return Report("analyze", payload, make_provenance(config.sha256(), seed))


def cmd_optimize(config: ScenarioConfig, seed: int | None) -> Report:
    from .optimizer import (
        MAX_EXHAUSTIVE_DIFFERENCES,
        StagedSearchParams,
        staged_search,
        step_a_candidates,
        step_ab_best_ordering,
        step_b_best_ordering,
    )

    gen = config.generator
    opt = config.optimize
    n, m = gen.filter["n"], gen.filter["m"]
    L = gen.total_length
    seed = 0 if seed is None else seed
    payload: dict = {"notes": []}
    if opt["differences"] is not None:
        ordering, card = step_b_best_ordering(opt["differences"], n, m, L)
        payload["method"] = "step_b"
    elif n - 1 <= MAX_EXHAUSTIVE_DIFFERENCES:
        candidates = step_a_candidates(L, n, opt["budget"], seed)
        ordering, card = step_ab_best_ordering([c.differences for c in candidates], n, m, L)
        payload["method"] = "step_a+step_b"
        payload["candidates_tried"] = len(candidates)
    else:
        params = StagedSearchParams(
            chunk_size=opt["chunk_size"],
            stage_budget=opt["budget"],
            retries=opt["retries"],
            seed=seed,
        )
        ordering, card, trace = staged_search(L, n, m, params)
        payload["method"] = "staged"
        payload["trace"] = [t.to_dict() for t in trace]
    payload["differences"] = sorted(ordering)
    payload["ordering"] = list(ordering)
    payload["optimal_sigma"] = card.optimal_sigma
    payload["scorecard"] = card.to_dict()
    return Report("optimize", payload, make_provenance(config.sha256(), seed))


class AttackFailure(RuntimeError):
    pass


def cmd_attack(config: ScenarioConfig, seed: int | None) -> Report:
    from .attack import gfsga_recover, nfsr_window_recover, read_keystream_file

    gen_cfg = config.generator
    if not gen_cfg.filter["source"]:
        raise ConfigError("attack needs a concrete filter (source hex or random)")
    if not config.keystream:
        raise ConfigError("attack.keystream path is required")
    try:
        header, blocks = read_keystream_file(config.keystream)
    except FileNotFoundError:
        raise AttackFailure(f"keystream file not found: {config.keystream}")
    except OSError as exc:
        raise AttackFailure(
            f"cannot read keystream file {config.keystream}: {exc.strerror}")
    n, m, L, _count = header
    # Checked before the filter is built: a random filter's 2^n table can
    # take seconds to build.
    if (n, m, L) != (gen_cfg.filter["n"], gen_cfg.filter["m"], gen_cfg.total_length):
        raise AttackFailure(
            f"keystream header (n={n}, m={m}, L={L}) does not match the configuration"
        )
    gen = gen_cfg.build_generator(0 if seed is None else seed)
    payload: dict = {"notes": []}
    started = time.perf_counter()
    if isinstance(gen.register, LfsrSpec):
        profile = _profile(gen_cfg.taps, config.analysis, materialize_sets=False)
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
    from .fixtures import run_fixture

    return Report("report", run_fixture(fixture_id), make_provenance(None, seed))


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subparser for each command, built on
    the first call and shared after it.

    Nothing in them depends on the input, and ``parse_args`` returns a fresh
    namespace each time, so repeated in-process ``main`` calls reuse them.
    """
    parser = argparse.ArgumentParser(
        prog="fsglab",
        description="Guess-and-determine workbench for shift-register filter generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="scenario config (JSON)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for randomized parts")
    common.add_argument("--format", choices=("table", "structured"), default=None)
    common.add_argument("--out", default=None, help="write the report to this path")
    commands = {
        name: sub.add_parser(name, parents=[config, common], help=text)
        for name, text in (
            ("analyze", "profile and cost a sampling mode"),
            ("optimize", "search for resistant tap placements"),
            ("attack", "run a state-recovery attack"),
        )
    }
    rep = commands["report"] = sub.add_parser(
        "report", parents=[common], help="recompute a reference table")
    rep.add_argument("fixture", help="fixture id (e.g. table3, example1)")
    return parser, commands


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it.

    The full parser hands every token after a command name to that command's
    subparser, so the subparser alone gives the same namespace, help and
    usage errors at about half the cost. The full parser parses the rest: no
    command or an unknown one, and a token the subparser leaves over, which
    only the full parser reports.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _exit_code(exc: Exception) -> int | None:
    """The exit code of an error a command reports, None for any other.

    ``KeystreamFormatError`` and ``SearchExhaustedError`` belong to modules
    that only the commands import. An error of a module that was never loaded
    cannot have been raised, so their classes are read from ``sys.modules``.
    """
    attack = sys.modules.get(f"{__package__}.attack")
    optimizer = sys.modules.get(f"{__package__}.optimizer")
    if isinstance(exc, AttackFailure) or (
            attack and isinstance(exc, attack.KeystreamFormatError)):
        return EXIT_ATTACK
    if isinstance(exc, NoOverdefinedSystemError):
        return EXIT_NO_SYSTEM
    if isinstance(exc, ValueError) or (
            optimizer and isinstance(exc, optimizer.SearchExhaustedError)):
        return EXIT_CONFIG
    return None


def main(argv=None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` by default) and
    return its exit code; usage errors and ``-h`` exit through argparse.

    ``argv`` is parsed by :func:`_parse_args`: by the command's own
    subparser, and by the full parser only when that would differ.
    """
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
        try:
            emit(report, fmt, args.out)
        except OSError as exc:
            if not args.out:
                raise
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from None
        return EXIT_OK
    except (ValueError, RuntimeError) as exc:  # every error class _exit_code maps
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
