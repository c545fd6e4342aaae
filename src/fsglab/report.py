"""Report assembly and rendering for the command-line surface.

Structured output is canonical JSON (sorted keys); identical configs and
seeds produce byte-identical documents apart from the ``timing`` block.
Log2 costs are rendered with two decimals in table form while the structured
form carries full precision.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__


class Report:
    """One command's result; only ``timing`` may differ between runs."""

    __slots__ = ("command", "payload", "provenance", "timing")

    def __init__(self, command: str, payload: dict, provenance: dict):
        self.command = command
        self.payload = payload
        self.provenance = provenance
        self.timing: dict = {}

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "payload": self.payload,
            "provenance": self.provenance,
            "timing": self.timing,
        }

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_dict(), sort_keys=True, indent=2)``.

        Any ``indent`` sends the stdlib to its pure-Python encoder, so this
        writes the same text directly (see :func:`_encode`).
        """
        return _encode(self.to_dict(), "\n")


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_CONSTANT = {None: "null", True: "true", False: "false"}.__getitem__
# Exact scalar type -> its text. A type missing here (a subclass too) is
# either a container or refused.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: _CONSTANT,
    type(None): _CONSTANT,
}


def _encode(value, newline: str) -> str:
    """Sorted, two-space indented JSON text of ``value``, as the stdlib writes it.

    ``newline`` is the line break before an item at this depth, followed by
    two spaces per level. Only exact dict (str keys), list, tuple, str, int,
    float, bool and None are written; any other type, subclasses included,
    raises TypeError, so the text never differs from the stdlib's. Scalar
    items are written in place, and a list or tuple of ints only is joined
    in one pass.
    """
    kind = type(value)
    write = _SCALARS.get(kind)
    if write is not None:
        return write(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            item = value[key]
            write = _SCALARS.get(type(item))
            parts.append(_quote(key) + ": " + (write(item) if write else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def make_provenance(config_sha256: str | None, seed: int | None) -> dict:
    return {
        "config_sha256": config_sha256,
        "seed": seed,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _render_rows(rows: list[dict], out: list[str]) -> None:
    if not rows:
        return
    headers = ["cell", "reference", "computed", "delta"]
    table = [
        [str(r.get("cell", "")), _fmt(r.get("reference", "")), _fmt(r.get("computed", "")),
         "" if r.get("delta") is None else _fmt(r["delta"])]
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in table:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _render_profile(profile: dict, out: list[str]) -> None:
    out.append(
        f"mode={profile['mode']} samples={profile['c']} repeats={profile['R']}"
        + (f" k={profile['k']}" if profile.get("k") is not None else "")
    )
    out.append(f"steps: {profile['steps']}")
    out.append(f"q:     {profile['q']}")
    if profile.get("repeated_sets"):
        for i, labels in enumerate(profile["repeated_sets"], 1):
            out.append(f"  sample {i + 1}: repeats {labels}")


def _render_estimate(est: dict, out: list[str]) -> None:
    out.append(
        f"log2 cost = {est['log2_total']:.2f} "
        f"(first {est['first_sample_exponent']:.2f}, "
        f"samples {sum(est['per_sample_exponents']):.2f}, "
        f"solver {est['solver_log2']:.2f}; c={est['samples_used']})"
    )
    out.append(f"per-sample exponents: {est['per_sample_exponents']}")


def _scorecard_costs(sc: dict) -> str:
    cyclic = "-" if sc["cyclic_log2"] is None else f"{sc['cyclic_log2']:.2f}"
    return (
        f"sigma*={sc['optimal_sigma']} constant={sc['constant_log2']:.2f} "
        f"greedy={sc['greedy_log2']:.2f} cyclic={cyclic}"
    )


def render_table(report: Report) -> str:
    out: list[str] = [f"== {report.command} =="]
    payload = report.payload
    if "title" in payload:
        out.append(payload["title"])
    if "profile" in payload and payload["profile"]:
        _render_profile(payload["profile"], out)
    if "estimate" in payload and payload["estimate"]:
        _render_estimate(payload["estimate"], out)
    if "rows" in payload:
        _render_rows(payload["rows"], out)
    for key in ("differences", "ordering", "optimal_sigma"):
        if key in payload:
            out.append(f"{key}: {payload[key]}")
    if "scorecard" in payload and payload["scorecard"]:
        sc = payload["scorecard"]
        out.append(
            f"scorecard: taps={sc['taps']} lambda={sc['lambda']} fpds={sc['fpds']} "
            + _scorecard_costs(sc)
        )
    if "trace" in payload and payload["trace"]:
        out.append("search trace:")
        for stage in payload["trace"]:
            out.append(
                f"  stage {stage['stage']}: chunk={stage['chunk']} tried={stage['candidates_tried']}"
                f" rejected={stage['rejections']} sigma*={stage['optimal_sigma']}"
                f" cost={stage['cost_log2']:.2f}"
            )
    for key in ("recovered_state", "systems_solved", "candidates_pruned"):
        if key in payload:
            out.append(f"{key}: {payload[key]}")
    if "window" in payload and payload["window"]:
        w = payload["window"]
        out.append(
            f"window: length={w['window_length']} recovered={w['recovered_bit_count']}"
            f" remaining={w['remaining_guess']}"
        )
    for row in payload.get("calibration_sweep", []):
        out.append(f"calibration m={row['m']}: " + _scorecard_costs(row))
    for note in payload.get("notes", []):
        out.append(f"note: {note}")
    if report.timing:
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in report.timing.items())
        out.append(f"timing: {parts}")
    return "\n".join(out)


def emit(report: Report, fmt: str, out_path: str | None) -> None:
    text = report.to_json() if fmt == "structured" else render_table(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
