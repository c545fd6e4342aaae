"""``cli.main`` parses argv through the named command's subparser; this table
holds that parse equal to the full parser's on every kind of argv: the same
namespace, exit code, standard output and standard error.

It needs no pytest, so it also runs as a plain script under any Python the
package supports:

    PYTHONPATH=src python tests/test_cli_parse.py

which prints each argv whose two parses differ and exits 1 if any does.
"""

import contextlib
import io
import sys

from fsglab import cli

COMMANDS = ("analyze", "optimize", "attack", "report")

ARGVS = [
    # help, at the top level and for each command
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in COMMANDS),
    ["report", "-h", "stray"],
    ["analyze", "stray", "--help"],
    # no command, an unknown one, a missing fixture
    [],
    ["nosuch"],
    ["nosuch", "--config", "c.json"],
    ["ana", "--config", "c.json"],
    ["rep", "table1"],
    ["--config", "c.json", "analyze"],
    ["report"],
    ["report", "--format", "structured"],
    # stray tokens
    ["analyze", "--config", "c.json", "stray"],
    ["report", "table1", "table2"],
    ["optimize", "--config", "c.json", "--workers", "2"],
    ["attack", "--config", "c.json", "--bogus"],
    # bad values and a missing one
    ["analyze", "--config", "c.json", "--format", "json"],
    ["report", "table1", "--format", "xml"],
    ["optimize", "--config", "c.json", "--seed", "x"],
    ["attack", "--config", "c.json", "--seed", "1.5"],
    ["analyze", "--config"],
    ["report", "table1", "--out"],
    # option spellings
    ["analyze", "--config", "c.json"],
    ["attack", "--config=c.json"],
    ["analyze", "--conf", "c.json"],
    ["optimize", "--c", "c.json", "--se", "3", "--fo", "table"],
    ["analyze", "--config", "a.json", "--config", "b.json"],
    ["analyze", "--config", "c.json", "--format", "table", "--format", "structured"],
    ["optimize", "--seed", "-5", "--config", "c.json", "--out", "o.json"],
    ["report", "table1", "--seed", "5", "--format", "structured", "--out", "o.json"],
    ["report", "--seed", "5", "example1"],
    ["report", "--", "table1"],
    ["--", "report", "table1"],
    # report takes no --config
    ["report", "table1", "--config", "c.json"],
    ["report", "table1", "--config=c.json"],
    ["report", "table1", "--conf", "c.json"],
]


def outcome(parse, argv):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


def differences():
    """The argvs of the table whose two parses differ, with both outcomes."""
    parser, _ = cli._build_parser()
    found = []
    for argv in ARGVS:
        fast = outcome(cli._parse_args, argv)
        full = outcome(parser.parse_args, argv)
        if fast != full:
            found.append((argv, fast, full))
    return found


def test_main_parses_argv_as_the_full_parser_does():
    assert differences() == []
    # The table reaches help (every -h), usage errors and parsed argvs.
    parser, _ = cli._build_parser()
    codes = [outcome(parser.parse_args, argv)[1] for argv in ARGVS]
    assert codes.count(0) == 2 + len(COMMANDS) + 2
    assert set(codes) == {0, 2, None}


def test_a_named_command_parses_without_the_full_parser(monkeypatch):
    parser, _ = cli._build_parser()

    def refuse(argv):
        raise AssertionError(f"full parse of {argv}")

    monkeypatch.setattr(parser, "parse_args", refuse)
    args = cli._parse_args(["analyze", "--config", "c.json", "--format", "structured"])
    assert vars(args) == {"command": "analyze", "config": "c.json", "seed": None,
                          "format": "structured", "out": None}
    args = cli._parse_args(["report", "table1", "--seed", "5"])
    assert vars(args) == {"command": "report", "fixture": "table1", "seed": 5,
                          "format": None, "out": None}


if __name__ == "__main__":
    found = differences()
    for argv, fast, full in found:
        print(f"{argv}:\n  main: {fast}\n  full: {full}")
    print(f"Python {sys.version.split()[0]}: {len(ARGVS)} argvs, {len(found)} differ")
    sys.exit(1 if found else 0)
