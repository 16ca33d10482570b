"""Command-line front door: scenario files in, deterministic reports out.

Scenario files are JSON with unit-suffixed keys (``re_ohms``, ``temp_kelvin``)
and the literal token ``"inf"`` wherever an infinite value is meaningful.
Reports are CSV (default) or indented text with numbers rendered to 12
significant digits; exact zeros print as ``0``. A float prints ``inf`` only
in the flag columns a command module lists in ``FLAGS``, where inf is a
result (an SNR without noise, an open-circuit load); any other non-finite
float exits 3 before the report is written (``scenario.render_report``).
``undefined`` marks a quantity with no value, such as Eb/N0 at zero power.
Row order is fixed, so identical inputs give byte-identical reports.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 numerical or
singular-circuit error, 4 I/O error.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys

from . import _load
from .core import ParseError, ToolkitError, ValidationError
from .scenario import (  # Scenario and fmt: callers use them by these names
    SUBCOMMANDS,
    Scenario,  # noqa: F401
    fmt,  # noqa: F401
    parse_scenario,
    render_report,
)


def _write_text(out_path, payload: str) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", newline="") as handle:
        handle.write(payload)


_USAGE = ("usage: rxfront [-h] {" + ",".join(SUBCOMMANDS) + "} --scenario SCENARIO [--out OUT]"
          " [--format {csv,text}] [--dump-normalized] [--jobs JOBS]\n")
_HELP = _USAGE + """
Receiver front-end termination and noise analysis: run one subcommand's
analysis for a scenario file.

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  path to a scenario JSON file
  --out OUT            output file (default: stdout)
  --format {csv,text}  report format (default: csv)
  --dump-normalized    print the normalized scenario instead of running
  --jobs JOBS          accepted for compatibility (must be >= 1); has no effect

Exit codes: 0 success, 1 validation, 2 parse, 3 numerical/singular, 4 I/O.
"""
# Option -> its key in the parsed arguments. Before the subcommand only help is known.
_OPTIONS = {"-h": "help", "--help": "help", "--scenario": "scenario", "--out": "out",
            "--format": "format", "--dump-normalized": "dump_normalized", "--jobs": "jobs"}
_TOP_OPTIONS = {"-h": "help", "--help": "help"}
_FLAGS = {"help": "-h/--help", "dump_normalized": "--dump-normalized"}  # the options that take no value


def _refuse(message: str):
    """Exit 2 with the usage line and an error line on stderr, as argparse does."""
    sys.stderr.write(f"{_USAGE}rxfront: error: {message}\n")
    raise SystemExit(2)


def _read_argv(argv: list) -> dict:
    """The subcommand and options of a command line, read as argparse read
    them: options in any order, ``--opt=value``, a unique prefix of a long
    option, the last of a repeated option wins. -h/--help prints the help
    and exits 0; a malformed line exits 2 with argparse's message. Unknown
    options and extra words are reported after the required ones are."""
    args = {"command": None, "scenario": None, "out": None, "format": "csv", "dump_normalized": False, "jobs": 1}
    unknown = []
    rest = iter(argv)
    for arg in rest:
        if not arg.startswith("-") or arg in ("-", "--"):  # a word; "--" ends no options here
            if args["command"] is not None:
                unknown.append(arg)
            elif arg in SUBCOMMANDS:
                args["command"] = arg
            else:
                choices = ", ".join(map(repr, SUBCOMMANDS))
                _refuse(f"argument command: invalid choice: {arg!r} (choose from {choices})")
            continue
        name, attached, value = arg.partition("=")
        known = _OPTIONS if args["command"] else _TOP_OPTIONS
        matches = [name] if name in known else [o for o in known if name.startswith("--") and o.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if not matches:
            unknown.append(arg)
            continue
        key = known[matches[0]]
        if key in _FLAGS:
            if attached:
                _refuse(f"argument {_FLAGS[key]}: ignored explicit argument {value!r}")
            if key == "help":
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            args[key] = True
            continue
        if not attached:
            value = next(rest, None)
            if value is None or value.startswith("-") and value != "-":
                _refuse(f"argument {matches[0]}: expected one argument")
        if key == "format" and value not in ("csv", "text"):
            _refuse(f"argument --format: invalid choice: {value!r} (choose from 'csv', 'text')")
        if key == "jobs":
            try:
                value = int(value)
            except ValueError:
                _refuse(f"argument --jobs: invalid int value: {value!r}")
        args[key] = value
    if args["command"] is None:
        _refuse("the following arguments are required: command")
    if args["scenario"] is None:
        _refuse("the following arguments are required: --scenario")
    if unknown:
        _refuse("unrecognized arguments: " + " ".join(unknown))
    return args


def _numerical_errors() -> tuple:
    """ArithmeticError, and numpy's LinAlgError once numpy is loaded (a run
    that never loaded it cannot raise it, and need not import it to say so)."""
    numpy = sys.modules.get("numpy")
    return (ArithmeticError,) if numpy is None else (ArithmeticError, numpy.linalg.LinAlgError)


# When numpy loads, OpenBLAS starts one worker thread per CPU, and each worker
# spins waiting for work that the matrices of a CLI call (order 24 or less in
# the shipped scenarios) never give it: about 100 ms of CPU per call on a
# 2-CPU host. OpenBLAS (pthreads and OpenMP builds) and MKL read
# OMP_NUM_THREADS when their own variable is unset.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    gc_enabled = gc.isenabled()
    gc.disable()  # the scenario tree and the report columns hold no reference cycles
    # BLAS reads its thread count once, when numpy loads, so the setting is
    # undone on return; a loaded numpy and a thread count the user set are kept
    one_blas_thread = "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
    if one_blas_thread:
        os.environ["OMP_NUM_THREADS"] = "1"
    try:
        return _main(argv)
    finally:
        if one_blas_thread:
            os.environ.pop("OMP_NUM_THREADS", None)
        if gc_enabled:
            gc.enable()


def _main(argv) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    command, out = args["command"], args["out"]
    try:
        if args["jobs"] < 1:
            raise ParseError("--jobs must be >= 1")
        scenario = parse_scenario(args["scenario"])
        if scenario.kind != command:
            raise ParseError(
                f"scenario {scenario.name!r} carries a {scenario.kind!r} section, "
                f"not {command!r}"
            )
        if args["dump_normalized"]:
            _write_text(out, json.dumps(scenario.data, indent=2, sort_keys=True) + "\n")
            return 0
        module = _load(f"{__package__}.commands.{command}")
        columns, ok = module.solve(module.build(scenario))
        _write_text(out, render_report(columns, args["format"], f"{scenario.name} {command}", module.FLAGS))
        if not ok:
            print(f"{command}: validation failed", file=sys.stderr)
            return 1
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _numerical_errors() as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:  # a size within the limits that this host still cannot hold
        print("parse error: scenario too large for available memory", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point of `rxfront` and `python -m rxfront.cli`: run
    main() on sys.argv and exit with its code.

    The process ends without the interpreter's teardown, which clears every
    module and runs full garbage collections over every tracked object (even
    with the collector disabled): about 3-6 ms a call. As the interpreter
    would, it runs the atexit hooks and then flushes stdout and stderr; then
    os._exit ends it. The CLI starts no thread that teardown would wait for.
    A flush that fails (a closed pipe, a full disk) falls back to
    SystemExit, so the interpreter reports it and sets the exit code as it
    always has; gc.freeze() keeps the heap out of the collections that
    fallback still runs.
    """
    code = main()
    gc.freeze()
    atexit._run_exitfuncs()
    try:
        _flush()
    except (OSError, ValueError):  # ValueError: a stream closed under us
        raise SystemExit(code)
    os._exit(code)


def _flush() -> None:
    """Flush stdout and stderr; either is None in a process started without it."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


if __name__ == "__main__":
    run()
