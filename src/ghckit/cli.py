"""Command-line front end with JSON output and deterministic exit codes.

Exit contract: 0 success, 2 input error (including malformed requests),
3 unsupported type, and 141 (128 + SIGPIPE, with nothing on stderr) when
the reader closes stdout before the output is written.  All output is JSON
with sorted keys, so identical requests produce byte-identical documents.

``COMMANDS`` declares every command once: its handler and its parameters.
A parameter's flag is derived from its request key (``max_m`` is
``--max-m``), and one parser reads both its JSON value and its flag string,
so a flag invocation is the request it spells.  A request key that the
command does not declare is an input error.  An integer is read by
``exact.parse_integer``, which also reads ``GHC_MAX_RANK``.

Every handler only dispatches: one library call and the JSON keys.  The
rules live in the library, which enforces them for any caller: the k-type
series' bound ``MAX_M``, its integrality check and its minimal k-type in
``principal``; the census (type A only, rank bound ``CENSUS_MAX_RANK``) in
``fk.census_rows``; the default toral part h of ``primal-test`` in
``fk.is_primal``; and the ``mathieu`` document, with its rule that ``eta`` and
``equiv`` have the length of ``x``, in ``mathieu.describe``.

A handler imports the modules it runs, so a command loads only those (and
``rootsys``, ``exact`` and ``errors``, which every request uses).  ``request``
reads its document without building the flag parser (or importing argparse);
flags, ``--output``, ``--help`` and any other argv go through argparse.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections.abc import Callable

from . import rootsys
from .errors import InputError, UnsupportedTypeError
from .exact import _Record, parse_integer, parse_rational

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the output was written


# ---------------------------------------------------------------------------
# parameter parsers: each reads a JSON value or a flag string


def _string(value) -> str:
    if not isinstance(value, str):
        raise InputError(f"expected a string, got {value!r}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"expected true or false, got {value!r}")
    return value


def _split(value, sep: str) -> list:
    """A JSON list as it is, or the parts of a flag string ("" has none)."""
    if isinstance(value, str):
        return value.split(sep) if value.strip() else []
    if not isinstance(value, list):
        raise InputError(f"expected a {sep!r}-separated string or a list, got {value!r}")
    return value


def _indices(value) -> list[int]:
    """Root indices: "0,3" or [0, 3]."""
    return [parse_integer(i) for i in _split(value, ",")]


def _weight(value):
    """A weight: "3/2,1/2" or ["3/2", "1/2"]."""
    return tuple(parse_rational(str(c)) for c in _split(value, ","))


def _weights(value):
    """A list of weights: "1,-1,0;0,1,-1" or a list of weights; blank parts are skipped."""
    return [_weight(w) for w in _split(value, ";") if not isinstance(w, str) or w.strip()]


# ---------------------------------------------------------------------------
# command handlers: each takes its parsed parameters in declared order, with
# series and rank built into one RootSystem, and returns a JSON document


def _cmd_exponents(rs: rootsys.RootSystem) -> dict:
    from . import principal
    return {"series": rs.series, "rank": rs.rank, "exponents": principal.exponents(rs)}


def _cmd_shadow(rs: rootsys.RootSystem, subalgebra: list[int]) -> dict:
    from . import shadow
    sd = shadow.shadow(rs, shadow.RootSubalgebra.from_indices(rs, subalgebra))
    doc = sd.to_json()
    doc["p_M"] = rootsys.bits(sd.pm_mask)
    doc["fernando_fk"] = rootsys.bits(sd.fernando_fk_mask)
    return doc


def _cmd_fk_test(rs: rootsys.RootSystem, subalgebra: list[int]) -> dict:
    from . import fk, shadow
    verdict = fk.theorem8_finite_type(rs, shadow.RootSubalgebra.from_indices(rs, subalgebra))
    doc = verdict.to_json()
    doc["singular_weights_g_mod_l"] = rootsys.bits(verdict.singular_g_mod_l.mask)
    doc["singular_weights_n"] = rootsys.bits(verdict.singular_n.mask)
    return doc


def _cmd_solvable_test(rs: rootsys.RootSystem, subalgebra: list[int]) -> dict:
    from . import fk, shadow
    sub = shadow.RootSubalgebra.from_indices(rs, subalgebra)
    return {"finite_type": fk.theorem6_solvable_finite_type(rs, sub)}


def _cmd_primal_test(rs: rootsys.RootSystem, k_roots: list[int], toral) -> dict:
    from . import fk
    return {"primal": fk.is_primal(rs, rs.index_mask(k_roots), toral)}


def _cmd_mathieu(x, eta, equiv) -> dict:
    from . import mathieu
    return mathieu.describe(x, eta, equiv)


def _cmd_ktype_series(rs: rootsys.RootSystem, lam, max_m: int) -> dict:
    from . import principal
    series = principal.ktype_series(principal.PrincipalData.build(rs), lam, max_m)
    return {**series.to_json(), "minimal_ktype": series.minimal_ktype}


def _cmd_census(rs: rootsys.RootSystem, dedup: bool) -> dict:
    from . import fk
    return {"rows": list(fk.census_rows(rs, dedup))}


# ---------------------------------------------------------------------------
# the command table


class Param(_Record):
    """A command parameter: its request key, the parser of its value and its
    default (REQUIRED: none)."""

    key: str
    parse: Callable
    default: object


REQUIRED = object()
SYSTEM = (Param("series", _string, REQUIRED), Param("rank", parse_integer, REQUIRED))
SUBALGEBRA = Param("subalgebra", _indices, ())

COMMANDS: dict[str, tuple[Callable[..., dict], tuple[Param, ...]]] = {
    "root-system": (rootsys.RootSystem.to_json, SYSTEM),
    "exponents": (_cmd_exponents, SYSTEM),
    "shadow": (_cmd_shadow, SYSTEM + (SUBALGEBRA,)),
    "fk-test": (_cmd_fk_test, SYSTEM + (SUBALGEBRA,)),
    "solvable-test": (_cmd_solvable_test, SYSTEM + (SUBALGEBRA,)),
    "primal-test": (_cmd_primal_test, SYSTEM + (Param("k_roots", _indices, ()), Param("toral", _weights, None))),
    "mathieu": (
        _cmd_mathieu,
        (Param("x", _weight, REQUIRED), Param("eta", _weight, None), Param("equiv", _weight, None)),
    ),
    "ktype-series": (
        _cmd_ktype_series,
        SYSTEM + (Param("lambda", _weight, REQUIRED), Param("max_m", parse_integer, 10)),
    ),
    "census": (_cmd_census, SYSTEM + (Param("dedup", _boolean, False),)),
}


def _value(param: Param, params: dict):
    if param.key not in params:
        if param.default is REQUIRED:
            raise InputError(f"missing parameter {param.key}")
        return param.default
    try:
        return param.parse(params[param.key])
    except InputError as e:
        raise InputError(f"{param.key}: {e}") from None


def _error(message: str, code: int) -> tuple[dict, int]:
    return {"error": message, "code": code}, code


def run(request: dict) -> tuple[dict, int]:
    """Execute one command request; returns (document, exit code).

    The document is the result on success, or a machine-readable error
    object {"error": ..., "code": ...} on failure.
    """
    try:
        if not isinstance(request, dict):
            raise InputError("request must be a JSON object")
        extra = next((k for k in request if k not in ("command", "parameters")), None)
        if extra is not None:
            raise InputError(f"a request has no key {extra!r}, only 'command' and 'parameters'")
        command = request.get("command")
        params = request.get("parameters", {})
        if not isinstance(params, dict):
            raise InputError("parameters must be a JSON object")
        if not isinstance(command, str) or command not in COMMANDS:
            raise InputError(f"unknown command {command!r}")
        handler, declared = COMMANDS[command]
        keys = {p.key for p in declared}
        unknown = next((k for k in params if k not in keys), None)
        if unknown is not None:
            raise InputError(f"{command} has no parameter {unknown!r}")
        values = [_value(p, params) for p in declared]
        if declared[:2] == SYSTEM:
            values[:2] = [rootsys.build(*values[:2])]
        return handler(*values), EXIT_OK
    except UnsupportedTypeError as e:
        return _error(str(e), EXIT_UNSUPPORTED)
    except InputError as e:
        return _error(str(e), EXIT_INPUT)


def _emit(doc: dict, out: io.TextIOBase) -> None:
    """Write doc as one line to out, through its binary stream when it has one.  An
    unbuffered stream's raw write may take only part of the bytes, as it does once the
    reader of a pipe is gone, and the text layer drops the rest without an error; the
    loop writes on until every byte is taken or the write raises."""
    line = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    raw = getattr(out, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        out.write(line)
        return
    out.flush()  # text written to out before goes first
    data = memoryview(line.encode())
    while data:
        data = data[raw.write(data) :]


def _parser():
    import argparse
    parser = argparse.ArgumentParser(prog="ghckit")
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, declared) in COMMANDS.items():
        p = sub.add_parser(name)
        for param in declared:
            # a flag left out is left out of the request, which then takes the default
            kind = {"action": "store_const", "const": True} if param.parse is _boolean else {}
            p.add_argument("--" + param.key.replace("_", "-"), dest=param.key, default=argparse.SUPPRESS,
                           required=param.default is REQUIRED, **kind)
    p = sub.add_parser("request", help="read a JSON command request from a file or stdin")
    p.add_argument("file", nargs="?", default="-")
    return parser


def _serve(output: str | None, command: str, args: dict) -> int:
    """Run a command, or the request in args["file"], and write its document."""
    if command != "request":
        doc, code = run({"command": command, "parameters": args})
    else:
        try:
            if args["file"] == "-":
                raw = sys.stdin.read()
            else:
                with open(args["file"], encoding="utf-8") as f:
                    raw = f.read()
            request = json.loads(raw)
        except (OSError, ValueError, RecursionError) as e:  # ValueError: bad UTF-8 or JSON
            doc, code = _error(f"malformed request: {e}", EXIT_INPUT)
        else:
            doc, code = run(request)
    if code == EXIT_OK and output not in (None, "-"):
        try:
            with open(output, "w") as out:
                _emit(doc, out)
            return code
        except OSError as e:
            doc, code = _error(f"cannot write output: {e}", EXIT_INPUT)
    try:
        _emit(doc, sys.stdout if code == EXIT_OK else sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`ghckit ... | head`): point stdout at devnull, so
        # that the interpreter's final flush has nowhere to fail, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def main(argv: list[str] | None = None) -> int:
    """Serve argv (default sys.argv[1:]); returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # `request`, `request -` and `request FILE` as argparse reads them, without building it
    if argv[:1] == ["request"] and len(argv) <= 2 and (argv[-1] == "-" or not argv[-1].startswith("-")):
        return _serve(None, "request", {"file": argv[1] if len(argv) == 2 else "-"})
    args = vars(_parser().parse_args(argv))
    return _serve(args.pop("output"), args.pop("command"), args)


if __name__ == "__main__":
    raise SystemExit(main())
