"""Command-line front end with JSON output and deterministic exit codes.

Exit contract: 0 success, 2 input error (including malformed requests),
3 unsupported type, and 141 (128 + SIGPIPE, with nothing on stderr) when
the reader closes stdout before the output is written.  All output is JSON
with sorted keys, so identical requests produce byte-identical documents.

``COMMANDS`` declares every command once: its handler and its parameters.
A parameter's flag is derived from its request key (``max_m`` is
``--max-m``), and one parser reads both its JSON value and its flag string,
so a flag invocation is the request it spells.  A request key that the
command does not declare is an input error.

A handler imports the modules it runs, so a command loads only those (and
``rootsys``, ``exact`` and ``errors``, which every request uses).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, Iterator, NamedTuple, Optional, TextIO

from . import rootsys
from .errors import InputError, RegularIntegralCase, UnsupportedTypeError
from .exact import format_rational, parse_vector

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the output was written

CENSUS_MAX_RANK = 4
# bound on a k-type series' max_m and |lambda(h)|: the slowest series within
# it, E8 with max_m = MAX_M and lambda(h) = -MAX_M, takes about 0.2 s
MAX_M = 10_000


# ---------------------------------------------------------------------------
# parameter parsers: each reads a JSON value or a flag string


def _integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"expected an integer, got {value!r}")


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
    return [_integer(i) for i in _split(value, ",")]


def _weight(value):
    """A weight: "3/2,1/2" or ["3/2", "1/2"]."""
    return parse_vector(_split(value, ","))


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
    if toral is None:
        toral = rs.simple_roots  # the full Cartan of g
    return {"primal": fk.is_primal(rs, rs.roots_of(rs.index_mask(k_roots)), toral)}


def _cmd_mathieu(x, eta, equiv) -> dict:
    from . import mathieu
    for name, other in (("eta", eta), ("equiv", equiv)):
        if other is not None and len(other) != len(x):
            raise InputError(f"{name} dimension does not match x")
    doc: dict = {"bounded": mathieu.sp_bounded(x)}
    if doc["bounded"]:
        doc.update(mathieu.CoherentFamilyDescriptor.from_weight(x).to_json())
    else:
        doc["class_rep"] = [format_rational(c) for c in x]
    if eta is not None:
        doc["fiber_irreducible"] = mathieu.sp_fiber_irreducible(eta)
    if equiv is not None:
        doc["equivalent"] = mathieu.sp_equivalent(x, equiv)
    return doc


def _cmd_ktype_series(rs: rootsys.RootSystem, lam, max_m: int) -> dict:
    from . import principal
    if len(lam) != rs.ambient_dim:
        raise InputError("lambda dimension does not match the ambient space")
    if rootsys.is_integral(rs, lam):
        raise InputError("lambda must be non-integral")
    pd = principal.PrincipalData.build(rs)
    # the partition table has max_m - lambda(h) + 2 entries
    lh = pd.lambda_h(lam)
    if abs(lh) > MAX_M:
        raise InputError(f"lambda(h) = {format_rational(lh)} is outside the bound +-{MAX_M}")
    doc = principal.ktype_series(pd, lam, max_m).to_json()
    # the series bottoms out at lambda(h) - 2 when that is a nonnegative integer
    doc["minimal_ktype"] = principal.minimal_ktype(pd, lam) if lh >= 2 and lh.denominator == 1 else None
    return doc


def _cmd_census(rs: rootsys.RootSystem, dedup: bool) -> dict:
    return {"rows": list(census_rows(rs, dedup))}


def census_rows(rs: rootsys.RootSystem, dedup: bool = False) -> Iterator[dict]:
    """Classify every closed root subset (Cartan implicit) of a type A system."""
    from . import fk, shadow
    if rs.series != "A":
        raise UnsupportedTypeError("census runs over the special-linear family only")
    if rs.rank > CENSUS_MAX_RANK:
        raise InputError(f"census rank bound is {CENSUS_MAX_RANK}")

    # each coordinate permutation (a Weyl group element) as a map of root indices
    perms = [
        [rs.root_index(tuple(r[j] for j in p)) for r in rs.all_roots]
        for p in itertools.permutations(range(rs.ambient_dim))
    ] if dedup else []
    subsets = sorted((tuple(rootsys.bits(m)) for m in shadow.closed_masks(rs)), key=lambda t: (len(t), t))
    for idx in subsets:
        # a row per orbit: the subset whose sorted indices come first
        if any(tuple(sorted(p[i] for i in idx)) < idx for p in perms):
            continue
        sub = shadow.RootSubalgebra.from_indices(rs, idx)
        k = fk.reductive_mask(sub)
        verdict = fk.theorem8_finite_type(rs, sub)
        yield {
            "subalgebra": list(idx),
            "levi": {"k_roots": rootsys.bits(k), "n_roots": rootsys.bits(sub.mask & ~k)},
            "finite_type": verdict.finite_type,
            "witness": verdict.witness.to_json() if verdict.witness else None,
        }


# ---------------------------------------------------------------------------
# the command table


class Param(NamedTuple):
    """A command parameter: its request key, the parser of its value, its
    default (REQUIRED: none) and, for an integer, the largest value allowed."""

    key: str
    parse: Callable
    default: object = None
    bound: Optional[int] = None


REQUIRED = object()
SYSTEM = (Param("series", _string, REQUIRED), Param("rank", _integer, REQUIRED))
SUBALGEBRA = Param("subalgebra", _indices, ())

COMMANDS: dict[str, tuple[Callable[..., dict], tuple[Param, ...]]] = {
    "root-system": (rootsys.RootSystem.to_json, SYSTEM),
    "exponents": (_cmd_exponents, SYSTEM),
    "shadow": (_cmd_shadow, SYSTEM + (SUBALGEBRA,)),
    "fk-test": (_cmd_fk_test, SYSTEM + (SUBALGEBRA,)),
    "solvable-test": (_cmd_solvable_test, SYSTEM + (SUBALGEBRA,)),
    "primal-test": (_cmd_primal_test, SYSTEM + (Param("k_roots", _indices, ()), Param("toral", _weights))),
    "mathieu": (
        _cmd_mathieu,
        (Param("x", _weight, REQUIRED), Param("eta", _weight), Param("equiv", _weight)),
    ),
    "ktype-series": (
        _cmd_ktype_series,
        SYSTEM + (Param("lambda", _weight, REQUIRED), Param("max_m", _integer, 10, MAX_M)),
    ),
    "census": (_cmd_census, SYSTEM + (Param("dedup", _boolean, False),)),
}


def _value(param: Param, params: dict):
    if param.key not in params:
        if param.default is REQUIRED:
            raise InputError(f"missing parameter {param.key}")
        return param.default
    try:
        value = param.parse(params[param.key])
    except InputError as e:
        raise InputError(f"{param.key}: {e}") from None
    if param.bound is not None and value > param.bound:
        raise InputError(f"{param.key} {value} exceeds the bound {param.bound}")
    return value


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
    except (InputError, RegularIntegralCase) as e:
        return _error(str(e), EXIT_INPUT)


def _emit(doc: dict, out: TextIO) -> None:
    json.dump(doc, out, sort_keys=True, separators=(",", ":"))
    out.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
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

    args = vars(parser.parse_args(argv))
    output, command = args.pop("output"), args.pop("command")
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


if __name__ == "__main__":
    raise SystemExit(main())
