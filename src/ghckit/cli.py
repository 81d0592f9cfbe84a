"""Command-line front end with JSON output and deterministic exit codes.

Exit contract: 0 success, 2 input error (including malformed requests),
3 unsupported type.  All output is JSON with sorted keys, so identical
requests produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterator, Optional, TextIO

from . import fk, mathieu, principal, rootsys, shadow
from .errors import InputError, RegularIntegralCase, UnsupportedTypeError
from .exact import format_rational, parse_vector

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3

CENSUS_MAX_RANK = 4


def _parse_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as e:
        raise InputError(f"bad index list {text!r}") from e


def _parse_weight(text: str):
    return parse_vector(text.split(","))


def _weight_param(value, name: str):
    """A weight given as a comma-separated string or a JSON list."""
    if isinstance(value, str):
        return _parse_weight(value)
    if isinstance(value, list):
        return parse_vector(value)
    raise InputError(f"{name} must be a comma-separated string or a list, got {value!r}")


def _parse_vectors(text: str):
    return [_parse_weight(part) for part in text.split(";") if part.strip()]


def _build(params: dict) -> rootsys.RootSystem:
    try:
        series = str(params["series"])
        rank = int(params["rank"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"missing or malformed series/rank: {e}") from e
    return rootsys.build(series, rank)


# ---------------------------------------------------------------------------
# command handlers: each takes a parameters dict and returns a JSON document


def _cmd_root_system(params: dict) -> dict:
    return _build(params).to_json()


def _cmd_exponents(params: dict) -> dict:
    rs = _build(params)
    return {"series": rs.series, "rank": rs.rank, "exponents": principal.exponents(rs)}


def _subalgebra(rs, params: dict) -> shadow.RootSubalgebra:
    idx = params.get("subalgebra", [])
    if isinstance(idx, str):
        idx = _parse_indices(idx)
    return shadow.RootSubalgebra.from_indices(rs, idx)


def _cmd_shadow(params: dict) -> dict:
    rs = _build(params)
    sub = _subalgebra(rs, params)
    sd = shadow.shadow(rs, sub)
    doc = sd.to_json()
    doc["p_M"] = sorted(rs.root_index(a) for a in shadow.parabolic_pm(sd))
    doc["fernando_fk"] = sorted(rs.root_index(a) for a in shadow.fernando_fk(sd))
    return doc


def _cmd_fk_test(params: dict) -> dict:
    rs = _build(params)
    sub = _subalgebra(rs, params)
    verdict = fk.theorem8_finite_type(rs, sub)
    doc = verdict.to_json()
    doc["singular_weights_g_mod_l"] = sorted(
        rs.root_index(a) for a in verdict.singular_g_mod_l.singular_weights
    )
    doc["singular_weights_n"] = sorted(
        rs.root_index(a) for a in verdict.singular_n.singular_weights
    )
    return doc


def _cmd_solvable_test(params: dict) -> dict:
    rs = _build(params)
    sub = _subalgebra(rs, params)
    return {"finite_type": fk.theorem6_solvable_finite_type(rs, sub)}


def _cmd_primal_test(params: dict) -> dict:
    rs = _build(params)
    idx = params.get("k_roots", [])
    if isinstance(idx, str):
        idx = _parse_indices(idx)
    k_roots = frozenset(rs.roots_from_indices(idx))
    toral = params.get("toral")
    if toral is None:
        toral_vectors = list(rs.simple_roots)  # the full Cartan of g
    elif isinstance(toral, str):
        toral_vectors = _parse_vectors(toral)
    else:
        toral_vectors = [parse_vector(v) for v in toral]
    return {"primal": fk.is_primal(rs, k_roots, toral_vectors)}


def _cmd_mathieu(params: dict) -> dict:
    x = params.get("x")
    if x is None:
        raise InputError("missing weight x")
    xs = _weight_param(x, "x")
    doc: dict = {"bounded": mathieu.sp_bounded(xs)}
    if doc["bounded"]:
        desc = mathieu.CoherentFamilyDescriptor.from_weight(xs)
        doc.update(desc.to_json())
    else:
        doc["class_rep"] = [format_rational(c) for c in xs]
    eta = params.get("eta")
    if eta is not None:
        es = _weight_param(eta, "eta")
        doc["fiber_irreducible"] = mathieu.sp_fiber_irreducible(es)
    other = params.get("equiv")
    if other is not None:
        ys = _weight_param(other, "equiv")
        doc["equivalent"] = mathieu.sp_equivalent(xs, ys)
    return doc


def _cmd_ktype_series(params: dict) -> dict:
    rs = _build(params)
    lam_raw = params.get("lambda")
    if lam_raw is None:
        raise InputError("missing lambda")
    lam = _weight_param(lam_raw, "lambda")
    if len(lam) != rs.ambient_dim:
        raise InputError("lambda dimension does not match the ambient space")
    if rootsys.is_integral(rs, lam):
        raise InputError("lambda must be non-integral")
    try:
        max_m = int(params.get("max_m", 10))
    except (TypeError, ValueError) as e:
        raise InputError(f"max_m must be an integer: {e}") from e
    pd = principal.PrincipalData.build(rs)
    series = principal.ktype_series(pd, lam, max_m)
    doc = series.to_json()
    lh = pd.lambda_h(lam)
    if lh - 2 >= 0 and (lh - 2).denominator == 1:
        doc["minimal_ktype"] = principal.minimal_ktype(pd, lam)
    else:
        doc["minimal_ktype"] = None
    return doc


def census_rows(rs: rootsys.RootSystem, dedup: bool = False) -> Iterator[dict]:
    """Classify every closed root subset (Cartan implicit) of a type A system."""
    if rs.series != "A":
        raise UnsupportedTypeError("census runs over the special-linear family only")
    if rs.rank > CENSUS_MAX_RANK:
        raise InputError(f"census rank bound is {CENSUS_MAX_RANK}")

    perms = list(itertools.permutations(range(rs.ambient_dim))) if dedup else []

    def orbit_rep(indices: tuple[int, ...]) -> tuple[int, ...]:
        best = indices
        roots = [rs.all_roots[i] for i in indices]
        for p in perms:
            mapped = tuple(sorted(rs.root_index(tuple(r[p[j]] for j in range(len(p)))) for r in roots))
            if mapped < best:
                best = mapped
        return best

    subsets = sorted(
        (tuple(sorted(rs.root_index(a) for a in s)) for s in shadow.closed_subsets(rs)),
        key=lambda t: (len(t), t),
    )
    for idx in subsets:
        if dedup and orbit_rep(idx) != idx:
            continue
        sub = shadow.RootSubalgebra.from_indices(rs, idx)
        ld = fk.levi_decompose(sub)
        verdict = fk.theorem8_finite_type(rs, sub)
        yield {
            "subalgebra": list(idx),
            "levi": {
                "k_roots": sorted(rs.root_index(a) for a in ld.k_roots),
                "n_roots": sorted(rs.root_index(a) for a in ld.n_roots),
            },
            "finite_type": verdict.finite_type,
            "witness": verdict.witness.to_json() if verdict.witness else None,
        }


HANDLERS = {
    "root-system": _cmd_root_system,
    "exponents": _cmd_exponents,
    "shadow": _cmd_shadow,
    "fk-test": _cmd_fk_test,
    "solvable-test": _cmd_solvable_test,
    "primal-test": _cmd_primal_test,
    "mathieu": _cmd_mathieu,
    "ktype-series": _cmd_ktype_series,
}


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
        if command == "census":
            rs = _build(params)
            rows = list(census_rows(rs, bool(params.get("dedup", False))))
            return {"rows": rows}, EXIT_OK
        handler = HANDLERS.get(command)
        if handler is None:
            raise InputError(f"unknown command {command!r}")
        return handler(params), EXIT_OK
    except UnsupportedTypeError as e:
        return {"error": str(e), "code": EXIT_UNSUPPORTED}, EXIT_UNSUPPORTED
    except (InputError, RegularIntegralCase) as e:
        return {"error": str(e), "code": EXIT_INPUT}, EXIT_INPUT


def _emit(doc: dict, out: TextIO) -> None:
    json.dump(doc, out, sort_keys=True, separators=(",", ":"))
    out.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ghckit")
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        for f in flags:
            if f == "series":
                p.add_argument("--series", required=True)
            elif f == "rank":
                p.add_argument("--rank", required=True, type=int)
            elif f == "subalgebra":
                p.add_argument("--subalgebra", default="")
            elif f == "lambda":
                p.add_argument("--lambda", dest="lam", required=True)
            elif f == "max-m":
                p.add_argument("--max-m", dest="max_m", type=int, default=10)
        return p

    add("root-system", "series", "rank")
    add("exponents", "series", "rank")
    add("shadow", "series", "rank", "subalgebra")
    add("fk-test", "series", "rank", "subalgebra")
    add("solvable-test", "series", "rank", "subalgebra")
    p = add("primal-test", "series", "rank")
    p.add_argument("--k-roots", dest="k_roots", default="")
    p.add_argument("--toral", default=None)
    p = add("mathieu")
    p.add_argument("--x", required=True)
    p.add_argument("--eta", default=None)
    p.add_argument("--equiv", default=None)
    add("ktype-series", "series", "rank", "lambda", "max-m")
    p = add("census", "series", "rank")
    p.add_argument("--dedup", action="store_true")
    p = sub.add_parser("request", help="read a JSON command request from a file or stdin")
    p.add_argument("file", nargs="?", default="-")

    args = parser.parse_args(argv)

    if args.command == "request":
        try:
            raw = sys.stdin.read() if args.file == "-" else open(args.file).read()
            request = json.loads(raw)
        except (OSError, json.JSONDecodeError) as e:
            _emit({"error": f"malformed request: {e}", "code": EXIT_INPUT}, sys.stderr)
            return EXIT_INPUT
    else:
        params = {}
        for key in ("series", "rank", "subalgebra", "k_roots", "toral", "x", "eta", "equiv", "max_m"):
            if hasattr(args, key) and getattr(args, key) is not None:
                params[key] = getattr(args, key)
        if hasattr(args, "lam"):
            params["lambda"] = args.lam
        if getattr(args, "dedup", False):
            params["dedup"] = True
        request = {"command": args.command, "parameters": params}

    doc, code = run(request)
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w")
    try:
        if code == EXIT_OK:
            _emit(doc, out)
        else:
            _emit(doc, sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
