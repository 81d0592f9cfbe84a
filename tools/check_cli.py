"""ghckit's end-to-end checks, stdlib only: ``python tools/check_cli.py [GHCKIT...]``.

GHCKIT runs ghckit (``ghckit`` for the console script; by default this interpreter with ``-m ghckit``).  Each child
runs with the checkout's ``src``, ``tools`` and ``tests`` first on PYTHONPATH and fails its check after TIMEOUT
seconds, which catches an LP or a walk that never ends.  A request of ``EXIT_2`` exits 2, prints nothing on stdout
and writes its pattern (a line-anchored regex, as grep reads it) to stderr; one of ``PINS`` or ``DIGESTS`` exits 0
and prints its pin, or output of that SHA-256; each function of ``LIBRARY`` runs in a child of this interpreter.
Each workload of ``BENCH`` (census, shadow, spectra and cli) runs once through ``perfbench/run.py`` at seed 1 under
this interpreter, exits 0, calls every answer correct and gives its pinned answer digest.  Every check prints
``ok`` or ``FAIL``, and the script exits 1 if any failed.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds, per child

# (request, extra environment, stderr pattern); a request is its arguments or a JSON document for ``ghckit request``
EXIT_2 = [
    ("request a b", {}, "^usage: ghckit"),  # main() reads sys.argv: any argv but one request file is a usage error
    # a document holds only "command" and "parameters": a misspelled key is named, not ignored
    ('{"command":"census","parameters":{"series":"A","rank":2},"paramters":{"dedup":true}}', {}, "paramters"),
    # a toral part of B3 without the coroot of k = ±e3, and a toral vector of A2 outside its Cartan subalgebra
    ("primal-test --series B --rank 3 --k-roots 0,9 --toral 1,-1,0", {}, "coroots"),
    ("primal-test --series A --rank 2 --toral 1,1,1", {}, "span of the roots"),
    # "_" digit separators: Fraction reads them from Python 3.11 on only, int on every version
    ("mathieu --x 3_0/2,1/2", {}, "not a rational"),
    ("root-system --series A --rank 0_2", {}, "expected an integer"),
    # the k-type series' bound, and the rank cap read by the flags' integer rule
    ("ktype-series --series A --rank 2 --lambda 4/3,0,-4/3 --max-m 10001", {}, "exceeds the bound 10000"),
    ("exponents --series A --rank 9", {"GHC_MAX_RANK": "1_0"}, "GHC_MAX_RANK"),
]

T, F = '{"finite_type":true}', '{"finite_type":false}'
P, N = ",".join(map(str, range(24))), ",".join(map(str, range(24, 48)))  # root indices 0-23 and 24-47
# (request, stdout without its newline)
PINS = [
    ('{"command":"exponents","parameters":{"series":"F","rank":4}}', '{"exponents":[1,5,7,11],"rank":4,"series":"F"}'),
    # B3 with k = ±e3 (roots 0 and 9) is primal with the default toral part, the simple roots, and not with the
    # line of its own coroot; G2 with k the long roots ±(2,-1,-1) and the toral part all of h is primal
    ("primal-test --series B --rank 3 --k-roots 0,9", '{"primal":true}'),
    ("primal-test --series B --rank 3 --k-roots 0,9 --toral 0,0,1", '{"primal":false}'),
    ("primal-test --series G --rank 2 --k-roots 0,6 --toral 1,-1,0;0,1,-1", '{"primal":true}'),
    # the F4 Borel (F4's positive roots are 0-23), the D4 Cartan (D4 has 24 roots), and a B3 subalgebra with all
    # four classes, where p_M and fernando_fk join several
    ("shadow --series F --rank 4 --subalgebra " + P,
     f'{{"F":[],"I":[],"fernando_fk":[{P}],"gamma_generators":[{N}],"minus":[{N}],"p_M":[{P}],"plus":[{P}]}}'),
    ("shadow --series D --rank 4",
     f'{{"F":[],"I":[{P}],"fernando_fk":[],"gamma_generators":[{P}],"minus":[],"p_M":[{P}],"plus":[]}}'),
    ("shadow --series B --rank 3 --subalgebra 2,10,11,12,13,14,15,16,17",
     '{"F":[2,11],"I":[0,9],"fernando_fk":[2,10,11,12,13,14,15,16,17],"gamma_generators":[0,1,3,4,5,6,7,8,9],'
     '"minus":[1,3,4,5,6,7,8],"p_M":[0,2,9,10,11,12,13,14,15,16,17],"plus":[10,12,13,14,15,16,17]}'),
    # parabolic nilradicals: the positive roots with a positive coefficient on one dropped simple root (numbered
    # as in the simple_roots output), and the Levi factor; with no subalgebra, the Levi factor is the whole system
    ("solvable-test --series B --rank 4 --subalgebra 3,6,9,11,13,14,15", F),  # drop 1: B3
    ("solvable-test --series C --rank 4 --subalgebra 3,6,9,11,13,14,15", T),  # drop 1: C3
    ("solvable-test --series D --rank 5 --subalgebra 4,8,12,14,15,17,18,19", F),  # drop 1: D4
    ("solvable-test --series F --rank 4 --subalgebra 3,6,9,11,12,14,15,16,17,18,19,20,21,22,23", F),  # drop 4: B3
    ("solvable-test --series F --rank 4 --subalgebra 2,5,8,10,12,13,14,16,17,18,19,20,21,22,23", T),  # drop 1: C3
    ("solvable-test --series G --rank 2 --subalgebra 1,2,3,4,5", T),  # drop 1: A1
    ("solvable-test --series E --rank 6 --subalgebra 4,7,12,17,19,21,24,26,27,28,30,31,32,33,34,35", F),  # drop 1: D5
    ("solvable-test --series E --rank 8 --subalgebra 5,13,19,25,31,36,42,43,47,52,55,59,61,64,65,67,70,71,72,75,76,"
     "77,80,81,83,84,85,87,88,90,91,92,94,95,96,98,99,100,101,102,103,104,105,106,107,108,109,110,111,112,113,114,"
     "115,116,117,118,119", F),  # drop 8: E7
    ("solvable-test --series G --rank 2", F),
    ("solvable-test --series F --rank 4", F),
]

DIGESTS = [
    ("census --series A --rank 4", "3be1f4b106468866502fd4565628524f07dd6fc3945cb3a69e27ab72b6165337"),
    # E8, max_m = MAX_M and lambda(h) = -MAX_M: the largest partition table, to q^20002
    ("ktype-series --series E --rank 8 --lambda=0,-250/31,-500/31,-750/31,-1000/31,-1250/31,-1500/31,-5750/31 "
     "--max-m 10000", "f97c12da910b1ba16665d5c7e2dc8ae2c3356ceebd8f0208824dd3f020842aa3"),
]

# workload: detail.digest of ``perfbench/run.py --workload W --seed 1 --seconds 15``, the SHA-256 over every answer of
# the run in op order, so two commits give byte-identical answers when it matches
BENCH = {
    "census": "922b84081631684ee668d9a7b33b75f3ad5dbea42b05d83d65ebede7d2139a47",
    "shadow": "bd1c4f6ffa99d735cc61ed874130ad8976c204810d9a919a0a699f96b7dae606",
    "spectra": "270f4803cc7abe9dbe86a3d0847ddec2f7df8ac932505c25df04d32d41e2430e",
    "cli": "e21796e1d3b5280f0fb4b9dca0759852a5f8aafd8d787a1e21f2907a7dec81a2",
}


def child_env(env=None):
    paths = [str(ROOT / p) for p in ("src", "tools", "tests")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **(env or {})}


def run(command, stdin=None, env=None):
    return subprocess.run(command, input=stdin and stdin.encode(), capture_output=True, timeout=TIMEOUT,
                          env=child_env(env))


def ask(ghckit, request, env=None):
    """Run a request: its arguments, or a JSON document, which ``ghckit request`` reads on stdin."""
    if request.startswith("{"):
        return run([*ghckit, "request"], request, env)
    return run([*ghckit, *request.split()], env=env)


def exits_2(ghckit, request, env, pattern):
    p = ask(ghckit, request, env)
    assert p.returncode == 2 and not p.stdout and re.search(pattern.encode(), p.stderr, re.M), p


def pin(ghckit, request, want):
    p = ask(ghckit, request)
    assert p.returncode == 0 and p.stdout == f"{want}\n".encode(), p


def digest(ghckit, request, want):
    p = ask(ghckit, request)
    got = hashlib.sha256(p.stdout).hexdigest()
    assert p.returncode == 0 and got == want, (p.returncode, got, p.stderr[-600:])


def bench(workload, want):
    p = run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "15"])
    assert p.returncode == 0, p.stderr[-600:]
    *_, detail, result = p.stdout.splitlines()
    got, correct = json.loads(detail)["detail"]["digest"], json.loads(result)["correct"]
    assert correct is True and got == want, (correct, got, p.stderr[-600:])


def request_file(ghckit):
    """A request file prints the same bytes read without argparse and with it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "req.json")
        Path(path).write_text('{"command":"root-system","parameters":{"series":"B","rank":3}}')
        fast, parsed = run([*ghckit, "request", path]), run([*ghckit, "--output", "-", "request", path])
    assert fast.returncode == parsed.returncode == 0 and fast.stdout == parsed.stdout, (fast, parsed)


def readme_invocations():
    """Each line of the first ``sh`` block under README.md's "Command-line interface", without its "ghckit "."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert lines and all(line.startswith("ghckit ") for line in lines), lines
    return [line.removeprefix("ghckit ") for line in lines]


def readme(ghckit):
    """Each README invocation exits 0 and prints one line of JSON."""
    for request in readme_invocations():
        p = ask(ghckit, request)
        assert p.returncode == 0 and p.stdout.count(b"\n") == 1, p
        json.loads(p.stdout)


def closed_pipe(ghckit):
    """A reader that closes stdout after 100 bytes of the 1.5 MB A4 census makes ghckit itself exit 141 with nothing
    on stderr, buffered or not: with PYTHONUNBUFFERED=1 a raw write takes part of the document, and the rest must
    still be written, to meet the broken pipe."""
    for unbuffered in ("", "1"):
        with tempfile.TemporaryFile() as err:
            p = subprocess.Popen([*ghckit, "census", "--series", "A", "--rank", "4"], stdout=subprocess.PIPE,
                                 stderr=err, env=child_env({"PYTHONUNBUFFERED": unbuffered}))
            head = b""
            while len(head) < 100 and (chunk := os.read(p.stdout.fileno(), 100 - len(head))):
                head += chunk
            p.stdout.close()
            try:
                code = p.wait(timeout=TIMEOUT)
            finally:
                p.kill()
            err.seek(0)
            stderr = err.read()
        assert (len(head), code, stderr) == (100, 141, b""), (unbuffered, len(head), code, stderr[-600:])


def library(name, env):
    p = run([sys.executable, "-c", f"import check_cli; print(check_cli.{name}())"], env=env)
    assert p.returncode == 0, p.stderr.decode(errors="replace")[-1500:]
    return p.stdout.decode().strip()


def a5_closures():
    """Theorem 8 on 1,000 seeded closures of A5 against the LP loop on the Fraction singular weights, against the
    Fraction simplex, which shares no code with the integer tableau, and against its witness: the witness must
    verify, and its point, summed in integers over one denominator, must equal the a-side sum in Fractions."""
    from reference_simplex import outcome, reference_cones_intersect_trivially
    from ghckit import exact, fk, rootsys, shadow
    from ghckit.rootsys import bits

    rs = rootsys.build("A", 5)
    rng = random.Random(1)
    infinite = 0
    for _ in range(1000):
        mask = rs.index_mask(rng.sample(range(len(rs.all_roots)), rng.randint(2, 6)))
        mask = shadow._close(rs, mask, bits(mask))
        verdict = fk.theorem8_finite_type(rs, shadow.RootSubalgebra(rs, mask))
        gens = sorted(verdict.singular_g_mod_l.singular_weights), sorted(verdict.singular_n.singular_weights)
        trivial, witness = exact.cones_intersect_trivially(*gens)
        assert verdict.to_json() == {"finite_type": trivial, "witness": witness and witness.to_json()}, bits(mask)
        want = outcome(reference_cones_intersect_trivially(*gens))
        assert outcome((verdict.finite_type, verdict.witness)) == want, bits(mask)
        if not trivial:
            w = verdict.witness
            assert w.verify(*gens), bits(mask)
            point = [sum((c * g[j] for c, g in zip(w.coefficients_a, gens[0])), Fraction(0))
                     for j in range(rs.ambient_dim)]
            assert w.point == tuple(point), bits(mask)
        infinite += not trivial
    return f"1000 A5 closures, {infinite} of infinite type, as the LP loop and the Fraction simplex decide"


def rank4_shadows():
    """Shadow on every closed subset of D4, B4 and C4 against one cone_member LP per root outside the additive
    closure of Gamma, which shadow takes alone, binding no LP; and the SHA-256 of the B4 and C4 closed_masks order."""
    from ghckit import exact, rootsys, shadow
    from ghckit.rootsys import bits

    assert not hasattr(shadow, "cone_member")
    orders = {("B", 4): "b04bc0efdbae5140ef0ead411322f4a3d5cf61dc54c3d38af098e251f96abc66",
              ("C", 4): "2f155d32fd74eeab2e37c044260e75c24cff97345e212058417d67ce901fdb8a"}
    for series, rank, count in (("D", 4, 18291), ("B", 4, 126892), ("C", 4, 129284)):
        rs = rootsys.build(series, rank)
        doubled, full = rs.doubled_roots, rs.full_mask
        masks = list(shadow.closed_masks(rs))
        assert len(masks) == count, (series, rank, len(masks))
        if (series, rank) in orders:
            digest = hashlib.sha256(json.dumps([bits(m) for m in masks], separators=(",", ":")).encode()).hexdigest()
            assert digest == orders[series, rank], (series, rank, digest)
        for mask in masks:
            gamma_mask = full & ~mask
            gamma = [doubled[i] for i in bits(gamma_mask)]
            inside = shadow._close(rs, gamma_mask, bits(gamma_mask))
            inside |= rs.index_mask(i for i in bits(mask & ~inside) if exact.cone_member(doubled[i], gamma) is not None)
            neg = rs.negated(inside)
            sd = shadow.shadow(rs, shadow.RootSubalgebra(rs, mask))
            want = inside & neg, full & ~(inside | neg), neg & ~inside, inside & ~neg
            assert (sd.i_mask, sd.f_mask, sd.plus_mask, sd.minus_mask) == want, (series, rank, bits(mask))
    return "every closed subset of D4, B4 and C4 as the LP decides"


def rank32():
    """The classical series at the rank ceiling, where the Cartan inverse runs its longest elimination and coroot
    order differs most from root order: the build equals the reflection closure it replaced, field for field, its
    JSON, written from the integer rows, equals the Fraction views as format_vector writes them, and
    <w_i, a_j^vee> = delta_ij, V(0) = 1, V(w_1) standard, V(rho) = 2^|R+|."""
    from dataclasses import fields
    from reference_rootsys import reference_construct
    from ghckit import rootsys
    from ghckit.exact import format_vector

    for series, standard in zip("ABCD", (33, 65, 64, 64)):
        rs = rootsys.build(series, 32)
        want = reference_construct(series, 32)
        for f in fields(rs):
            assert getattr(rs, f.name) == getattr(want, f.name), (series, f.name)
        doc = rs.to_json()
        for key, view in (("roots", rs.all_roots), ("simple_roots", rs.simple_roots),
                          ("positive_roots", rs.positive_roots)):
            assert doc[key] == [format_vector(r) for r in view], (series, key)
        for i, w in enumerate(rs.fundamental_weights):
            assert [rs.pairing(w, a) for a in rs.simple_roots] == [int(j == i) for j in range(32)], (series, i)
        zero = (0,) * rs.ambient_dim
        assert rootsys.weyl_dim(rs, rs.rho()) == 2 ** len(rs.coroot_coords), series
        assert (rootsys.weyl_dim(rs, zero), rootsys.weyl_dim(rs, rs.fundamental_weights[0])) == (1, standard), series
    return ("A32, B32, C32 and D32: the reflection closure's tables, the Fraction views' JSON, "
            "<w_i, a_j^vee> = delta_ij, V(0) = 1, V(w_1) = 33, 65, 64, 64, V(rho) = 2^|R+|")


LIBRARY = [("a5_closures", {}), ("rank4_shadows", {}), ("rank32", {"GHC_MAX_RANK": "32"})]


def main(ghckit):
    if not __debug__:
        sys.exit("the checks are asserts: run without -O")
    tables = (exits_2, EXIT_2), (pin, PINS), (digest, DIGESTS)
    checks = [(f"{f.__name__} {row[0][:60]}", partial(f, ghckit, *row)) for f, table in tables for row in table]
    checks += [(f.__name__, partial(f, ghckit)) for f in (request_file, readme, closed_pipe)]
    checks += [(name, partial(library, name, env)) for name, env in LIBRARY]
    checks += [(f"bench {workload}", partial(bench, workload, want)) for workload, want in BENCH.items()]
    failed = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            detail = check()
        except (AssertionError, OSError, ValueError, subprocess.SubprocessError) as e:
            failed += 1
            print(f"FAIL {name}: {e}", flush=True)
        else:
            print(f"ok   {name} ({time.perf_counter() - start:.1f} s){': ' + detail if detail else ''}", flush=True)
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable, "-m", "ghckit"]))
