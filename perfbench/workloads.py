"""The four workloads: seeded inputs, the timed op, the answer that goes into
the digest, and the checks that run after each op, outside the timed region.

Every workload hands ghckit only inputs generated here from the seed, and
calls only public ghckit names.  Each op set has a fixed composition (the
seed picks the members, never the mix), so runs at different seeds do
comparable work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from ghckit import cli, fk, mathieu, principal, rootsys, shadow
from ghckit.exact import format_vector

HERE = os.path.dirname(os.path.abspath(__file__))
TRACEBACK = "Traceback (most recent call last)"

# every simple type the CLI accepts by default (rank <= 8)
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(2, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)
RANK2_TYPES = [t for t in ALL_TYPES if t[1] >= 2]  # the 33 types with principal data


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def sha(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# root-subset helpers, written here so the checks do not lean on the code
# they check


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


def closure(rs, roots) -> frozenset:
    out, queue = set(roots), list(roots)
    while queue:
        a = queue.pop()
        for b in list(out):
            s = _add(a, b)
            if rs.is_root(s) and s not in out:
                out.add(s)
                queue.append(s)
    return frozenset(out)


def is_closed(rs, roots) -> bool:
    return all(not rs.is_root(_add(a, b)) or _add(a, b) in roots for a in roots for b in roots)


def indices(rs, roots) -> list[int]:
    return sorted(rs.root_index(a) for a in roots)


def random_closures(rs, rng, count, pool=None, max_roots=6, min_roots=1) -> list[list[int]]:
    """``count`` distinct closures of k random roots from ``pool``, with k
    cycling through min_roots..max_roots so that every seed draws the same mix."""
    pool = list(rs.all_roots) if pool is None else pool
    seen, out = set(), []
    for _ in range(100 * count):
        if len(out) == count:
            break
        k = min(min_roots + len(out) % (max_roots - min_roots + 1), len(pool))
        c = tuple(indices(rs, closure(rs, rng.sample(pool, k))))
        if c not in seen:
            seen.add(c)
            out.append(list(c))
    return out


class Workload:
    """One closed-loop client.  Each pass runs ``steps`` (timed work that is
    not an op, such as an enumeration) and then every op of the set that
    ``prepare`` made after the first pass's steps."""

    name = ""
    types: list = []  # every type the inputs name; built during set-up
    passes = 3  # passes of an untraced run; an op's time is its median over them
    window_s = 0.1  # wall time between reference samples (see speed.py)

    def steps(self, timed):
        """Run the pass's timed steps through ``timed(name, fn, *args)``,
        which consumes the iterator fn(*args) and returns its items; return a
        record of what they produced (it must repeat every pass)."""
        return None

    def prepare(self, rng, scale) -> list:
        """The op set; ``scale`` is --seconds over the nominal 15."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def answer(self, op, raw):
        raise NotImplementedError

    def check(self, op, raw) -> tuple[str | None, list[str]]:
        """(failure, problems): a failure is an op that did not complete as
        its contract says; a problem is a completed op with a wrong answer."""
        raise NotImplementedError

    def kind(self, op) -> str:
        return self.name


# ---------------------------------------------------------------------------
# census: type-A finite-type classification, LP-heavy


class Census(Workload):
    name = "census"
    # closures of 2..6 random roots at scale 1, besides all of A3 and every single root of A4 and A5
    # (among the costliest ops; taking all of them keeps the tail of op times alike from seed to seed)
    CLOSURES = {("A", 4): 150, ("A", 5): 250}
    types = [("A", 3), *CLOSURES]

    def steps(self, timed):
        a3 = rootsys.build("A", 3)
        self.a3 = sorted(indices(a3, s) for s in timed("enumerate A3", shadow.closed_subsets, a3))
        return {"A3": [len(self.a3), sha(self.a3)]}

    def prepare(self, rng, scale):
        ops = [["A", 3, s] for s in self.a3]
        for (series, rank), count in self.CLOSURES.items():
            rs = rootsys.build(series, rank)
            ops += [[series, rank, [i]] for i in range(len(rs.all_roots))]
            ops += [[series, rank, s] for s in random_closures(rs, rng, max(1, round(count * scale)), min_roots=2)]
        return ops

    def run(self, op):
        series, rank, idx = op
        rs = rootsys.build(series, rank)
        sub = shadow.RootSubalgebra.from_indices(rs, idx)
        return sub, fk.levi_decompose(sub), fk.theorem8_finite_type(rs, sub)

    def answer(self, op, raw):
        sub, ld, verdict = raw
        rs = sub.rs
        return {
            "type": f"{op[0]}{op[1]}",
            "subalgebra": op[2],
            "levi": {"k_roots": indices(rs, ld.k_roots), "n_roots": indices(rs, ld.n_roots)},
            **verdict.to_json(),
        }

    def check(self, op, raw):
        sub, ld, verdict = raw
        rs = sub.rs
        problems = []
        if verdict.finite_type == (verdict.witness is not None):
            problems.append("verdict and witness disagree")
        if verdict.witness is not None and not verdict.witness.verify(
            sorted(verdict.singular_g_mod_l.singular_weights), sorted(verdict.singular_n.singular_weights)
        ):
            problems.append("cone witness does not verify")
        if not ld.k_roots and fk.theorem6_solvable_finite_type(rs, sub) != verdict.finite_type:
            problems.append("Theorem 6 and Theorem 8 disagree")
        if not ld.n_roots and not verdict.finite_type:
            problems.append("reductive subalgebra reported as not finite type")
        return None, [f"{op}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# shadow: shadow decompositions outside type A, many small cone_member LPs


class Shadow(Workload):
    name = "shadow"
    ENUMERATED = {("G", 2): 40, ("C", 3): 95, ("B", 3): 95}  # sampled, at scale 1
    # F4 ops are the costliest and the most unlike each other (10-80 ms): there are few enough of
    # them that op_p95_ms falls among the many D4 ops of 12-15 ms, where it swings less with the seed
    CLOSURES = {("D", 4): 60, ("F", 4): 8, ("A", 4): 40}
    types = [*ENUMERATED, *CLOSURES]

    def steps(self, timed):
        self.enumerated = {}
        for series, rank in self.ENUMERATED:
            rs = rootsys.build(series, rank)
            found = timed(f"enumerate {series}{rank}", shadow.closed_subsets, rs)
            self.enumerated[series, rank] = sorted(indices(rs, s) for s in found)
        return {f"{s}{n}": [len(v), sha(v)] for (s, n), v in self.enumerated.items()}

    def prepare(self, rng, scale):
        ops = []
        for (series, rank), count in self.ENUMERATED.items():
            ops += [[series, rank, s] for s in rng.sample(self.enumerated[series, rank], max(1, round(count * scale)))]
        for (series, rank), count in self.CLOSURES.items():
            rs = rootsys.build(series, rank)
            ops += [[series, rank, s] for s in random_closures(rs, rng, max(1, round(count * scale)))]
        return ops

    def run(self, op):
        series, rank, idx = op
        rs = rootsys.build(series, rank)
        sub = shadow.RootSubalgebra.from_indices(rs, idx)
        sd = shadow.shadow(rs, sub)
        return sub, sd, shadow.parabolic_pm(sd), shadow.fernando_fk(sd)

    def answer(self, op, raw):
        sub, sd, pm, ffk = raw
        return {
            "type": f"{op[0]}{op[1]}",
            "subalgebra": op[2],
            "p_M": indices(sub.rs, pm),
            "fernando_fk": indices(sub.rs, ffk),
            **sd.to_json(),
        }

    def check(self, op, raw):
        sub, sd, pm, ffk = raw
        rs = sub.rs
        full = frozenset(rs.all_roots)
        parts = [sd.I, sd.F, sd.plus, sd.minus]
        problems = []
        if sum(map(len, parts)) != len(full) or frozenset().union(*parts) != full:
            problems.append("I/F/plus/minus do not partition the roots")
        if not is_closed(rs, pm):
            problems.append("p_M is not closed")
        if pm | {_neg(a) for a in pm} != full:
            problems.append("p_M and -p_M do not cover the roots")
        if sub.roots | {_neg(a) for a in sub.roots} == full and ffk != sub.roots:
            problems.append("Fernando-Kac round trip fails on a parabolic-type input")
        return None, [f"{op}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# spectra: principal k-type series and sp(2n) degrees; no LPs, no root subsets

SP4_FIXTURES = {("3/2", "1/2"): 5, ("3/2", "-1/2"): 6, ("5/2", "1/2"): 9}


def bounded_sp_weight(rng, n) -> list[str]:
    """A weight passing the sp(2n) bounded-multiplicity test: entries in
    Z + 1/2, strictly decreasing, the second last above |last|."""
    last = Fraction(2 * rng.randint(0, 2) + 1, 2) * rng.choice((1, -1))
    xs, top = [last], abs(last)
    for _ in range(n - 1):
        top += rng.randint(1, 3)
        xs.append(top)
    return [str(x) for x in reversed(xs)]


def partitions(multiset, target) -> int:
    """Ways to write target as a sum of parts, part p available in mult[p]
    colours: the coefficient the multiplicity formula reads off."""
    if target < 0 or Fraction(target).denominator != 1:
        return 0
    t = int(target)
    ways = [1] + [0] * t
    for part, mult in multiset.items():
        for _ in range(mult):
            for i in range(part, t + 1):
                ways[i] += ways[i - part]
    return ways[t]


def sp_degree_oracle(xs) -> Fraction:
    """Weyl product for D_n at x + (1,...,1), divided by 2^(n-1)."""
    n = len(xs)
    lam_rho = [Fraction(x) + 1 + (n - 1 - i) for i, x in enumerate(xs)]
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            rho_i, rho_j = n - 1 - i, n - 1 - j
            dim *= Fraction(lam_rho[i] - lam_rho[j], rho_i - rho_j)
            dim *= Fraction(lam_rho[i] + lam_rho[j], rho_i + rho_j)
    return dim / 2 ** (n - 1)


class Spectra(Workload):
    name = "spectra"
    KTYPE_PER_TYPE = 8  # at scale 1, for each of the 33 types of rank >= 2
    MATHIEU_PER_RANK = 16  # at scale 1, for each n = 2..8, plus the sp(4) fixtures
    types = RANK2_TYPES  # includes D2..D8, the companions of sp(2n)

    def prepare(self, rng, scale):
        ops = []
        count = max(1, round(self.KTYPE_PER_TYPE * scale))
        for series, rank in RANK2_TYPES:
            for j in range(count):
                # one max_m from each of `count` equal bands of 40..120, so the
                # cost of a type's ops does not hang on the seed
                max_m = 40 + int(80 * (j + rng.random()) / count)
                ops.append(["ktype", series, rank, rng.randint(2, 12), max_m, sorted(rng.sample(range(max_m + 1), 3))])
        for n in range(2, 9):
            ops += [["mathieu", bounded_sp_weight(rng, n)] for _ in range(max(1, round(self.MATHIEU_PER_RANK * scale)))]
        return ops + [["mathieu", list(x)] for x in SP4_FIXTURES]

    def kind(self, op):
        return op[0]

    def run(self, op):
        if op[0] == "ktype":
            _, series, rank, target, max_m, _ = op
            pd = principal.PrincipalData.build(rootsys.build(series, rank))
            lam = principal.find_nonintegral_weight(pd, target)
            return pd, lam, principal.ktype_series(pd, lam, max_m)
        desc = mathieu.CoherentFamilyDescriptor.from_weight([Fraction(c) for c in op[1]])
        doc = desc.to_json()
        return desc, doc, mathieu.CoherentFamilyDescriptor.from_json(json.loads(json.dumps(doc)))

    def answer(self, op, raw):
        if op[0] == "ktype":
            _, lam, series = raw
            return {"type": f"{op[1]}{op[2]}", "lambda": format_vector(lam), **series.to_json()}
        return raw[1]

    def check(self, op, raw):
        problems = []
        if op[0] == "ktype":
            _, _, _, target, _, sampled = op
            pd, lam, series = raw
            bottom = target - 2
            if series.lambda_h != target:
                problems.append("lambda(h) differs from the requested value")
            if any(series.entries[m] != 0 for m in range(bottom)) or series.entries[bottom] != 1:
                problems.append("multiplicity is not 0 below lambda(h)-2 and 1 at it")
            kperp = Counter(2 * pd.rs.height(a) for a in pd.rs.positive_roots)
            kperp[2] -= 1  # the sl(2) raising vector
            for m in sampled:
                if series.entries[m] != -principal.euler_rhs(pd, m, lam):
                    problems.append(f"multiplicity at m={m} differs from minus the Euler sum")
                if series.entries[m] != partitions(kperp, m - target + 2) - partitions(kperp, -m - target):
                    problems.append(f"multiplicity at m={m} differs from a direct partition count")
        else:
            desc, doc, back = raw
            if (back.degree, back.representative, back.to_json()) != (desc.degree, desc.representative, doc):
                problems.append("to_json/from_json round trip changed the descriptor")
            if desc.degree != sp_degree_oracle(op[1]):
                problems.append("degree differs from the D_n Weyl product")
            if tuple(op[1]) in SP4_FIXTURES and desc.degree != SP4_FIXTURES[tuple(op[1])]:
                problems.append("sp(4) fixture degree changed")
        return None, [f"{op}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# cli: one `ghckit request` subprocess per document


def _doc(kind, expect, command=None, text=None, **params):
    if text is None:
        text = json.dumps({"command": command, "parameters": params})
    return {"kind": kind, "expect": expect, "text": text}


def _csv(rng, items):
    """Half the documents pass lists, half the comma-separated string form."""
    items = [str(x) for x in items]
    return ",".join(items) if rng.random() < 0.5 else items


def stratified_types(rng, types, count) -> list:
    """``count`` types, one from each band of ``types`` ordered by size
    (roots x rank): the two largest types are bands of their own, the others
    are split evenly.  Every seed then draws the same mix of cheap and costly
    types.  The two costliest constructions (E8 and C8 among all types) are
    always in, so op_p95_ms of the cli workload, which falls among their
    documents, does not swing with the seed."""
    by_size = sorted(types, key=lambda t: (len(rootsys.build(*t).all_roots) * t[1], t))
    rest = by_size[:-2]
    bands = [rest[len(rest) * j // (count - 2):len(rest) * (j + 1) // (count - 2)] for j in range(count - 2)]
    return [rng.choice(band) for band in bands] + by_size[-2:]


def cli_pool(rng, per_command=9) -> list[dict]:
    """Request documents: ``per_command`` valid ones for each of the nine
    commands, 8 malformed or unsupported ones with a contract exit code, and
    the four probes that break the 0/2/3 contract at the time the benchmark
    was written."""
    build = rootsys.build
    small = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)]
    docs = []
    for type_rs, type_ex, type_kt in zip(*(stratified_types(rng, types, per_command)
                                          for types in (ALL_TYPES, ALL_TYPES, RANK2_TYPES))):
        s, n = type_rs
        docs.append(_doc("root-system", 0, "root-system", series=s, rank=n))
        s, n = type_ex
        docs.append(_doc("exponents", 0, "exponents", series=s, rank=n))
        s, n = rng.choice(small)
        rs = build(s, n)
        sub = random_closures(rs, rng, 1, max_roots=3)[0]
        docs.append(_doc("shadow", 0, "shadow", series=s, rank=n, subalgebra=_csv(rng, sub)))
        n = rng.randint(2, 5)
        sub = random_closures(build("A", n), rng, 1, max_roots=4)[0]
        docs.append(_doc("fk-test", 0, "fk-test", series="A", rank=n, subalgebra=_csv(rng, sub)))
        s, n = rng.choice(small)
        rs = build(s, n)
        sub = random_closures(rs, rng, 1, pool=list(rs.positive_roots), max_roots=3)[0]
        docs.append(_doc("solvable-test", 0, "solvable-test", series=s, rank=n, subalgebra=_csv(rng, sub)))
        s, n = rng.choice(small + [("A", 6), ("B", 4), ("C", 4)])
        rs = build(s, n)
        pairs = [a for r in rng.sample(rs.positive_roots, rng.randint(1, 2)) for a in (r, _neg(r))]
        params = {"k_roots": _csv(rng, indices(rs, closure(rs, pairs)))}
        if rng.random() < 0.5:
            params["toral"] = ";".join(",".join(format_vector(a)) for a in rs.simple_roots)
        docs.append(_doc("primal-test", 0, "primal-test", series=s, rank=n, **params))
        n = rng.randint(2, 5)
        if rng.random() < 0.7:
            x = bounded_sp_weight(rng, n)
            y = x[:-1] + [str(-Fraction(x[-1]))]
            params = {"x": _csv(rng, x), "equiv": _csv(rng, y if rng.random() < 0.5 else bounded_sp_weight(rng, n))}
        else:
            params = {"x": _csv(rng, [rng.randint(-3, 3) for _ in range(n)])}
        params["eta"] = _csv(rng, [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)])
        docs.append(_doc("mathieu", 0, "mathieu", **params))
        s, n = type_kt
        pd = principal.PrincipalData.build(build(s, n))
        lam = format_vector(principal.find_nonintegral_weight(pd, rng.randint(2, 12)))
        docs.append(_doc("ktype-series", 0, "ktype-series", series=s, rank=n, max_m=rng.randint(10, 40),
                         **{"lambda": _csv(rng, lam)}))
        docs.append(_doc("census", 0, "census", series="A", rank=rng.randint(1, 2), dedup=rng.random() < 0.5))

    s, n = rng.choice(small)
    rs = build(s, n)
    a, b = next((a, b) for a in rs.all_roots for b in rs.all_roots if rs.is_root(_add(a, b)))
    s2, n2 = rng.choice([("B", 3), ("C", 2), ("G", 2), ("D", 4)])
    docs += [
        _doc("unsupported:fk-test", 3, "fk-test", series=s2, rank=n2),
        _doc("unsupported:census", 3, "census", series=s2, rank=n2),
        _doc("bad:unknown-command", 2, "frobnicate", series="A", rank=2),
        _doc("bad:type", 2, "exponents", series="E", rank=rng.choice((4, 5, 9))),
        _doc("bad:rank-bound", 2, "root-system", series=rng.choice("ABCD"), rank=9),
        _doc("bad:not-closed", 2, "shadow", series=s, rank=n, subalgebra=indices(rs, [a, b])),
        _doc("bad:integral-lambda", 2, "ktype-series", series="A", rank=2, **{"lambda": "0,0,0"}),
        _doc("bad:json", 2, text='{"command": "exponents", "parameters": {'),
        # malformed inputs that should exit 2 without a traceback, but raise
        _doc("probe:max_m-string", 2, "ktype-series", series="A", rank=2, max_m="abc", **{"lambda": "4/3,0,-4/3"}),
        _doc("probe:subalgebra-string", 2, "shadow", series="A", rank=2, subalgebra=["x"]),
        _doc("probe:lambda-number", 2, "ktype-series", series="A", rank=2, **{"lambda": 5}),
        _doc("probe:toral-dimension", 2, "primal-test", series="A", rank=2, toral=[["1", "0"]]),
    ]
    return docs


class Cli(Workload):
    name = "cli"
    types = ALL_TYPES
    passes = 2
    window_s = 0.0  # a reference sample around every child

    def __init__(self, env, spans_path=None, tracer=None):
        """``tracer`` set: children start through the tracing launcher and
        their spans are merged into it, one op id per child."""
        self.env = env
        self.tracer = tracer
        self.spans_path = spans_path
        self.refs: dict = {}
        self.startup_s = 0.0
        self.exit_other = 0

    def prepare(self, rng, scale):
        return cli_pool(rng, max(3, round(9 * scale)))

    def kind(self, op):
        return op["kind"]

    def run(self, op):
        env = self.env
        if self.tracer is None:
            argv = [sys.executable, "-m", "ghckit", "request"]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), "request"]
            env = dict(env, PERFBENCH_SPANS=self.spans_path, PERFBENCH_T0=repr(time.monotonic()))
        proc = subprocess.run(argv, input=op["text"], capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode not in (0, 2, 3):
            self.exit_other += 1
        if self.tracer is not None:
            with open(self.spans_path) as f:
                child = json.load(f)
            os.remove(self.spans_path)
            self.startup_s += child["startup_s"]
            base = len(self.tracer.spans)
            for s in child["spans"]:
                s[3] = s[3] + base if s[3] >= 0 else -1
                s[4] = self.tracer.op
                self.tracer.spans.append(s)
        return proc.returncode, proc.stdout, proc.stderr

    def answer(self, op, raw):
        code, out, err = raw
        return {"kind": op["kind"], "exit": code, "stdout": out, "stderr": "traceback" if TRACEBACK in err else err}

    def reference(self, text):
        """(exit code, stdout, stderr) of the same request through cli.main in
        this process; None when the request raised."""
        if text not in self.refs:
            out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["request", "-"])
                self.refs[text] = (code, out.getvalue(), err.getvalue())
            except Exception:  # the probes raise; the subprocess already failed
                self.refs[text] = None
            finally:
                sys.stdin = stdin
        return self.refs[text]

    def check(self, op, raw):
        code, out, err = raw
        if TRACEBACK in err or code != op["expect"]:
            tb = " with a traceback" if TRACEBACK in err else ""
            return f"{op['kind']}: exit {code}{tb}, expected {op['expect']}", []
        problems = []
        stream = out if code == 0 else err
        if stream.count("\n") != 1 or not stream.endswith("\n"):
            problems.append("output is not exactly one line")
        else:
            try:
                if canonical(json.loads(stream)) + "\n" != stream:
                    problems.append("output is not sorted-key compact JSON")
            except json.JSONDecodeError:
                problems.append("output is not JSON")
        if (code, out, err) != self.reference(op["text"]):
            problems.append("output differs from in-process cli.main")
        return None, [f"{op['kind']} {op['text']}: {p}" for p in problems]


def make(name, env=None, spans_path=None, tracer=None) -> Workload:
    if name == "cli":
        return Cli(env, spans_path, tracer)
    return {"census": Census, "shadow": Shadow, "spectra": Spectra}[name]()
