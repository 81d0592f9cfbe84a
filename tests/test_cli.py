import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import VIEWS
from ghckit import cli, fk, principal, rootsys, shadow
from ghckit.cli import EXIT_INPUT, EXIT_OK, EXIT_UNSUPPORTED, run
from ghckit.errors import InputError, UnsupportedTypeError
from ghckit.principal import MAX_M

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def invoke(argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ghckit", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


class TestRun:
    def test_root_system(self):
        doc, code = run({"command": "root-system", "parameters": {"series": "A", "rank": 2}})
        assert code == EXIT_OK
        assert doc["series"] == "A" and len(doc["roots"]) == 6

    def test_unknown_command(self):
        doc, code = run({"command": "frobnicate", "parameters": {}})
        assert code == EXIT_INPUT
        assert "unknown command" in doc["error"]

    def test_bad_request_shape(self):
        _, code = run([1, 2, 3])
        assert code == EXIT_INPUT

    def test_misspelled_top_level_key(self):
        # a document holds only "command" and "parameters": a stray key is named, not ignored
        doc, code = run(
            {"command": "census", "parameters": {"series": "A", "rank": 2}, "paramters": {"dedup": True}}
        )
        assert code == EXIT_INPUT
        assert "'paramters'" in doc["error"]

    def test_unsupported_maps_to_three(self):
        doc, code = run({"command": "fk-test", "parameters": {"series": "B", "rank": 2}})
        assert code == EXIT_UNSUPPORTED
        assert "type A" in doc["error"]

    def test_shadow_document(self):
        doc, code = run(
            {"command": "shadow", "parameters": {"series": "A", "rank": 2, "subalgebra": [0]}}
        )
        assert code == EXIT_OK
        assert set(doc) == {"I", "F", "plus", "minus", "gamma_generators", "p_M", "fernando_fk"}
        assert sorted(doc["I"] + doc["F"] + doc["plus"] + doc["minus"]) == list(range(6))

    def test_mathieu_document(self):
        doc, code = run(
            {
                "command": "mathieu",
                "parameters": {"x": "3/2,1/2", "eta": "0,0", "equiv": "3/2,-1/2"},
            }
        )
        assert code == EXIT_OK
        assert doc["bounded"] and doc["degree"] == 5
        assert doc["fiber_irreducible"] is True
        assert doc["equivalent"] is True

    @pytest.mark.parametrize("eta", ["0", ""])
    def test_mathieu_eta_of_the_wrong_length(self, eta):
        proc = invoke(["mathieu", "--x", "3/2,1/2", "--eta", eta])
        assert proc.returncode == EXIT_INPUT and not proc.stdout
        assert json.loads(proc.stderr) == {"code": EXIT_INPUT, "error": "eta dimension does not match x"}

    @pytest.mark.parametrize("equiv", ["3/2", "3/2,1/2,1/2", ""])
    def test_mathieu_equiv_of_the_wrong_length(self, equiv):
        proc = invoke(["mathieu", "--x", "3/2,1/2", "--equiv", equiv])
        assert proc.returncode == EXIT_INPUT and not proc.stdout
        assert json.loads(proc.stderr) == {"code": EXIT_INPUT, "error": "equiv dimension does not match x"}

    def test_mathieu_unbounded(self):
        doc, code = run({"command": "mathieu", "parameters": {"x": "1,0"}})
        assert code == EXIT_OK
        assert doc["bounded"] is False

    def test_ktype_series_integral_lambda(self):
        doc, code = run(
            {
                "command": "ktype-series",
                "parameters": {"series": "A", "rank": 2, "lambda": "1,0,-1"},
            }
        )
        assert code == EXIT_INPUT
        assert "non-integral" in doc["error"]

    def test_primal_test(self):
        doc, code = run(
            {"command": "primal-test", "parameters": {"series": "A", "rank": 2, "k_roots": [0, 3]}}
        )
        assert code == EXIT_OK
        assert doc["primal"] is True


class TestMalformedParameters:
    """Malformed request parameters exit 2 with an error object, not a traceback."""

    def probe(self, command, **params):
        doc, code = run({"command": command, "parameters": {"series": "A", "rank": 2, **params}})
        assert code == EXIT_INPUT
        assert doc["code"] == EXIT_INPUT
        return doc["error"]

    def test_max_m_not_an_integer(self):
        assert "max_m" in self.probe("ktype-series", max_m="abc", **{"lambda": "4/3,0,-4/3"})

    def test_subalgebra_index_not_an_integer(self):
        assert "'x'" in self.probe("shadow", subalgebra=["x"])

    @pytest.mark.parametrize(
        "key, params",
        [
            ("rank", {"rank": "0_2"}),
            ("max_m", {"max_m": "1_0", "lambda": "4/3,0,-4/3"}),
            ("subalgebra", {"subalgebra": "0,1_0"}),
            ("subalgebra", {"subalgebra": ["0_1"]}),
            ("k_roots", {"k_roots": "0,0_3"}),
        ],
    )
    def test_integer_digit_separator(self, key, params):
        # int reads "_" separators ("1_0" is 10); an integer, like a rational, takes none
        command = {"max_m": "ktype-series", "k_roots": "primal-test"}.get(key, "shadow")
        doc, code = run({"command": command, "parameters": {"series": "A", "rank": 2, **params}})
        assert code == EXIT_INPUT
        assert doc["error"].startswith(f"{key}: expected an integer")

    def test_lambda_a_bare_number(self):
        assert "lambda" in self.probe("ktype-series", **{"lambda": 5})

    def test_toral_vector_of_wrong_dimension(self):
        assert "dimension 3" in self.probe("primal-test", toral=[["1", "0"]])

    @pytest.mark.parametrize(
        "text",
        [
            # values that no parser takes
            '{"command": "shadow", "parameters": {"series": "A", "rank": 2, "subalgebra": 5}}',
            '{"command": "primal-test", "parameters": {"series": "A", "rank": 2, "k_roots": 5}}',
            '{"command": "primal-test", "parameters": {"series": "A", "rank": 2, "toral": [5]}}',
            '{"command": "primal-test", "parameters": {"series": "A", "rank": 2, "toral": 5}}',
            '{"command": [], "parameters": {"series": "A", "rank": 2}}',
            '{"command": "exponents", "parameters": {"series": "A", "rank": 1e400}}',
            '{"command": "ktype-series",'
            ' "parameters": {"series": "A", "rank": 2, "lambda": "4/3,0,-4/3", "max_m": 1e30}}',
            # values that pass for the declared type but are not of it, and a misspelled key
            '{"command": "census", "parameters": {"series": "A", "rank": 2, "dedup": "false"}}',
            '{"command": "exponents", "parameters": {"series": "A", "rank": true}}',
            '{"command": "exponents", "parameters": {"series": "A", "rank": 2.7}}',
            '{"command": "ktype-series",'
            ' "parameters": {"series": "A", "rank": 2, "lambda": "4/3,0,-4/3", "max_m": true}}',
            '{"command": "shadow", "parameters": {"series": "A", "rank": 2, "subalgbra": [0]}}',
        ],
    )
    def test_breach(self, text):
        doc, code = run(json.loads(text))
        assert code == EXIT_INPUT
        assert doc["code"] == EXIT_INPUT and doc["error"]

    def ktype(self, **params):
        return run({"command": "ktype-series", "parameters": {"series": "A", "rank": 2, **params}})

    def test_max_m_above_bound(self):
        doc, code = self.ktype(max_m=MAX_M + 1, **{"lambda": "4/3,0,-4/3"})
        assert code == EXIT_INPUT
        assert str(MAX_M) in doc["error"]

    def test_max_m_at_bound(self):
        doc, code = self.ktype(max_m=MAX_M, **{"lambda": "4/3,0,-4/3"})
        assert code == EXIT_OK
        assert doc["truncation"] == MAX_M and len(doc["series"]) == MAX_M + 1

    def test_lambda_h_above_bound(self):
        # lambda(h) = 4 * MAX_M
        doc, code = self.ktype(**{"lambda": [str(MAX_M), "1/3", str(-MAX_M)]})
        assert code == EXIT_INPUT
        assert str(MAX_M) in doc["error"]

    def test_lambda_of_the_wrong_length(self):
        # the library's one message for a weight of the wrong length
        doc, code = self.ktype(**{"lambda": "4/3,-4/3"})
        assert (code, doc["error"]) == (EXIT_INPUT, "weight dimension does not match the ambient space")

    def test_weight_read_once(self, monkeypatch):
        # E8 at lambda(h) = 7: the series, its bound and its minimal k-type all come
        # from one read of the weight
        pd = principal.PrincipalData.build(rootsys.build("E", 8))
        lam = [str(x) for x in principal.find_nonintegral_weight(pd, 7)]
        calls = []
        real = principal._weight_row
        monkeypatch.setattr(principal, "_weight_row", lambda *args: calls.append(args) or real(*args))
        doc, code = run({"command": "ktype-series", "parameters": {"series": "E", "rank": 8, "lambda": lam}})
        assert code == EXIT_OK and doc["lambda_h"] == "7" and doc["minimal_ktype"] == 5
        assert len(calls) == 1


class TestExitCodes:
    def test_success(self):
        assert invoke(["exponents", "--series", "G", "--rank", "2"]).returncode == 0

    def test_unsupported_type(self):
        proc = invoke(["fk-test", "--series", "B", "--rank", "2"])
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["code"] == 3

    def test_input_error(self):
        proc = invoke(["root-system", "--series", "Z", "--rank", "2"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("value, rank", [("1_0", "9"), ("-5", "1")])
    def test_malformed_rank_cap(self, monkeypatch, capsys, value, rank):
        monkeypatch.setenv("GHC_MAX_RANK", value)
        code = cli.main(["exponents", "--series", "A", "--rank", rank])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_INPUT, "")
        assert json.loads(err)["error"].startswith("GHC_MAX_RANK ")

    def test_malformed_request_json(self):
        proc = invoke(["request"], stdin="{not json")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["code"] == 2

    @staticmethod
    def buffering_env(unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        return env

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_pipe(self, unbuffered):
        # the read end is closed before the child starts, so its first write meets a broken
        # pipe: in write() when unbuffered, else in the flush of the buffered document
        env = self.buffering_env(unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ghckit", "census", "--series", "A", "--rank", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == b""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closes_after_100_bytes(self, unbuffered, tmp_path):
        # the A4 census is 1.5 MB, far more than a pipe holds, so the reader goes while the
        # document is being written: unbuffered, a raw write then takes only part of it,
        # and the rest must still be written, to meet the broken pipe
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ghckit", "census", "--series", "A", "--rank", "4"],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.buffering_env(unbuffered),
            )
            head = b""
            while len(head) < 100 and (chunk := os.read(proc.stdout.fileno(), 100 - len(head))):
                head += chunk
            proc.stdout.close()
            try:
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
            err.seek(0)
            assert (len(head), code, err.read()) == (100, cli.EXIT_BROKEN_PIPE, b"")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # (1, 1, 1) is orthogonal to every root of A2, so it is not in the Cartan subalgebra
            (["primal-test", "--series", "A", "--rank", "2", "--toral", "1,1,1"], "span of the roots"),
            # Fraction reads "3_0" as 30 from Python 3.11 on
            (["mathieu", "--x", "3_0/2,1/2"], "not a rational"),
            # and int reads "0_2" as 2 on every version
            (["root-system", "--series", "A", "--rank", "0_2"], "expected an integer"),
            (["ktype-series", "--series", "A", "--rank", "2", "--lambda", "4/3,0,-4/3", "--max-m", "1_0"], "max_m"),
        ],
    )
    def test_invalid_flags_exit_2_with_nothing_on_stdout(self, argv, message):
        proc = invoke(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("entry", ['"1e999999999"', '"2.5E-999999999"', "1e300"])
    def test_exponent_notation_exits_2(self, entry):
        # Fraction would expand the exponent into a billion-digit integer
        doc = '{"command": "mathieu", "parameters": {"x": [%s, "1/2"]}}' % entry
        proc = subprocess.run(
            [sys.executable, "-m", "ghckit", "request"], input=doc, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["code"] == 2 and "exponent notation" in err["error"]


# the README examples, each beside the request it spells in JSON forms
README_EXAMPLES = [
    ("root-system --series C --rank 3", {"series": "C", "rank": 3}),
    ("exponents --series E --rank 8", {"series": "E", "rank": 8}),
    ("shadow --series A --rank 2 --subalgebra 0,2", {"series": "A", "rank": 2, "subalgebra": [0, 2]}),
    ("fk-test --series A --rank 3 --subalgebra 0", {"series": "A", "rank": 3, "subalgebra": [0]}),
    (
        "solvable-test --series A --rank 2 --subalgebra 0,1,2",
        {"series": "A", "rank": 2, "subalgebra": [0, 1, 2]},
    ),
    ("primal-test --series A --rank 2 --k-roots 0,3", {"series": "A", "rank": 2, "k_roots": [0, 3]}),
    (
        "mathieu --x 3/2,1/2 --eta 0,0 --equiv 3/2,-1/2",
        {"x": ["3/2", "1/2"], "eta": [0, 0], "equiv": ["3/2", "-1/2"]},
    ),
    (
        "ktype-series --series A --rank 2 --lambda 4/3,0,-4/3 --max-m 10",
        {"series": "A", "rank": 2, "lambda": ["4/3", 0, "-4/3"], "max_m": 10},
    ),
    ("census --series A --rank 2 --dedup", {"series": "A", "rank": 2, "dedup": True}),
]


def load_check_cli():
    path = os.path.join(ROOT, "tools", "check_cli.py")
    spec = importlib.util.spec_from_file_location("check_cli", path)
    check_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_cli)
    return check_cli


def test_readme_lists_the_examples():
    # verbatim, as tools/check_cli.py reads and runs them
    assert load_check_cli().readme_invocations() == [argv for argv, _ in README_EXAMPLES]


def test_every_bench_workload_has_a_pinned_digest():
    # tools/check_cli.py runs each benchmark workload at seed 1 against its pin in BENCH
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    assert sorted(load_check_cli().BENCH) == sorted(workloads)


def ab_inproc(parent, child):
    """tools/ab_inproc.py on spectra, one round."""
    tool = os.path.join(ROOT, "tools", "ab_inproc.py")
    argv = [sys.executable, tool, parent, child, "--workload", "spectra", "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_ab_inproc_gates_on_equal_answers(tmp_path):
    # a copy whose k-type documents say one more truncation fails the gate before any timing;
    # the tree against itself passes (no timing is asserted)
    copy = tmp_path / "copy"
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    principal_py = copy / "src" / "ghckit" / "principal.py"
    text = principal_py.read_text(encoding="utf-8")
    assert text.count('"truncation": self.truncation,') == 1
    principal_py.write_text(text.replace('"truncation": self.truncation,', '"truncation": self.truncation + 1,'))
    changed = ab_inproc(ROOT, str(copy))
    assert changed.returncode == 1 and changed.stdout == ""
    assert "264 differences" in changed.stderr and '"truncation":' in changed.stderr
    same = ab_inproc(ROOT, ROOT)
    assert same.returncode == 0, same.stderr
    doc = json.loads(same.stdout)
    assert (doc["workload"], doc["ops"], doc["rounds"], doc["steps_ratio"]) == ("spectra", 379, 1, None)
    assert {"median", "q1", "q3"} <= set(doc["ratio"])
    # the tail: each tree's p50 and p95 of the per-op medians, and the child's over the parent's
    tail = {f"{tree}_op_{q}_ms" for tree in ("parent", "child") for q in ("p50", "p95")}
    assert tail <= set(doc) and all(doc[k] > 0 for k in tail)
    assert doc["parent_op_p50_ms"] <= doc["parent_op_p95_ms"] and doc["child_op_p50_ms"] <= doc["child_op_p95_ms"]
    assert doc["op_p50_ratio"] > 0 and doc["op_p95_ratio"] > 0
    # each op kind apart: the child's sum of per-op medians over the parent's
    assert set(doc["kind_ratio"]) == {"ktype", "mathieu"} and all(v > 0 for v in doc["kind_ratio"].values())


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["root-system", "--series", "C", "--rank", "3"],
            ["exponents", "--series", "E", "--rank", "7"],
            ["shadow", "--series", "A", "--rank", "3", "--subalgebra", "0,1,3"],
            ["fk-test", "--series", "A", "--rank", "2", "--subalgebra", "0"],
            ["census", "--series", "A", "--rank", "2"],
        ],
    )
    def test_byte_identical_reruns(self, argv):
        a = invoke(argv)
        b = invoke(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    @pytest.mark.parametrize("argv, params", README_EXAMPLES, ids=[a.split()[0] for a, _ in README_EXAMPLES])
    def test_request_equals_flags(self, argv, params, capsys, tmp_path):
        assert cli.main(argv.split()) == EXIT_OK
        by_flags = capsys.readouterr().out
        path = tmp_path / "request.json"
        path.write_text(json.dumps({"command": argv.split()[0], "parameters": params}))
        assert cli.main(["request", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == by_flags


def readme_load_sets():
    """Each command of README.md's load-set table, mapped to the sorted ghckit submodules of its row."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    rows = text.split("| Command | `ghckit` modules loaded |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    loads = {}
    for row in rows.splitlines():
        commands, modules = row.strip("|").split("|")
        loads.update(dict.fromkeys(re.findall("`(.+?)`", commands), sorted(re.findall("`(.+?)`", modules))))
    return loads

# run in one fresh interpreter: a request file, which loads no argparse, then each README
# invocation from an empty ghckit, then a bare import; each records the ghckit modules it
# loaded, the other modules loaded since the interpreter started and the views built on the
# root systems it built
LOAD_PROBE = """
import sys
START = set(sys.modules)
import contextlib, io, json

def loaded():
    return sorted(m[len("ghckit."):] for m in sys.modules if m.startswith("ghckit."))

def added():
    return sorted(m for m in set(sys.modules) - START if m != "ghckit" and not m.startswith("ghckit."))

def drop():
    for m in [m for m in sys.modules if m == "ghckit" or m.startswith("ghckit.")]:
        del sys.modules[m]

def watch():
    # every RootSystem the fresh rootsys builds, and then the views built on them
    rootsys = sys.modules["ghckit.rootsys"]
    construct, built = rootsys._construct, []
    def record(*key):
        built.append(construct(*key))
        return built[-1]
    rootsys._construct = record
    return lambda: sorted({v for rs in built for v in json.loads(sys.argv[3]) if v in vars(rs)})

from ghckit import cli
views = watch()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["request", sys.argv[2]])
report = {"loads": {}, "request": [code, loaded(), "argparse" in sys.modules, views()], "added": {"request": added()}}
for argv in json.loads(sys.argv[1]):
    drop()
    from ghckit import cli
    views = watch()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    report["loads"][argv] = [code, loaded(), views()]
    report["added"][argv] = added()
report["argparse"] = "argparse" in sys.modules
drop()
import ghckit
report["bare"] = loaded()
report["attributes"] = {name: getattr(ghckit, name).__name__ for name in ghckit.__all__}
report["nope"] = not hasattr(ghckit, "nope")
star = {}
exec("from ghckit import *", star)
report["star"] = {k: v.__name__ for k, v in star.items() if k != "__builtins__"}
report["version"] = ghckit.__version__
print(json.dumps(report))
"""


def test_commands_load_only_their_modules(tmp_path):
    argvs = [argv for argv, _ in README_EXAMPLES]
    path = tmp_path / "request.json"
    path.write_text('{"command": "root-system", "parameters": {"series": "A", "rank": 2}}')
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argvs), str(path), json.dumps(list(VIEWS))],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # the README table lists every command, and each loads those modules only; no command builds a
    # Fraction view (root-system writes its JSON from the integer rows, and primal-test reads its
    # default toral part, h, from the integer simple roots)
    loads = readme_load_sets()
    assert sorted(loads) == sorted(cli.COMMANDS)
    assert report["request"] == [EXIT_OK, loads["root-system"], False, []]
    assert report["argparse"]
    assert report["loads"] == {argv: [EXIT_OK, loads[argv.split()[0]], []] for argv in argvs}
    # no invocation imports dataclasses, or inspect, which dataclasses would bring: about 10 ms of
    # start-up in a fresh interpreter; nor typing, about 5 ms where the interpreter's start has
    # not loaded it already
    assert list(report["added"]) == ["request", *argvs]
    cold = {"dataclasses", "inspect", "typing"}
    assert not any(cold & set(added) for added in report["added"].values()), report["added"]
    assert report["bare"] == []
    names = ["errors", "exact", "fk", "mathieu", "principal", "rootsys", "shadow"]
    assert report["attributes"] == report["star"] == {name: f"ghckit.{name}" for name in names}
    assert report["nope"]
    assert report["version"] == "0.1.0"


class TestCensus:
    def test_a1_rows(self):
        rs = rootsys.build("A", 1)
        rows = list(fk.census_rows(rs))
        assert len(rows) == 4
        assert all(r["finite_type"] for r in rows)

    def test_a2_replay(self):
        # every row must be reproducible from its own subalgebra field
        rs = rootsys.build("A", 2)
        rows = list(fk.census_rows(rs))
        assert len(rows) == len(list(shadow.closed_subsets(rs)))
        for row in rows:
            doc, code = run(
                {
                    "command": "fk-test",
                    "parameters": {"series": "A", "rank": 2, "subalgebra": row["subalgebra"]},
                }
            )
            assert code == EXIT_OK
            assert doc["finite_type"] == row["finite_type"]

    def test_dedup_shrinks(self):
        rs = rootsys.build("A", 2)
        full = list(fk.census_rows(rs))
        deduped = list(fk.census_rows(rs, dedup=True))
        assert 0 < len(deduped) < len(full)

    def test_non_type_a_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            list(fk.census_rows(rootsys.build("C", 2)))

    def test_rank_bound(self):
        with pytest.raises(InputError, match="^census rank bound is 4$"):
            list(fk.census_rows(rootsys.build("A", fk.CENSUS_MAX_RANK + 1)))

    @pytest.mark.parametrize("dedup,digest", [
        (False, "c57d41e0857dd4fc454a637063ccc8a361304356523e641d6f7f1ce78b73d042"),
        (True, "2cdd94e51022615148a152353efe7a154c2c8d003fe777b548d39396143a8f2e"),
    ])
    def test_library_a3_digest(self, dedup, digest):
        # the library census, written as the census command writes it, has the stdout digests
        # of `ghckit census --series A --rank 3` with and without --dedup
        rows = list(fk.census_rows(rootsys.build("A", 3), dedup=dedup))
        out = json.dumps({"rows": rows}, sort_keys=True, separators=(",", ":")) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a4_stdout_digest(self, capsys):
        # `ghckit census --series A --rank 4`: a witness for each of the 4,960 infinite-type
        # subalgebras of A4, byte for byte
        assert cli.main(["census", "--series", "A", "--rank", "4"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "3be1f4b106468866502fd4565628524f07dd6fc3945cb3a69e27ab72b6165337"


class TestOutputFile(object):
    def test_output_flag(self, tmp_path):
        target = tmp_path / "out.json"
        code = cli.main(["--output", str(target), "exponents", "--series", "A", "--rank", "3"])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["exponents"] == [1, 2, 3]

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code = cli.main(["--output", str(target), "exponents", "--series", "A", "--rank", "3"])
        assert code == EXIT_INPUT
        assert json.loads(capsys.readouterr().err)["code"] == EXIT_INPUT


class TestRequestFile:
    def request_file(self, tmp_path, capsys, content: bytes):
        path = tmp_path / "request.json"
        path.write_bytes(content)
        code = cli.main(["request", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert json.loads(err)["code"] == EXIT_INPUT

    def test_not_utf8(self, tmp_path, capsys):
        self.request_file(tmp_path, capsys, b'{"command": "exponents", "parameters": {"series": "\xff"}}')

    def test_nested_too_deep(self, tmp_path, capsys):
        self.request_file(tmp_path, capsys, b"[" * 100_000 + b"]" * 100_000)


class TestArgvReaders:
    """`request`, `request -` and `request FILE` are read without argparse; every other
    argv goes to the argparse parser, and both readers serve a request alike."""

    DOCS = {
        "valid.json": '{"command": "exponents", "parameters": {"series": "G", "rank": 2}}',
        "malformed.json": "{not json",
        "unsupported.json": '{"command": "fk-test", "parameters": {"series": "B", "rank": 2}}',
    }

    def outcome(self, argv, capsys, monkeypatch, stdin=""):
        """(exit code, stdout, stderr) of cli.main(argv); a SystemExit gives its code."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize(
        "rest, stdin, code, fast",
        [
            (["valid.json"], "", EXIT_OK, True),
            (["malformed.json"], "", EXIT_INPUT, True),
            (["unsupported.json"], "", EXIT_UNSUPPORTED, True),
            (["missing.json"], "", EXIT_INPUT, True),
            ([], DOCS["valid.json"], EXIT_OK, True),
            (["-"], DOCS["unsupported.json"], EXIT_UNSUPPORTED, True),
            (["-"], DOCS["malformed.json"], EXIT_INPUT, True),
            # argparse reads all of these; how it reads a bare "--" depends on the Python version
            (["--"], DOCS["valid.json"], None, False),
            (["-h"], "", 0, False),
            (["a", "b"], "", 2, False),
            (["-x"], "", 2, False),
        ],
    )
    def test_agrees_with_argparse_twin(self, rest, stdin, code, fast, tmp_path, capsys, monkeypatch):
        for name, text in self.DOCS.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        twin = self.outcome(["--output", "-", "request", *rest], capsys, monkeypatch, stdin)
        if fast:
            monkeypatch.setattr(cli, "_parser", None)  # the fast reader builds no parser
        assert self.outcome(["request", *rest], capsys, monkeypatch, stdin) == twin
        assert code is None or twin[0] == code

    @pytest.mark.parametrize("argv", [["request", "a", "b"], ["request", "-x"], []])
    def test_usage_errors_stay_with_argparse(self, argv, capsys, monkeypatch):
        code, out, err = self.outcome(argv, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith(cli._parser().format_usage())

    def test_request_help(self, capsys, monkeypatch):
        code, out, err = self.outcome(["request", "-h"], capsys, monkeypatch)
        assert (code, err) == (0, "")
        assert out.startswith("usage: ghckit request [-h] [file]\n")


# any JSON value, the way json.loads hands it to run; object keys are often
# ones that run reads
PARAMETER_KEYS = sorted({p.key for _, params in cli.COMMANDS.values() for p in params})
KEYS = st.sampled_from(["command", "parameters", *PARAMETER_KEYS])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON = st.recursive(
    SCALARS | st.sampled_from(sorted(cli.COMMANDS)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS | st.text(), inner, max_size=4),
    max_leaves=10,
)
# integers of 2,000 to 4,300 digits: each reads as text, within the interpreter's limit
# on integer text, and an answer built from them may pass that limit
HUGE = st.integers(2000, 4300).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))
# rational text: small, and a tail of huge numerators over 1, 2 or a huge denominator
RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "4/3"]) | st.builds(
    "{}{}/{}".format, st.sampled_from(["", "-"]), HUGE, st.just(1) | st.just(2) | HUGE
)
# values that get past the parsers: index lists, weights and weight lists in both forms
PLAUSIBLE = st.one_of(
    st.lists(st.integers(-2, 14), max_size=4),
    st.text(alphabet="0123456789-/,; ", max_size=12),
    st.lists(RATIONALS, max_size=4),
    st.lists(st.lists(st.sampled_from([0, 1, -1, "1/2"]), max_size=4), max_size=3),
)
# systems of rank at most 2, so that a census request takes milliseconds
SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]


def answer(request):
    """run's exit code for request, after writing its document as ``cli._emit`` does,
    which fails on a number past the interpreter's limit on integer text."""
    doc, code = run(request)
    json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return code


class TestAnyRequest:
    """The exit contract: run answers 0, 2 or 3 for any request, raises nothing, and
    gives a document that can be written."""

    @given(JSON | st.fixed_dictionaries({}, optional={"command": JSON, "parameters": JSON}))
    def test_any_json_value(self, doc):
        assert answer(doc) in (EXIT_OK, EXIT_INPUT, EXIT_UNSUPPORTED)

    @given(st.data())
    def test_real_command_any_parameters(self, data):
        command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        params = {}
        for param in cli.COMMANDS[command][1]:
            if param.key == "series":
                params["series"], params["rank"] = data.draw(st.sampled_from(SYSTEMS))
            elif param.key != "rank" and data.draw(st.booleans()):
                params[param.key] = data.draw(JSON | PLAUSIBLE)
        assert answer({"command": command, "parameters": params}) in (EXIT_OK, EXIT_INPUT, EXIT_UNSUPPORTED)


# answers past the interpreter's limit on integer text: a sp(2n) degree of about 8,400
# digits, and a lambda(h) whose denominator has about 6,000; the mathieu one fails only
# when cli._emit writes the document, after run returns
TEXT_LIMIT = [
    ["mathieu", "--x", "9" * 2200 + "/2,1/2"],
    ["ktype-series", "--series", "A", "--rank", "2", f"--lambda=1/{10**3000 + 1},0,-1/{10**2999 + 3}"],
]


@pytest.mark.parametrize("argv", TEXT_LIMIT, ids=["mathieu", "ktype-series"])
def test_an_answer_past_the_integer_text_limit_exits_2(argv, capsys):
    assert cli.main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in json.loads(err)["error"]


def test_an_answer_within_the_integer_text_limit_is_written(capsys):
    # 2,150 nines: a degree of fewer than 4,300 digits
    assert cli.main(["mathieu", "--x", "9" * 2150 + "/2,1/2"]) == EXIT_OK
    degree = json.loads(capsys.readouterr().out)["degree"]
    assert 4000 < len(str(degree)) <= sys.get_int_max_str_digits()


# SHA-256 of stdout for ktype-series (lambda(h) a small integer, so the
# minimal k-type is reported) and mathieu, pinned before the weight math
# moved onto the integer root tables
OUTPUT_PINS = [
    (
        ["ktype-series", "--series", "E", "--rank", "8", "--lambda=0,7/1240,7/620,21/1240,7/310,7/248,21/620,161/1240",
         "--max-m", "60"],
        "d7e6fc3ea0592f65a187ab857c680b35ea19239bb248e180c4149ec733d5f16e",
    ),
    (
        ["ktype-series", "--series", "F", "--rank", "4", "--lambda=10/39,5/52,5/78,5/156", "--max-m", "60"],
        "103dc3ae64d4b303e10bd187390bff15e1a1b5c5323d0a5e7879d6b7169f39c1",
    ),
    (
        ["ktype-series", "--series", "G", "--rank", "2", "--lambda=-1/7,-4/7,5/7", "--max-m", "60"],
        "126a5abea48c928b439dc042a37f3cb02841e012b4aafcd1045492605e65d5ff",
    ),
    (
        ["ktype-series", "--series", "C", "--rank", "8",
         "--lambda=27/136,117/680,99/680,81/680,63/680,9/136,27/680,9/680", "--max-m", "60"],
        "4662d25b7dee8e9723460144535eed44eb32fbce64637ff3a75d216c6b2e02cb",
    ),
    (
        ["ktype-series", "--series", "D", "--rank", "8", "--lambda=3/20,9/70,3/28,3/35,9/140,3/70,3/140,0",
         "--max-m", "60"],
        "41d7d08234855cd64563d998cdc7c7a6b1245f395a32e140d7f916a46e031bbc",
    ),
    (["mathieu", "--x", "3/2,1/2"], "28c931d55ac54d990bae8ede2c3087deecdd7b1a004b641fcc3de8fcf9a1851f"),
    (["mathieu", "--x=3/2,-1/2"], "01ec6cbed6274ca72b2a2da7b3cdba82cd3a3d3c84262bd01d82865f133650e7"),
    (["mathieu", "--x", "5/2,1/2"], "5863e4fcaba80394a4440d28657f8af23cc01c73c3fcd857861b9d2f06f0e0c0"),
    (
        ["mathieu", "--x=31/2,27/2,23/2,19/2,15/2,11/2,7/2,-3/2"],
        "db3a72a1fd3933fa34fa5a8321fc87a2813195b7c020f44a9db576cc5407fde6",
    ),
    # the singular-weight lists and the witness of an infinite-type subalgebra, pinned before
    # the lists were read off masks, and a primality verdict, pinned before is_primal lost its torus
    (["fk-test", "--series", "A", "--rank", "4", "--subalgebra", "0,1,4,10"],
     "4bb88b8a8d50e5379cdc56d0c42d9cbb0a6b07e6fd221deb9c179951ae0c1ee6"),
    (["primal-test", "--series", "D", "--rank", "4", "--k-roots", "0,12"],
     "e86abdc470133b14964ad045a79dd7f82fe2c7a781e6243ef28c81668608307e"),
    # census --dedup, pinned before the orbit test moved from permuted vectors
    # to index tables (the A3 census without --dedup is pinned in test_exact.py)
    (["census", "--series", "A", "--rank", "3", "--dedup"], "2cdd94e51022615148a152353efe7a154c2c8d003fe777b548d39396143a8f2e"),
    (["census", "--series", "A", "--rank", "4", "--dedup"], "e769e98210c241e7f9632dd925c01aa5a0dfabfd33376b8f8d6882acb1b6755c"),
]


@pytest.mark.parametrize("argv,digest", OUTPUT_PINS, ids=[" ".join(a[:5]) for a, _ in OUTPUT_PINS])
def test_stdout_digest(argv, digest, capsys):
    assert cli.main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
