import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghckit import cli, rootsys, shadow
from ghckit.cli import EXIT_INPUT, EXIT_OK, EXIT_UNSUPPORTED, MAX_M, run
from ghckit.errors import UnsupportedTypeError


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

    def test_malformed_request_json(self):
        proc = invoke(["request"], stdin="{not json")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["code"] == 2

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_pipe(self, unbuffered):
        # the read end is closed before the child starts, so its first write meets a broken
        # pipe: in write() when unbuffered, else in the flush of the buffered document
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
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


# the ghckit submodules each command loads: those it runs, and those every request uses
BASE = ["cli", "errors", "exact", "rootsys"]
LOADS = {
    "root-system": BASE,
    "exponents": BASE + ["principal"],
    "ktype-series": BASE + ["principal"],
    "mathieu": BASE + ["mathieu"],
    "shadow": BASE + ["shadow"],
    **{c: BASE + ["fk", "shadow"] for c in ("fk-test", "solvable-test", "primal-test", "census")},
}

# run in one fresh interpreter: each README invocation from an empty ghckit, then a bare import
LOAD_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m[len("ghckit."):] for m in sys.modules if m.startswith("ghckit."))

def drop():
    for m in [m for m in sys.modules if m == "ghckit" or m.startswith("ghckit.")]:
        del sys.modules[m]

report = {"loads": {}}
for argv in json.loads(sys.argv[1]):
    drop()
    from ghckit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    report["loads"][argv] = [code, loaded()]
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


def test_commands_load_only_their_modules():
    argvs = [argv for argv, _ in README_EXAMPLES]
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argvs)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loads"] == {argv: [EXIT_OK, sorted(LOADS[argv.split()[0]])] for argv in argvs}
    assert report["bare"] == []
    names = ["errors", "exact", "fk", "mathieu", "principal", "rootsys", "shadow"]
    assert report["attributes"] == report["star"] == {name: f"ghckit.{name}" for name in names}
    assert report["nope"]
    assert report["version"] == "0.1.0"


class TestCensus:
    def test_a1_rows(self):
        rs = rootsys.build("A", 1)
        rows = list(cli.census_rows(rs))
        assert len(rows) == 4
        assert all(r["finite_type"] for r in rows)

    def test_a2_replay(self):
        # every row must be reproducible from its own subalgebra field
        rs = rootsys.build("A", 2)
        rows = list(cli.census_rows(rs))
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
        full = list(cli.census_rows(rs))
        deduped = list(cli.census_rows(rs, dedup=True))
        assert 0 < len(deduped) < len(full)

    def test_non_type_a_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            list(cli.census_rows(rootsys.build("C", 2)))


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
# values that get past the parsers: index lists, weights and weight lists in both forms
PLAUSIBLE = st.one_of(
    st.lists(st.integers(-2, 14), max_size=4),
    st.text(alphabet="0123456789-/,; ", max_size=12),
    st.lists(st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "4/3"]), max_size=4),
    st.lists(st.lists(st.sampled_from([0, 1, -1, "1/2"]), max_size=4), max_size=3),
)
# systems of rank at most 2, so that a census request takes milliseconds
SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]


class TestAnyRequest:
    """The exit contract: run answers 0, 2 or 3 for any request and raises nothing."""

    @given(JSON | st.fixed_dictionaries({}, optional={"command": JSON, "parameters": JSON}))
    def test_any_json_value(self, doc):
        assert run(doc)[1] in (EXIT_OK, EXIT_INPUT, EXIT_UNSUPPORTED)

    @given(st.data())
    def test_real_command_any_parameters(self, data):
        command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        params = {}
        for param in cli.COMMANDS[command][1]:
            if param.key == "series":
                params["series"], params["rank"] = data.draw(st.sampled_from(SYSTEMS))
            elif param.key != "rank" and data.draw(st.booleans()):
                params[param.key] = data.draw(JSON | PLAUSIBLE)
        assert run({"command": command, "parameters": params})[1] in (EXIT_OK, EXIT_INPUT, EXIT_UNSUPPORTED)


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
