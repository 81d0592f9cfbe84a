import io
import json
import subprocess
import sys

import pytest

from ghckit import cli, rootsys, shadow
from ghckit.cli import EXIT_INPUT, EXIT_OK, EXIT_UNSUPPORTED, run


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

    def test_request_equals_flags(self):
        flags = invoke(["exponents", "--series", "F", "--rank", "4"])
        req = json.dumps(
            {"command": "exponents", "parameters": {"series": "F", "rank": 4}}
        )
        piped = invoke(["request"], stdin=req)
        assert flags.stdout == piped.stdout


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
        with pytest.raises(Exception):
            list(cli.census_rows(rootsys.build("C", 2)))


class TestOutputFile(object):
    def test_output_flag(self, tmp_path):
        target = tmp_path / "out.json"
        code = cli.main(["--output", str(target), "exponents", "--series", "A", "--rank", "3"])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["exponents"] == [1, 2, 3]
