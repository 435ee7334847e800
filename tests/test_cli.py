"""Tests for the command-line interface and the JSON report schema."""

import hashlib
import json
import time

import jsonschema
import pytest

from preproj import cli
from preproj.cli import JSON_REPORT_SCHEMA, report_document, run
from preproj.e6 import VerificationReport


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_lemma(capsys):
    code, out, _ = invoke(capsys, "verify", "lemma")
    assert code == 0
    assert "3/3 passed" in out


def test_verify_lemma_json_schema(capsys):
    code, out, _ = invoke(capsys, "verify", "lemma", "--json")
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    assert document["status"] == "pass"
    assert len(document["checks"]) == 3
    assert document["algebra"] == {
        "name": "re6",
        "dimension": 12,
        "nilpotency_degree": 6,
    }


def test_json_reports_are_deterministic_modulo_timing(capsys):
    _, out1, _ = invoke(capsys, "verify", "corner-iso", "--json")
    _, out2, _ = invoke(capsys, "verify", "corner-iso", "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    def strip(d):
        d = dict(d)
        d.pop("total_ms")
        d["checks"] = [{k: v for k, v in c.items() if k != "ms"} for c in d["checks"]]
        return d
    assert strip(d1) == strip(d2)


def test_reduce_re6(capsys):
    code, out, _ = invoke(capsys, "reduce", "--algebra", "re6", "y*y*x")
    assert code == 0
    assert out.strip() == "- x*y*x - x*y*y - y*x*y"


def test_reduce_is_a_fixed_point(capsys):
    _, out, _ = invoke(capsys, "reduce", "--algebra", "re6", "y*y*x")
    first = out.strip()
    _, out, _ = invoke(capsys, "reduce", "--algebra", "re6", first)
    assert out.strip() == first


def test_reduce_pe6_with_parameters(capsys):
    code, out, _ = invoke(
        capsys, "reduce", "--algebra", "pe6", "t1*b0*a0*b2*a2 + a0*b0"
    )
    assert code == 0
    assert out.strip() == "t1*b0*a0*b2*a2"


def test_reduce_parse_error_exit_2(capsys):
    code, _, err = invoke(capsys, "reduce", "--algebra", "re6", "y*)")
    assert code == 2
    assert "error" in err


def test_reduce_cross_quiver_exit_2(capsys):
    code, _, err = invoke(capsys, "reduce", "--algebra", "pe6", "a0 + x")
    assert code == 2
    assert "not defined in quiver" in err


def test_admissible_theta_spec_example(capsys):
    code, out, _ = invoke(
        capsys,
        "admissible",
        "--theta",
        "t1=1,t2=1,t3=1,t4=0,t5=0,t6=-2,t7=0,t8=0,t9=0",
    )
    assert code == 1
    assert "not admissible" in out
    assert "-2" in out  # the failing second condition residual


def test_admissible_expression_form(capsys):
    code, out, _ = invoke(capsys, "admissible", "x*y - 3*y*x")
    # t1=1, t2=-3, t3=0: first condition 1 - 3 - 0 = -2 != 0
    assert code == 1
    assert "not admissible" in out


def test_admissible_expression_admissible(capsys):
    # f = x*y - y*x - 3*y*x*y: t1=1, t2=-1, t6=-3; both conditions hold
    code, out, _ = invoke(capsys, "admissible", "x*y - y*x - 3*y*x*y")
    assert code == 0
    assert "f is admissible" in out


def test_admissible_rejects_degree_one(capsys):
    code, _, err = invoke(capsys, "admissible", "x + x*y")
    assert code == 2
    assert "rad^2" in err


def test_basis_header_and_format(capsys):
    code, out, _ = invoke(capsys, "basis", "--algebra", "re6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# quiver L2"
    assert "# x: 0 -> 0" in lines[1]
    assert "deg=0 0->0 e0" in lines
    assert "deg=5 0->0 x*y*x*y*y" in lines
    assert sum(1 for l in lines if l.startswith("deg=")) == 12


def test_basis_corner(capsys):
    code, out, _ = invoke(capsys, "basis", "--algebra", "pe6", "--corner", "3")
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("deg=")]
    assert len(body) == 12
    assert all("3->3" in l for l in body)


def test_basis_constants_csv(tmp_path, capsys):
    target = tmp_path / "sc.csv"
    code, _, _ = invoke(
        capsys, "basis", "--algebra", "re6", "--constants", str(target)
    )
    assert code == 0
    rows = target.read_text().strip().splitlines()
    parsed = [tuple(r.split(",")) for r in rows]
    assert all(len(r) == 4 for r in parsed)
    # e0 * e0 = e0 is the (0,0,0) entry with coefficient 1
    assert ("0", "0", "0", "1") in parsed


def test_sample_command(capsys):
    code, out, _ = invoke(capsys, "sample", "--seed", "5", "--trials", "3")
    assert code == 0
    assert "3/3 passed" in out


def test_sample_field_json(capsys):
    code, out, _ = invoke(
        capsys, "sample", "--seed", "5", "--trials", "2", "--field", "7", "--json"
    )
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    assert document["status"] == "pass"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sample_rejects_non_positive_trials(capsys, trials):
    code, out, err = invoke(capsys, "sample", "--seed", "1", "--trials", trials)
    assert code == 2
    assert "positive integer" in err
    assert out == ""


def test_report_without_checks_does_not_pass():
    document = report_document("sample", "pe6", [VerificationReport("sample", "pe6")], 0.0)
    assert document["status"] == "fail"


def test_sample_non_prime_field(capsys):
    code, _, err = invoke(capsys, "sample", "--seed", "1", "--trials", "1", "--field", "6")
    assert code == 2
    assert "prime" in err


def test_field_out_of_range_is_a_prompt_usage_error(capsys):
    start = time.perf_counter()
    for field in ("2305843009213693951", "2147483648"):
        code, out, err = invoke(
            capsys, "sample", "--seed", "1", "--trials", "1", "--field", field
        )
        assert code == 2
        assert "below 2^31" in err
        assert out == ""
    assert cli.prime("2147483647") == 2 ** 31 - 1  # the largest accepted prime
    assert time.perf_counter() - start < 2.0


def test_basis_corner_not_a_vertex_exit_2(capsys):
    code, out, err = invoke(capsys, "basis", "--algebra", "re6", "--corner", "3")
    assert code == 2
    assert "not a vertex of re6" in err
    assert out == ""


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")])
def test_verifier_exception_is_an_internal_error_exit_3(capsys, monkeypatch, error):
    def broken():
        raise error

    monkeypatch.setattr(cli, "verify_lemma", broken)
    code, out, err = invoke(capsys, "verify", "lemma")
    assert code == 3
    assert err.startswith("internal error:")
    assert "boom" in err
    assert out == ""


def test_verify_inverse_modes(capsys):
    code, _, _ = invoke(capsys, "verify", "inverse", "--mode", "corrected", "--quiet")
    assert code == 0
    code, out, _ = invoke(capsys, "verify", "inverse", "--mode", "printed")
    assert code == 1
    assert "4/6 passed" in out


def test_verify_all(capsys):
    code, out, _ = invoke(capsys, "verify", "all", "--json")
    assert code == 0
    document = json.loads(out)
    jsonschema.validate(document, JSON_REPORT_SCHEMA)
    titles = {c["name"].split(":")[0] for c in document["checks"]}
    assert titles == {"lemma", "theorem", "identities", "corner-iso", "inverse (corrected)"}


def test_usage_error_exit_2(capsys):
    assert run(["verify", "nonsense"]) == 2
    assert run(["bogus"]) == 2


# -- same results: outputs pinned by SHA-256 -----------------------------------
#
# Any change to a check name, status, residual string, basis listing or
# structure constant changes a hash.  Timing fields are stripped first;
# key order is kept, so a reordered report changes its hash too.


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report_without_timings(text):
    document = json.loads(text)
    document.pop("total_ms")
    document["checks"] = [
        {k: v for k, v in check.items() if k != "ms"} for check in document["checks"]
    ]
    return json.dumps(document)


PINNED_REPORTS = {
    ("sample", "--seed", "7", "--trials", "30"):
        "688cb9065e03fc6c408fb3cec08dd78abbd03eec67f6b9df9edb0c61fd333fac",
    ("sample", "--seed", "7", "--trials", "30", "--field", "11"):
        "52c249fba7253a9bd142b61ad3ab3018202fec7abcbac113d0fc1c8757d34390",
    ("sample", "--seed", "7", "--trials", "30", "--field", "2"):
        "024f4a31cb9757af8aa15869b778b6468643d3cfb03153f836703fab3ed3d549",
    ("verify", "all"):
        "553b1f83183f2306f0c533a780805042db3517ebf080fe292b6bc19dce7ec678",
    ("verify", "inverse", "--mode", "printed"):
        "5cd9624806921d3947f3aa5144ae2179c1d5289154cb46dac289363a947ca7c3",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_json_report_is_pinned_modulo_timing(capsys, argv):
    _, out, _ = invoke(capsys, *argv, "--json")
    assert _sha256(_report_without_timings(out)) == PINNED_REPORTS[argv]


PINNED_BASIS = {
    "pe6": ("a6516fe60062c8e62a8bf8c7605f6f0a9dc62772c8cd4ff53d693ea0b4da3117", "b8010f2787102469c9d9693e845b1936c431eee89d598ff585138d3b3aaa3e08"),
    "re6": ("f8f28f7f666c647192def6c67ff2e0cf645556aefd312b6a031993a70b575e89", "6918d3e88f6a9d0be7c9e9bab097b839b85489bdccd53302d0e677b398beab96"),
}


@pytest.mark.parametrize("algebra", list(PINNED_BASIS))
def test_basis_listing_and_constants_csv_are_pinned(tmp_path, capsys, algebra):
    target = tmp_path / "sc.csv"
    code, out, _ = invoke(capsys, "basis", "--algebra", algebra, "--constants", str(target))
    assert code == 0
    assert (_sha256(out), _sha256(target.read_text())) == PINNED_BASIS[algebra]
