"""Driver behavior: exit codes, determinism, report and certificate files."""

import json
import os

import pytest

from nilcert.certificates import read_certificate, verify_certificate
from nilcert.cli import main
from nilcert.quotient import MembershipResult


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_values(capsys):
    for torsion, expected in ((12, "6"), (2, "3"), (700, "30"), (-12, "6")):
        code, out, _ = run(["bound", str(torsion)], capsys)
        assert code == 0
        assert out == expected + "\n"


def test_bound_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "0"])
    assert info.value.code == 2


def test_composite_prime_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["axioms", "--p", "4"])
    assert info.value.code == 2
    assert "not prime" in capsys.readouterr().err


def test_bad_counts_are_usage_errors():
    for argv in (
        ["axioms", "--trials", "0"],
        ["verify", "--extra-precision", "-1"],
        ["verify", "--e", "0"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_axioms_pass_and_deterministic(capsys):
    argv = ["axioms", "--p", "2", "--trials", "3", "--seed", "9", "--format", "machine"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    again, second, _ = run(argv, capsys)
    assert again == 0
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["fail"] == 0
    assert payload["records"][0]["verdicts"]["theta_axioms"] == "pass"


def test_iterates_degree_cap_skips(capsys):
    code, out, _ = run(
        ["iterates", "--p", "3", "--degree-cap", "1", "--format", "machine"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    verdicts = payload["records"][0]["verdicts"]
    assert list(verdicts) == ["iterates"]
    assert verdicts["iterates"].startswith("skipped:")


def test_iterates_small_cap(capsys):
    code, out, _ = run(
        ["iterates", "--p", "2", "--degree-cap", "8", "--format", "machine"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    verdicts = payload["records"][0]["verdicts"]
    assert verdicts["substitution_n3"] == "pass"
    assert "substitution_n4" not in verdicts


def test_verify_cell_report_and_certificates(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    certs = tmp_path / "certs"
    code, out, err = run(
        [
            "verify", "--p", "2", "--e", "1", "--format", "machine",
            "--out-report", str(report_path), "--out-certs", str(certs),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    record = payload["records"][0]
    assert (record["p"], record["e"]) == (2, 1)
    assert record["verdicts"]["nilpotence_m2"] == "pass"
    assert record["verdicts"]["sharpness_m2"] == "pass"
    assert record["sharpness_witness"] == "2*y"
    assert payload["summary"]["fail"] == 0
    # stdout JSON and the report file carry the same bytes
    assert report_path.read_text(encoding="ascii") == out
    # every certificate file re-verifies
    names = sorted(os.listdir(certs))
    assert names == ["nilpotence_p2_e1_m2.cert", "nilpotence_p2_e1_m3.cert"]
    for name in names:
        assert verify_certificate(read_certificate(certs / name))
    # timings are stderr-only, never report content
    assert "timing" not in out
    assert "[timing]" in err


def test_verify_records_sorted(capsys):
    code, out, _ = run(
        ["verify", "--p", "3", "--p", "2", "--e", "1", "--format", "machine"], capsys
    )
    assert code == 0
    cells = [(r["p"], r["e"]) for r in json.loads(out)["records"]]
    assert cells == [(2, 1), (3, 1)]


def test_verify_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            ["verify", "--p", "2", "--e", "1", "--e", "2", "--seed", "5",
             "--out-report", str(path)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_span_limit_skips(capsys):
    code, out, _ = run(
        ["verify", "--p", "2", "--e", "5", "--span-limit", "64", "--format", "machine"],
        capsys,
    )
    assert code == 0  # skipped cells do not fail the run
    verdicts = json.loads(out)["records"][0]["verdicts"]
    assert list(verdicts) == ["cell"]
    assert verdicts["cell"].startswith("skipped:")
    assert json.loads(out)["summary"]["skipped"] == 1


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    from nilcert.quotient import MembershipModule

    monkeypatch.setattr(
        MembershipModule, "verify_nilpotence", lambda self: MembershipResult(False)
    )
    code, out, _ = run(["verify", "--p", "2", "--e", "1", "--format", "machine"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["records"][0]["verdicts"]["nilpotence_m2"] == "fail"
    assert payload["summary"]["fail"] > 0


def test_certificate_reverification_failure_is_a_verdict(tmp_path, monkeypatch, capsys):
    import nilcert.cli as cli

    monkeypatch.setattr(cli, "verify_certificate", lambda certificate: False)
    certs = tmp_path / "certs"
    code, out, _ = run(
        ["verify", "--p", "2", "--e", "1", "--format", "machine", "--out-certs", str(certs)],
        capsys,
    )
    assert code == 1
    record = json.loads(out)["records"][0]
    assert record["verdicts"]["nilpotence_m2"] == "fail"
    assert record["verdicts"]["nilpotence_m3"] == "fail"
    assert record["verdicts"]["sharpness_m2"] == "pass"
    # the rejected files are still written and listed
    assert record["certificates"] == sorted(os.listdir(certs))


def test_table_format_default(capsys):
    code, out, _ = run(["verify", "--p", "2", "--e", "1"], capsys)
    assert code == 0
    assert "p=2 e=1" in out
    assert "summary:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
