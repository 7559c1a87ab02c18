"""Driver behavior: exit codes, determinism, report and certificate files."""

import hashlib
import json
import os
import time

import pytest

from nilcert.certificates import read_certificate, verify_certificate
from nilcert.certificates import MAX_PRECISION
from nilcert.cli import (
    MAX_DEGREE_CAP,
    MAX_PRIME,
    MAX_SPAN_LIMIT,
    MAX_TORSION,
    MAX_TRIALS,
    main,
)
from nilcert import quotient
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


def test_oversized_flags_are_usage_errors_promptly(capsys):
    for argv, message in (
        (["iterates", "--degree-cap", "100000000"], "degree cap"),
        (["iterates", "--degree-cap", str(MAX_DEGREE_CAP + 1)], "degree cap"),
        (["verify", "--p", "5", "--e", "1", "--extra-precision", "1000000000"], "precision"),
        (["verify", "--extra-precision", str(MAX_PRECISION + 1)], "precision"),
    ):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - started < 2
        assert info.value.code == 2
        assert message in capsys.readouterr().err


def test_unbounded_integer_inputs_are_usage_errors_promptly(capsys):
    # each of these ran for tens of seconds before any bound applied:
    # trial division, is_prime, the trials loop, an oversized span
    for argv, message in (
        (["bound", "1000000000000000003"], "torsion order"),
        (["bound", str(-MAX_TORSION - 1)], "torsion order"),
        (["iterates", "--p", "1000000000000000003"], "prime must be at most"),
        (["axioms", "--p", str(MAX_PRIME + 1)], "prime must be at most"),
        (["axioms", "--trials", "100000000"], "trials"),
        (["axioms", "--trials", str(MAX_TRIALS + 1)], "trials"),
        (["verify", "--p", "2", "--e", "9", "--span-limit", "1000000000"], "span limit"),
        (["verify", "--span-limit", str(MAX_SPAN_LIMIT + 1)], "span limit"),
    ):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - started < 1
        assert info.value.code == 2
        assert message in capsys.readouterr().err
    # the bounds themselves are admitted
    code, out, _ = run(["bound", str(MAX_TORSION)], capsys)
    assert code == 0 and out == "292968750\n"
    code, out, _ = run(["iterates", "--p", "4093", "--format", "machine"], capsys)
    assert code == 0 and json.loads(out)["summary"]["skipped"] == 1


def test_axioms_skip_primes_by_term_bound(capsys):
    # psi(f)^p is dense: its term bound skips p = 11 and above, even
    # where the degree cap admits them, while p = 7 still runs
    for argv in (["--p", "13"], ["--p", "31", "--degree-cap", "4096"], ["--p", "11"]):
        started = time.perf_counter()
        code, out, _ = run(["axioms", *argv, "--format", "machine"], capsys)
        assert time.perf_counter() - started < 2
        assert code == 0
        verdicts = json.loads(out)["records"][0]["verdicts"]
        assert list(verdicts) == ["axioms"]
        assert verdicts["axioms"].startswith("skipped: theta of psi of a sample may have")
    code, out, _ = run(["axioms", "--p", "7", "--trials", "1"], capsys)
    assert code == 0 and "skipped:" not in out


def test_axioms_skip_primes_beyond_the_degree_cap(capsys):
    # theta(psi(f)) of a degree-4 sample reaches degree 4 * 61^2 = 14884
    started = time.perf_counter()
    code, out, _ = run(["axioms", "--p", "61", "--trials", "1", "--format", "machine"], capsys)
    assert time.perf_counter() - started < 2
    assert code == 0
    verdicts = json.loads(out)["records"][0]["verdicts"]
    assert list(verdicts) == ["axioms"]
    assert verdicts["axioms"].startswith("skipped:") and "14884" in verdicts["axioms"]
    # the bound follows the cap: 4 * 3^2 = 36 runs under cap 36, not under 35
    code, out, _ = run(["axioms", "--p", "3", "--trials", "1", "--degree-cap", "36"], capsys)
    assert code == 0 and "skipped:" not in out
    code, out, _ = run(["axioms", "--p", "3", "--trials", "1", "--degree-cap", "35"], capsys)
    assert code == 0 and "skipped: theta of psi" in out


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


def test_verify_fails_when_a_certificate_check_fails(monkeypatch, capsys):
    # the membership verdicts pass only on certificates the independent
    # checker accepts
    monkeypatch.setattr(quotient, "verify_certificate", lambda certificate: False)
    code, out, _ = run(["verify", "--p", "2", "--e", "1", "--format", "machine"], capsys)
    assert code == 1
    verdicts = json.loads(out)["records"][0]["verdicts"]
    for name in ["theta_stability", "iterate_torsion_k0", "iterate_power_k0", "torsion_powers"]:
        assert verdicts[name] == "fail"


def test_nilpotence_verdicts_check_their_certificates(monkeypatch, capsys):
    # without --out-certs the nilpotence certificates are checked in memory
    import nilcert.cli as cli

    monkeypatch.setattr(cli, "verify_certificate", lambda certificate: False)
    code, out, _ = run(["verify", "--p", "2", "--e", "1", "--format", "machine"], capsys)
    assert code == 1
    verdicts = json.loads(out)["records"][0]["verdicts"]
    assert verdicts["nilpotence_m2"] == "fail"
    assert verdicts["nilpotence_m3"] == "fail"


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


# sha256 of the default `nilcert verify --format machine` stdout and of its
# --out-certs files concatenated in sorted name order; a change to any
# verdict, witness or certificate byte of the default run shows here
DEFAULT_VERIFY_REPORT_SHA256 = "7a321274c4ab3d1f5321e711bfcb06b537a1727e2ed97197751845c559361ecd"
DEFAULT_VERIFY_CERTS_SHA256 = "7c8bbf1611348be9275bff9e0050138df7fe210120715af703eb2ae173d41d35"


def test_default_verify_bytes_pinned(tmp_path, capsys):
    certs = tmp_path / "certs"
    code, out, _ = run(["verify", "--format", "machine", "--out-certs", str(certs)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DEFAULT_VERIFY_REPORT_SHA256
    names = sorted(os.listdir(certs))
    assert len(names) == 14
    joined = b"".join((certs / name).read_bytes() for name in names)
    assert hashlib.sha256(joined).hexdigest() == DEFAULT_VERIFY_CERTS_SHA256


# sha256 of the default `nilcert iterates --format machine` and
# `nilcert axioms --format machine` stdout: every verdict and structural
# fact the operator layer reports on its default run
DEFAULT_OPERATOR_REPORTS_SHA256 = {
    "iterates": "6d303149a4872f0399d54f9ef1a94a77db711b14f9109714ec7cbc06c72c8ae8",
    "axioms": "6fd43748ed5a5fc19b49db67f99728d8298b080cffb8b902e6cc54b997920944",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_OPERATOR_REPORTS_SHA256))
def test_default_operator_reports_pinned(command, capsys):
    code, out, _ = run([command, "--format", "machine"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == DEFAULT_OPERATOR_REPORTS_SHA256[command]


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


def test_verify_int64_precision_skips(capsys):
    # residues mod 5^29 do not fit int64: the build refuses the precision
    # before making any atom, where one would not fit its class vector
    argv = ["verify", "--p", "5", "--e", "2", "--extra-precision", "26", "--format", "machine"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    verdicts = json.loads(out)["records"][0]["verdicts"]
    assert verdicts == {"cell": "skipped: modulus too large for int64 matrix arithmetic"}


def test_verify_absurd_depth_skips_promptly(capsys):
    # the span guard runs before the rewrite system computes the
    # degree-p^e top iterate, and never forms p^(2e) for a huge e
    for depth in ("13", "1000000000"):
        started = time.perf_counter()
        code, out, _ = run(["verify", "--p", "2", "--e", depth, "--format", "machine"], capsys)
        assert time.perf_counter() - started < 1
        assert code == 0
        verdicts = json.loads(out)["records"][0]["verdicts"]
        assert list(verdicts) == ["cell"]
        assert verdicts["cell"].startswith("skipped: span size")


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
