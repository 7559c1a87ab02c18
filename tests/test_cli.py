"""Driver behavior: exit codes, determinism, report and certificate files."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilcert.certificates import read_certificate, verify_certificate
from nilcert.certificates import MAX_PRECISION
from nilcert.cli import (
    MAX_DEGREE_CAP,
    MAX_DIAGONAL_SIZE,
    MAX_PRIME,
    MAX_SPAN_LIMIT,
    MAX_TORSION,
    MAX_TRIALS,
    RunConfig,
    _diagonal_skip_reason,
    build_parser,
    config_from_args,
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


def test_iterates_skip_diagonals_beyond_the_size_bound(capsys):
    # theta(f_n) forms f_n^p, measured as p^(2n) * (bits of p); (2, 12),
    # the deepest check at cap 4096, measures 2^24 * 2, exactly the bound
    assert MAX_DIAGONAL_SIZE == 2**25
    assert _diagonal_skip_reason(2, 12) is None
    assert _diagonal_skip_reason(1741, 1) is None
    for p, n in ((2, 13), (61, 2), (2039, 1), (4093, 1)):
        assert str(p ** (2 * n) * p.bit_length()) in _diagonal_skip_reason(p, n)
    started = time.perf_counter()
    code, out, _ = run(
        ["iterates", "--p", "61", "--p", "4093", "--degree-cap", "4096", "--format", "machine"],
        capsys,
    )
    assert time.perf_counter() - started < 5
    assert code == 0
    verdicts = {
        (record["p"], name): verdict
        for record in json.loads(out)["records"]
        for name, verdict in record["verdicts"].items()
    }
    skips = {key for key, verdict in verdicts.items() if verdict.startswith("skipped:")}
    assert skips == {(61, "diagonal_n2"), (4093, "diagonal_n1")}
    assert all(verdicts[key] == "pass" for key in verdicts.keys() - skips)
    assert len(verdicts) == 9


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


@pytest.mark.parametrize(
    "argv",
    [
        # p = 11 is skipped by the term bound, p = 3 has no depth under the
        # cap, and the (2, 7) span is past the default span limit
        ["axioms", "--p", "2", "--p", "11", "--trials", "1"],
        ["iterates", "--p", "2", "--p", "3", "--degree-cap", "2"],
        ["verify", "--p", "2", "--e", "1", "--e", "7"],
    ],
)
def test_one_timing_line_per_record_under_its_table_heading(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert "skipped: " in out
    headings = [line for line in out.splitlines() if not line.startswith((" ", "summary:"))]
    assert len(headings) == 2
    labels = []
    for line in err.splitlines():
        match = re.fullmatch(r"\[timing\] (\w+) (.+): (\d+\.\d{3})s", line)
        assert match, line
        assert match[1] == argv[0]
        labels.append(match[2])
    assert labels == headings


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


def test_default_verify_runs_on_the_standard_library_alone(tmp_path):
    # -S hides site-packages, so no third-party module can load; the run
    # must still give the pinned report and certificates
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    certs = tmp_path / "certs"
    command = ["verify", "--format", "machine", "--out-certs", str(certs)]
    done = subprocess.run(
        [sys.executable, "-S", "-m", "nilcert", *command],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEFAULT_VERIFY_REPORT_SHA256
    joined = b"".join((certs / name).read_bytes() for name in sorted(os.listdir(certs)))
    assert hashlib.sha256(joined).hexdigest() == DEFAULT_VERIFY_CERTS_SHA256
    # with site-packages visible, the CLI still imports no numpy
    probe = "import sys, nilcert.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


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


def test_verify_precision_past_max_skips(tmp_path, capsys):
    # residues mod 5^29 pass 2^63 and still every verdict passes, with
    # certificates that verify when read back
    certs = tmp_path / "certs"
    argv = ["verify", "--p", "5", "--e", "2", "--extra-precision", "26", "--format", "machine"]
    code, out, _ = run(argv + ["--out-certs", str(certs)], capsys)
    assert code == 0
    verdicts = json.loads(out)["records"][0]["verdicts"]
    assert {"nilpotence_m3", "nilpotence_m29"} <= set(verdicts)
    assert set(verdicts.values()) == {"pass"}
    names = sorted(os.listdir(certs))
    assert names == ["nilpotence_p5_e2_m29.cert", "nilpotence_p5_e2_m3.cert"]
    for name in names:
        assert verify_certificate(read_certificate(certs / name))
    # a cell whose second precision passes MAX_PRECISION is skipped whole
    argv = ["verify", "--p", "2", "--e", "2", "--extra-precision", str(MAX_PRECISION)]
    code, out, _ = run(argv + ["--format", "machine"], capsys)
    assert code == 0
    verdicts = json.loads(out)["records"][0]["verdicts"]
    m = 2 + 1 + MAX_PRECISION
    assert verdicts == {"cell": f"skipped: precision {m} exceeds {MAX_PRECISION}"}


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


def unusable_output_paths(tmp_path):
    """(argv, path) pairs whose output path cannot be written."""
    plain = tmp_path / "F"
    plain.write_text("kept\n", encoding="ascii")
    under_plain = str(plain / "sub")
    report = str(tmp_path / "missing" / "r.json")
    cell = ["verify", "--p", "2", "--e", "1"]
    return [
        (cell + ["--out-certs", str(plain)], str(plain)),
        (cell + ["--out-certs", under_plain], under_plain),
        (cell + ["--out-report", report], report),
        (["iterates", "--p", "2", "--degree-cap", "4", "--out-report", report], report),
        (cell + ["--out-report", str(tmp_path)], str(tmp_path)),
    ]


def test_unusable_output_paths_are_usage_errors(tmp_path, capsys):
    # refused before any cell runs, so nothing reaches stdout
    for argv, path in unusable_output_paths(tmp_path):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path in captured.err
        assert "Traceback" not in captured.err
    assert (tmp_path / "F").read_text(encoding="ascii") == "kept\n"
    assert not (tmp_path / "missing").exists()


def test_missing_certificate_directories_are_made(tmp_path, capsys):
    certs = tmp_path / "a" / "b"
    code, _, _ = run(["verify", "--p", "2", "--e", "1", "--out-certs", str(certs)], capsys)
    assert code == 0
    assert sorted(os.listdir(certs)) == ["nilpotence_p2_e1_m2.cert", "nilpotence_p2_e1_m3.cert"]


def test_write_failure_is_a_usage_error(tmp_path, monkeypatch, capsys):
    import nilcert.cli as cli

    def refuse(certificate, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "write_certificate", refuse)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--p", "2", "--e", "1", "--out-certs", str(tmp_path)])
    assert info.value.code == 2
    assert "Permission denied" in capsys.readouterr().err


# flag -> (its argument, the RunConfig field it sets, the value set there);
# the output paths are relative to the test's working directory
FLAGS = {
    "--p": ("3", "primes", [3]),
    "--e": ("2", "depths", [2]),
    "--extra-precision": ("2", "extra_precision", 2),
    "--trials": ("3", "trials", 3),
    "--seed": ("4", "seed", 4),
    "--span-limit": ("64", "span_limit", 64),
    "--degree-cap": ("8", "degree_cap", 8),
    "--out-report": ("report.json", "out_report", "report.json"),
    "--out-certs": ("certs", "out_certs", "certs"),
    "--format": ("machine", "format", "machine"),
}
COMMAND_FLAGS = {
    "axioms": {"--p", "--trials", "--seed", "--degree-cap", "--out-report", "--format"},
    "iterates": {"--p", "--seed", "--degree-cap", "--out-report", "--format"},
    "verify": {
        "--p", "--e", "--extra-precision", "--seed", "--span-limit",
        "--out-report", "--out-certs", "--format",
    },
}


# the benchmark's rounds, then the CI runs
SCRIPTED_COMMAND_LINES = [
    ["verify", "--format", "machine", "--seed", "5", "--out-certs", "certs"],
    ["iterates", "--format", "machine", "--seed", "5"],
    ["axioms", "--format", "machine", "--seed", "5"],
    ["iterates", "--p", "2", "--degree-cap", "4096", "--format", "machine"],
    ["iterates", "--p", "61", "--p", "4093", "--degree-cap", "4096", "--format", "machine"],
    ["axioms", "--p", "7", "--trials", "60", "--format", "machine"],
    ["verify", "--p", "2", "--e", "6", "--format", "machine", "--out-certs", "deep"],
    [
        "verify", "--p", "2", "--e", "7", "--span-limit", "16384",
        "--format", "machine", "--out-certs", "large",
    ],
    [
        "verify", "--p", "7", "--p", "11", "--p", "13", "--e", "1", "--e", "2",
        "--format", "machine", "--out-certs", "primes",
    ],
    ["verify", "--out-certs", "certs"],
]


def parsed_config(argv):
    parser = build_parser()
    return config_from_args(parser, parser.parse_args(argv))


def test_each_command_accepts_only_the_flags_it_reads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    defaults = RunConfig(primes=[2, 3, 5], depths=[])
    for command, kept in COMMAND_FLAGS.items():
        # a setting the command has no flag for keeps its RunConfig default
        assert parsed_config([command]) == defaults
        for flag in kept:
            argument, name, value = FLAGS[flag]
            assert getattr(parsed_config([command, flag, argument]), name) == value
        for flag in FLAGS.keys() - kept:
            started = time.perf_counter()
            with pytest.raises(SystemExit) as info:
                main([command, flag, FLAGS[flag][0]])
            assert time.perf_counter() - started < 1
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err and flag in err
    for argv in SCRIPTED_COMMAND_LINES:
        assert parsed_config(argv).format == ("machine" if "--format" in argv else "table")
    assert not os.listdir(tmp_path)
