"""CLI behavior: subcommands, exit codes, and output formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from g1rad import cli, g1gen, runner, serialize


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_tiny_run_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "lemma21a", "--dims", "2",
        "--trials", "2", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["suites"] == ["lemma21a"]
    assert len(doc["details"]) == 2
    assert "RESULT: PASS" in err


def test_verify_labels_trial_time_and_prints_wall_and_cpu(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suites", "lemma21a,lemma21e", "--dims", "2",
        "--trials", "2", "--format", "csv")
    assert code == 0
    suite_lines = [line for line in err.splitlines() if line.startswith("lemma21")]
    assert len(suite_lines) == 2
    assert all(", trial time " in line for line in suite_lines)
    totals = [line for line in err.splitlines() if line.startswith("total: ")]
    assert len(totals) == 1
    assert totals[0].startswith("total: wall ") and ", cpu " in totals[0]


def test_verify_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "lemma21f", "--dims", "2",
        "--trials", "1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["suites"][0]["suite"] == "lemma21f"


def test_verify_reports_an_unwritable_out_path(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "verify", "--suites", "lemma21f", "--dims", "2",
        "--trials", "1", "--out", str(tmp_path / "missing" / "report.json"))
    assert (code, out) == (2, "")
    assert "cannot write report" in err
    # it fails before the run: no suite line, no timing line
    assert "lemma21f:" not in err
    assert "total:" not in err


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "lemma21a", "--dims", "2",
        "--trials", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,ratio,pass,seed,dim"
    assert len(lines) == 2


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "bogus")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag, value", [("--dims", ""), ("--suites", ",")])
def test_verify_rejects_an_empty_list(capsys, flag, value):
    code, _, err = run_cli(capsys, "verify", flag, value, "--trials", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag, value", [("--suites", "thm22,thm22"), ("--dims", "2,3,2")])
def test_verify_rejects_a_repeated_entry(capsys, flag, value):
    # a repeat would rerun the same seeded trials and count each twice
    code, out, err = run_cli(capsys, "verify", flag, value, "--trials", "1")
    assert code == 2
    assert out == "" and "must not repeat" in err


def test_verify_rejects_bad_rho(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suites", "lemma21a",
                         "--dims", "2", "--trials", "1", "--rho-max", "1.5")
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--atoms", "1000000000000"), ("--dims", "100000000"),
                                         ("--replay", "cor23:100000000:0")])
def test_verify_refuses_an_oversized_trial_before_drawing(capsys, flag, value):
    # a replay takes its dim from its spec, not from --dims
    code, out, err = run_cli(capsys, "verify", "--suites", "cor23", "--dims", "2",
                             "--trials", "1", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "past" in err


def test_replay_matches_library_call(capsys):
    cfg = runner.TrialConfig(master_seed=5, dims=(2,), trials_per_suite=2,
                             suites=("thm22",))
    expected = runner.run_trial(cfg, "thm22", 2, 1)
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "thm22", "--dims", "2",
        "--trials", "2", "--seed", "5", "--replay", "thm22:2:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == expected.name
    assert doc["lhs"] == expected.lhs
    assert doc["rhs"] == expected.rhs
    assert doc["ratio"] == expected.ratio
    assert doc["seed"] == expected.seed
    assert out == serialize.dumps(runner.report_to_json(expected)) + "\n"


REPLAY = ("verify", "--suites", "thm22", "--dims", "4", "--trials", "8", "--replay", "thm22:4:7")


def test_replay_csv_is_the_header_and_the_batch_row_of_its_trial(capsys):
    code, batch, _ = run_cli(capsys, *REPLAY[:-2], "--format", "csv")
    assert code == 0
    lines = batch.splitlines(keepends=True)
    code, out, _ = run_cli(capsys, *REPLAY, "--format", "csv")
    assert code == 0
    assert out == lines[0] + lines[1 + 7]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_replay_out_writes_what_stdout_gets(tmp_path, capsys, fmt):
    _, expected, _ = run_cli(capsys, *REPLAY, "--format", fmt)
    path = tmp_path / f"replay.{fmt}"
    code, out, err = run_cli(capsys, *REPLAY, "--format", fmt, "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text(encoding="utf-8") == expected
    assert f"report written to {path}" in err


def test_replay_reports_an_unwritable_out_path(capsys, tmp_path):
    code, out, err = run_cli(capsys, *REPLAY, "--out", str(tmp_path / "missing" / "r.csv"))
    assert (code, out) == (2, "")
    assert "cannot write report" in err


def test_replay_bad_spec(capsys):
    code, _, _ = run_cli(capsys, "verify", "--replay", "thm22:2")
    assert code == 2


def test_certify_accepts_normal_operator(tmp_path, capsys):
    op = g1gen.random_g1(seed=1, n=3, rho_max=0.8)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(serialize.g1operator_to_json(op)))
    code, out, _ = run_cli(capsys, "certify", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] <= 1e-8
    assert doc["unitary"] is True


def test_certify_rejects_jordan_block(tmp_path, capsys):
    obj = serialize.matrix_to_json(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    obj["spectrum"] = [[0.5, 0.0], [0.5, 0.0]]
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "certification failed" in err


def test_certify_rejects_a_non_normal_bare_matrix(tmp_path, capsys):
    # its sampled certificate is about 1.8e-8, but ||A*A - AA*||_F / ||A||_F^2
    # is about 1.5e-5, and a finite-dimensional G1 matrix is normal
    obj = serialize.matrix_to_json(np.array([[0.5, 1e-5], [0.0, 0.2]], dtype=complex))
    obj["spectrum"] = [[0.5, 0.0], [0.2, 0.0]]
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "certification failed: matrix is not normal within tolerance\n"


def test_certify_rejects_a_bare_matrix_whose_spectrum_lacks_an_eigenvalue(tmp_path, capsys):
    # the 0.05-ring around the filed 0.45 passes through the true eigenvalue
    # 0.5, where the sweep meets a singular resolvent
    obj = serialize.matrix_to_json(np.diag([0.5, 0.2]).astype(complex))
    obj["spectrum"] = [[0.45, 0.0], [0.1, 0.0]]
    path = tmp_path / "wrong-spectrum.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == ("certification failed: the resolvent is singular at a test point away "
                   "from the filed spectrum (pivot 0.000e+00 below threshold): the matrix has "
                   "an eigenvalue that the spectrum lacks, or is far from normal\n")


def test_certify_reports_a_failed_certificate_before_a_wrong_d(tmp_path, capsys):
    # the certificate is checked first, so the wrong d never surfaces as a parse error
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    obj = {"matrix": serialize.matrix_to_json(jordan),
           "spectrum": [[0.5, 0.0], [0.5, 0.0]], "unitary": None, "d": 0.9}
    path = tmp_path / "jordan-bundle.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "certification failed" in err


@pytest.mark.parametrize("layout", ["bare", "bundle"])
def test_certify_rejects_a_short_spectrum_as_malformed(tmp_path, capsys, layout):
    # one eigenvalue for a 2x2 matrix: a malformed file, not a failed certificate
    matrix = serialize.matrix_to_json(np.diag([0.5, -0.3]).astype(complex))
    spectrum = [[0.5, 0.0]]
    if layout == "bare":
        obj = dict(matrix, spectrum=spectrum)
    else:
        obj = {"matrix": matrix, "spectrum": spectrum, "unitary": None, "d": 0.5}
    path = tmp_path / f"short-{layout}.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 2
    assert "inconsistent operator file" in err


def test_certify_rejects_a_nan_d(tmp_path, capsys):
    # NaN compares false with everything, so each tolerance check must fail on it
    obj = serialize.g1operator_to_json(g1gen.random_g1(seed=2, n=3, rho_max=0.8))
    obj["d"] = float("nan")
    path = tmp_path / "nan-d.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "inconsistent operator file" in err


def test_certify_checks_a_bundle_d_within_d_tol(tmp_path, capsys):
    op = g1gen.random_g1(seed=2, n=3, rho_max=0.8)
    obj = serialize.g1operator_to_json(op)
    path = tmp_path / "op.json"
    path.write_text(serialize.dumps(dict(obj, d=op.d + 2.0 * g1gen.D_TOL)))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert (code, out) == (2, "")
    assert "d does not match" in err
    path.write_text(serialize.dumps(dict(obj, d=op.d + 0.5 * g1gen.D_TOL)))
    code, out, _ = run_cli(capsys, "certify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["d"] == op.d


@pytest.mark.parametrize("spectrum", ['[["0.5", 0], [0.2, 0]]', '[[0.5, 0], [0.2, false]]',
                                      '[[0.5, 0], [0.2, 1e999999]]', '[[0.5, 0], [0.2, 0, 0]]',
                                      '[[0.5, 0], 0.2]'])
def test_certify_rejects_a_spectrum_entry_that_is_not_a_number(tmp_path, capsys, spectrum):
    path = tmp_path / "bare.json"
    path.write_text('{"n": 2, "re": [[0.5, 0], [0, 0.2]], "im": [[0, 0], [0, 0]], '
                    '"spectrum": %s}' % spectrum)
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# g1rad certify stdout, to the byte, for the operator files that the bench's
# certify-files workload writes at its default seed
CERTIFY_GOLDEN = {
    (4, "bundle"): '{"certificate": 3.9968028886505635e-15, "d": 0.25413343770538099, "n": 4, "unitary": true}\n',
    (4, "bare"): '{"certificate": 3.1086244689504383e-15, "d": 0.22594258201713113, "n": 4, "unitary": false}\n',
    (8, "bundle"): '{"certificate": 6.4392935428259079e-15, "d": 0.21414707976681713, "n": 8, "unitary": true}\n',
    (8, "bare"): '{"certificate": 1.0880185641326534e-14, "d": 0.23448345214557942, "n": 8, "unitary": false}\n',
    (16, "bundle"): '{"certificate": 6.1506355564233672e-14, "d": 0.20012046679630846, "n": 16, "unitary": true}\n',
    (16, "bare"): '{"certificate": 9.3258734068513149e-15, "d": 0.2750190124715497, "n": 16, "unitary": false}\n',
}


@pytest.mark.parametrize("n, layout", sorted(CERTIFY_GOLDEN))
def test_certify_output_is_pinned(tmp_path, capsys, n, layout):
    op = g1gen.random_g1(runner.trial_seed(42, f"certify-{layout}", n, 0), n, 0.8)
    if layout == "bundle":
        obj = serialize.g1operator_to_json(op)
    else:
        obj = dict(serialize.matrix_to_json(op.matrix),
                   spectrum=serialize.spectrum_to_json(op.spectrum))
    path = tmp_path / f"op-n{n}-{layout}-0.json"
    path.write_text(serialize.dumps(obj) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "certify", "--input", str(path))
    assert code == 0
    assert out == CERTIFY_GOLDEN[(n, layout)]


# bytes that are not UTF-8, and nesting deep enough to exhaust json's recursion
UNDECODABLE = [b'\xff\xfe{"n": 1}', b"[" * 100_000 + b"]" * 100_000]


def test_certify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("nope")
    code, _, _ = run_cli(capsys, "certify", "--input", str(path))
    assert code == 2
    for raw in UNDECODABLE:
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "certify", "--input", str(path))
        assert (code, out) == (2, "")
        assert "invalid JSON" in err


def test_wrad_prints_radius(tmp_path, capsys):
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(serialize.matrix_to_json(shift)))
    code, out, _ = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-10)


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(serialize.matrix_to_json(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for source in (path, tmp_path / "missing.json"):
        child = subprocess.run([sys.executable, "-m", "g1rad", "wrad", "--input", str(source)],
                               env=env, capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stdout, child.stderr) == run_cli(
            capsys, "wrad", "--input", str(source))


def test_wrad_near_the_largest_double(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(serialize.matrix_to_json(np.diag([1e308, -0.5e308]))))
    code, out, _ = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1e308, rel=1e-12)
    # w = 2e308 is past the largest double
    path.write_text(json.dumps(serialize.matrix_to_json(np.full((2, 2), 1e308))))
    code, out, err = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "exceeds the largest double" in err


def test_wrad_at_tiny_scales(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    tiny = '{"n": 2, "re": [[1e-%d, 2e-%d], [0, -1e-%d]], "im": [[0, 0], [3e-%d, 0]]}'
    path.write_text(tiny % ((300,) * 4))
    code, out, _ = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] == 2.6060278711382018e-300
    # subnormal entries: one factor 2^-e would overflow for e < -1023
    path.write_text(tiny % ((320,) * 4))
    code, out, _ = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] > 0.0


def test_wrad_rejects_a_boolean_dimension(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"n": true, "re": [[0.5]], "im": [[0]]}')
    code, out, err = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "field 'n' has wrong type" in err


@pytest.mark.parametrize("real", ['[["0.5"]]', "[[true]]", "[[null]]", "[[[0.5]]]", "[0.5]",
                                  "[[" + "9" * 400 + "]]"])
def test_wrad_rejects_an_entry_that_is_not_a_number(tmp_path, capsys, real):
    # np.asarray(..., dtype=float64) alone reads "0.5" as 0.5 and true as 1.0
    path = tmp_path / "entry.json"
    path.write_text('{"n": 1, "re": %s, "im": [[0]]}' % real)
    code, out, err = run_cli(capsys, "wrad", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix entries")


def test_certify_rejects_a_boolean_d(tmp_path, capsys):
    obj = serialize.g1operator_to_json(g1gen.random_g1(seed=2, n=3, rho_max=0.8))
    obj["d"] = True
    path = tmp_path / "bool-d.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "field 'd' has wrong type" in err


def test_certify_rejects_a_d_too_large_for_a_double(tmp_path, capsys):
    obj = serialize.g1operator_to_json(g1gen.random_g1(seed=2, n=3, rho_max=0.8))
    obj["d"] = 10 ** 400
    path = tmp_path / "huge-d.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert (code, out) == (2, "")
    assert "field 'd' is too large for a double" in err


def test_wrad_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "re": [[0]]}')
    code, _, _ = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 2
    for raw in UNDECODABLE:
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "wrad", "--input", str(path))
        assert (code, out) == (2, "")
        assert "invalid JSON" in err


def test_wrad_unreadable_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "wrad", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "wrad", "--input", str(path))
    assert code == 2
    assert "invalid JSON" in err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# every caller enters through a submodule, which runs the package root first
IMPORTS = ("g1rad", "g1rad.wradius", "g1rad.cli")


def _python_output(code, env):
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def _blas_env_after_import(env, module):
    code = "import os, %s; print(' '.join(os.environ[v] for v in %r))" % (module, BLAS_VARS)
    return _python_output(code, env).split()


def test_import_pins_blas_to_one_thread_by_default():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    for module in IMPORTS:
        assert _blas_env_after_import(env, module) == ["1", "1", "1"], module


def test_import_keeps_a_blas_thread_setting():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3", MKL_NUM_THREADS="4")
    for module in IMPORTS:
        assert _blas_env_after_import(env, module) == ["2", "3", "4"], module


def test_package_root_imports_no_numpy():
    # the BLAS pin holds only if numpy is imported after it
    code = "import sys, g1rad; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert _python_output(code, env).split() == ["False"]


def test_commands_never_load_scipy_linalg(tmp_path):
    # numpy's LAPACK is the only one that verify, wrad and the certify sweep
    # of a well-conditioned file need; scipy.linalg loads only for the
    # resolvent points that linalg.resolvents' pivot bound cannot clear
    op = g1gen.random_g1(seed=5, n=4, rho_max=0.8)
    matrix, bundle, bare = (tmp_path / f"{name}.json" for name in ("matrix", "bundle", "bare"))
    matrix.write_text(serialize.dumps(serialize.matrix_to_json(op.matrix)))
    bundle.write_text(serialize.dumps(serialize.g1operator_to_json(op)))
    bare.write_text(serialize.dumps(dict(serialize.matrix_to_json(op.matrix),
                                         spectrum=serialize.spectrum_to_json(op.spectrum))))
    code = (
        "import sys\n"
        "from g1rad import cli\n"
        "codes = [cli.main(['verify', '--suites', 'all', '--dims', '2', '--trials', '2',"
        " '--format', 'csv']),\n"
        "         cli.main(['wrad', '--input', sys.argv[1]]),\n"
        "         cli.main(['certify', '--input', sys.argv[2]]),\n"
        "         cli.main(['certify', '--input', sys.argv[3]])]\n"
        "print(codes, 'scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code, str(matrix), str(bundle), str(bare)],
                           env=env, check=True, capture_output=True, text=True, timeout=120)
    assert child.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


def test_verify_exit_code_on_failed_check(monkeypatch, capsys):
    # a genuine violation cannot be produced by honest inputs, so doctor the
    # runner to confirm the exit-code contract
    from g1rad.ineq import InequalityReport

    bad = InequalityReport("lemma21a", 2.0, 1.0, 2.0, False, 1, 2)
    fake = runner.RunResult(
        suites=[runner.SuiteReport("lemma21a", 1, 0, 2.0, 1, 2, 0.0)],
        details=[bad],
    )
    monkeypatch.setattr(cli, "run_suite", lambda config: fake)
    code, _, err = run_cli(capsys, "verify", "--suites", "lemma21a",
                           "--dims", "2", "--trials", "1")
    assert code == 1
    assert "RESULT: FAIL" in err
