import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supercong
from supercong import cli, congruences, harness
from supercong.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_all(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "46 case(s)"
    assert len(lines) == 47
    assert any(line.startswith("GUO-64") and "[theorem]" in line
               for line in lines)


def test_module_entry_point(capsys):
    """`python -m supercong list` prints what cli.main(["list"]) prints."""
    src = str(Path(supercong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "supercong", "list"], env=env,
                          capture_output=True, text=True, timeout=60)
    code, out, _ = run_cli(capsys, "list")
    assert proc.returncode == code == 0 and proc.stdout == out


def test_list_filters(capsys):
    code, out, _ = run_cli(capsys, "list", "--glob", "BIN-3.*")
    assert code == 0 and out.strip().endswith("7 case(s)")
    code, out, _ = run_cli(capsys, "list", "--status", "conjecture")
    assert code == 0
    assert "CONJ-10N2" in out and "1 case(s)" in out
    with pytest.raises(SystemExit) as exc:
        main(["list", "--status", "theorm"])
    assert exc.value.code == 2


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "GUO-64", "--p", "5")
    assert code == 0
    assert "lhs=1678635/2097152" in out
    assert "observed=3 claimed>=3 -> PASS" in out


def test_verify_residue_backend(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "Z-20N3", "--p", "5",
                           "--backend", "residue")
    assert code == 0
    assert "backend=residue: lhs=15 rhs=15" in out


def test_verify_exact_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "MAO-I2-IDENT",
                           "--p", "5")
    assert code == 0
    assert "observed=inf exact equality -> PASS" in out


def test_verify_informational_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "Z-20N3-RAW",
                           "--p", "5")
    assert code == 0
    assert "FAIL (informational)" in out


def test_verify_honest_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "GZ-10N2", "--p", "5",
                           "--delta", "2", "--upper", "1")
    assert code == 1
    assert "-> FAIL" in out and "informational" not in out


def test_verify_family_member(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "FACT-INV", "--p", "5",
                           "--k", "4")
    assert code == 0
    assert "k=4 backend" in out
    assert "note: k=4" in out


def test_verify_p3_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "GZ-10N2", "--p", "3",
                           "--delta", "2", "--include-p3")
    assert code == 0
    assert "(informational)" in out


def test_usage_errors_exit_two(capsys):
    for argv in (["verify", "--case", "GUO-65", "--p", "5"],
                 ["verify", "--case", "GUO-64", "--p", "3"],
                 ["verify", "--case", "GUO-64", "--p", "4"],
                 ["verify", "--case", "VH-4K1", "--p", "5", "--r", "2"],
                 ["verify", "--case", "LEM-2.1", "--p", "5",
                  "--backend", "residue"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("argv, reason", [
    (["LEM-3.1", "--r", "2"],
     "LEM-3.1 has no residue path: its residue would only be its exact value reduced; "
     "use the exact backend"),
    (["MAO-I2-IDENT"],
     "MAO-I2-IDENT is an exact identity; residue reduction cannot certify equality"),
    (["WOLST-H1", "--upper", "7"],
     "WOLST-H1: term k=7 of series h1 has p = 7 in its denominator; use the exact backend"),
])
def test_residue_refusal_names_its_reason(capsys, argv, reason):
    code, out, err = run_cli(capsys, "verify", "--case", *argv, "--p", "7",
                             "--backend", "residue")
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_argparse_errors(capsys):
    for argv in (["verify", "--p", "5"], ["nope"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_wz_check(capsys):
    code, out, _ = run_cli(capsys, "wz-check", "--pair", "GUO64",
                           "--nmax", "8", "--kmax", "8")
    assert code == 0
    assert "telescoping on [0,8]x[1,8]: ok" in out
    assert "boundary identity at (N,K)=(8,4): ok" in out
    assert "boundary identity at (N,K)=(8,8): ok" in out

    code, out, _ = run_cli(capsys, "wz-check", "--pair", "all",
                           "--nmax", "6", "--kmax", "6")
    assert code == 0
    for pid in ("GL4K1", "GUO64", "GZ10N2", "Z20N3"):
        assert f"{pid}: telescoping" in out

    code, _, err = run_cli(capsys, "wz-check", "--pair", "NOPE")
    assert code == 2 and "unknown pair" in err
    code, _, err = run_cli(capsys, "wz-check", "--pair", "GUO64", "--nmax", "0")
    assert code == 2


def test_wz_check_runs_each_boundary_point_once(capsys):
    # at kmax 1 the two boundary points, (N, kmax // 2 or 1) and (N, kmax), are one
    code, out, _ = run_cli(capsys, "wz-check", "--pair", "GUO64",
                           "--nmax", "1", "--kmax", "1")
    assert code == 0
    assert out.count("boundary identity") == 1
    assert "GUO64: boundary identity at (N,K)=(1,1): ok\n" in out


def test_sweep_with_report(capsys, tmp_path):
    report = tmp_path / "run.csv"
    code, out, _ = run_cli(capsys, "sweep", "--primes", "5,7", "--rmax", "1",
                           "--glob", "*64*", "--report", str(report),
                           "--format", "csv")
    assert code == 0
    assert "checked 4 points: 4 pass, 0 fail, 0 informational, 0 error(s)" in out
    assert f"report written to {report}" in out
    header = report.read_text().splitlines()[0]
    assert header.split(",") == list(harness.RECORD_FIELDS)


def test_sweep_config_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("primes = 5\nr_max = 1\nglob = WOLST-*\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert "checked 3 points: 3 pass" in out
    # flags override file settings
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--glob", "WOLST-BIN")
    assert code == 0
    assert "checked 1 points: 1 pass" in out

    cfg.write_text("primes = 5\nnope = 1\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2 and "unknown key" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--jobs", "0", "jobs must be >= 1, got 0"),
    ("--rmax", "0", "r_max must be >= 1, got 0"),
    ("--deltas", "3", "deltas must be a non-empty subset of 1,2, got (3,)")])
def test_flag_overrides_of_a_config_file_are_validated(capsys, tmp_path, flag, value, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("primes = 5\nr_max = 1\nglob = WOLST-*\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_report_path_errors_are_usage_errors(capsys, tmp_path):
    # a missing directory is refused before the sweep runs
    missing = tmp_path / "missing" / "run.jsonl"
    code, out, err = run_cli(capsys, "sweep", "--primes", "5", "--glob", "VH-4K1",
                             "--report", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write report {missing}: no such directory\n"
    # so is a directory
    code, out, err = run_cli(capsys, "sweep", "--primes", "5", "--glob", "VH-4K1",
                             "--report", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write report {tmp_path}: is a directory\n"


def test_existing_report_is_kept_until_the_sweep_ends(capsys, tmp_path, monkeypatch):
    report = tmp_path / "run.jsonl"
    report.write_text("old\n")
    argv = ("sweep", "--primes", "5", "--glob", "VH-4K1", "--report", str(report))
    # an unwritable report is refused before the sweep, and left as it was
    with monkeypatch.context() as m:
        m.setattr(harness.os, "access", lambda path, mode: False)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write report {report}: permission denied\n"
    assert report.read_text() == "old\n"
    # a writable one is replaced only after the sweep
    during = []

    def sweep(config):
        during.append(report.read_text())
        return harness.run_sweep(config)

    monkeypatch.setattr(cli, "run_sweep", sweep)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and during == ["old\n"]
    assert harness.read_report(report)[1][0]["case_id"] == "VH-4K1"


def test_choice_lists_have_one_home():
    parser = cli._build_parser()
    sub = parser._subparsers._group_actions[0].choices
    choices = {(name, a.dest): a.choices for name, p in sub.items() for a in p._actions}
    assert choices["verify", "backend"] is congruences.BACKENDS
    assert choices["sweep", "backend"] is congruences.BACKENDS
    assert choices["sweep", "report_format"] is harness.REPORT_FORMATS
    with pytest.raises(ValueError, match="backend must be exact, residue, or both, "
                                         "got 'fast'"):
        congruences.evaluate_case("VH-4K1", congruences.CheckParams(p=5), "fast")
    with pytest.raises(harness.ConfigInvalid, match="report_format must be json-lines "
                                                    "or csv, got 'xml'"):
        harness.SweepConfig(report_format="xml")


def test_comma_lists_parse_alike_in_file_and_flags(capsys, tmp_path):
    primes, deltas = "5,,7, ", " 2,"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"primes = {primes}\ndeltas = {deltas}\nglob = VH-4K1\n")
    from_file = harness.parse_config(cfg)
    assert (from_file.primes, from_file.deltas) == ((5, 7), (2,))
    report = tmp_path / "run.jsonl"
    code, out, _ = run_cli(capsys, "sweep", "--primes", primes, "--deltas", deltas,
                           "--glob", "VH-4K1", "--report", str(report))
    assert code == 0 and "checked 2 points: 2 pass" in out
    meta, _ = harness.read_report(report)
    assert meta["config"] == from_file.echo()


@pytest.mark.parametrize("flag, value", [("--primes", "5,x"), ("--deltas", "1,x")])
def test_comma_list_flag_errors_name_the_format(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: expected comma-separated "
                        f"integers, got '{value}'\n"), err


def sweep_config(monkeypatch, capsys, *argv):
    """The SweepConfig that `sweep` with these arguments runs; no point is evaluated."""
    seen = []

    def run_sweep(config):
        seen.append(config)
        return harness.SweepReport(config, [])

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    code, _, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    return seen[0]


def test_each_option_has_one_home(monkeypatch, capsys, tmp_path):
    """Every SweepConfig field is set alike by its config-file key, by its
    sweep flag, and by the file read through --config."""
    report = str(tmp_path / "run.jsonl")
    options = {            # field: (file value, sweep flag)
        "primes": ("5, 7", ("--primes", "5,7")),
        "pmax": ("11", ("--pmax", "11")),
        "r_max": ("1", ("--rmax", "1")),
        "deltas": ("2", ("--deltas", "2")),
        "glob": ("VH-*", ("--glob", "VH-*")),
        "status": ("lemma", ("--status", "lemma")),
        "backend": ("exact", ("--backend", "exact")),
        "include_p3": ("true", ("--include-p3",)),
        "strict_conjectures": ("true", ("--strict-conjectures",)),
        "report_path": (report, ("--report", report)),
        "report_format": ("csv", ("--format", "csv")),
        "jobs": ("2", ("--jobs", "2")),
    }
    assert list(options) == list(harness.SweepConfig._fields)
    cfg, default = tmp_path / "sweep.cfg", harness.SweepConfig()
    for name, (value, flag) in options.items():
        cfg.write_text(f"{name} = {value}\n")
        from_file = harness.parse_config(cfg)
        set_value = getattr(from_file, name)
        assert set_value != getattr(default, name), name
        assert from_file == default._replace(**{name: set_value})
        assert sweep_config(monkeypatch, capsys, *flag) == from_file, name
        assert sweep_config(monkeypatch, capsys, "--config", str(cfg)) == from_file, name


def test_grid_flag_replaces_the_files_grid(monkeypatch, capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    for grid, flag in (("primes = 5, 7", ("--pmax", "11")), ("pmax = 11", ("--primes", "5,7"))):
        cfg.write_text(f"{grid}\nglob = VH-*\n")
        assert sweep_config(monkeypatch, capsys, "--config", str(cfg), *flag) == \
            sweep_config(monkeypatch, capsys, "--glob", "VH-*", *flag)


def test_row_prefix_point_builds_one_slice(capsys, monkeypatch, fresh_kernels):
    # LEM-3.2 reads the GUO64 row's prefix k = 1 .. (P-1)/2 = 24 at P = 49:
    # the running pass stops after it, and step(k) is called for k < 24 only
    calls, derive = [], congruences._derive

    def counted(name, *args):
        seed, step = derive(name, *args)
        return seed, lambda k: calls.append(k) or step(k)
    monkeypatch.setattr(congruences, "_derive", counted)
    code, out, _ = run_cli(capsys, "verify", "--case", "LEM-3.2", "--p", "7", "--r", "2")
    assert code == 0 and out.rstrip().endswith("-> PASS")
    assert [(key, run.k) for key, run in congruences._running.items()] == \
        [(("GUO64", (7, 2)), 25)]
    assert calls == list(range(1, 24))


def test_sweep_grid_flags_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--pmax", "7", "--primes", "5"])
    assert exc.value.code == 2


def test_sweep_strict_conjectures(capsys):
    base = ("sweep", "--primes", "5", "--rmax", "1", "--deltas", "2",
            "--glob", "CONJ-10N2")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and "0 pass, 0 fail, 1 informational" in out
    code, out, _ = run_cli(capsys, *base, "--strict-conjectures")
    assert code == 0 and "1 pass, 0 fail, 0 informational" in out


def test_sweep_reports_errors(capsys, monkeypatch):
    def boom(*a, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "evaluate_case", boom)
    code, out, _ = run_cli(capsys, "sweep", "--primes", "5", "--rmax", "1",
                           "--glob", "WOLST-BIN")
    assert code == 1
    assert "ERROR WOLST-BIN p=5 r=1: RuntimeError: boom" in out
    assert "1 error(s)" in out


def test_regress(capsys, tmp_path):
    report = tmp_path / "run.jsonl"
    code, _, _ = run_cli(capsys, "sweep", "--primes", "5", "--rmax", "1",
                         "--glob", "WOLST-*", "--report", str(report))
    assert code == 0

    code, out, _ = run_cli(capsys, "regress", "--report", str(report),
                           "--baseline", str(report))
    assert code == 0 and "no regressions" in out

    lines = report.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["pass"] = False
    rec["observed_valuation"] = 0
    baseline = tmp_path / "base.jsonl"
    baseline.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")

    code, out, _ = run_cli(capsys, "regress", "--report", str(report),
                           "--baseline", str(baseline))
    assert code == 1
    assert "CHANGE WOLST-BIN p=5 r=1 pass: False -> True" in out
    assert "2 regression(s)" in out

    code, _, err = run_cli(capsys, "regress", "--report", str(report),
                           "--baseline", str(tmp_path / "missing.jsonl"))
    assert code == 2 and "cannot read report" in err
