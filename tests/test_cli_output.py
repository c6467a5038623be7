import subprocess
import sys

from supercong import harness
from supercong.cli import main


def test_error_lines_name_the_window(capsys, monkeypatch):
    def boom(*a, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "evaluate_case", boom)
    code = main(["sweep", "--primes", "5", "--rmax", "1", "--glob", "GZ-10N2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ERROR GZ-10N2 p=5 r=1 delta=1: RuntimeError: boom" in out
    assert "ERROR GZ-10N2 p=5 r=1 delta=2: RuntimeError: boom" in out


def test_import_leaves_int_str_limit_and_cli_prints_long_values():
    probe = ("import sys; d = sys.get_int_max_str_digits(); "
             "import supercong.harness; print(d, sys.get_int_max_str_digits())")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[0] == out[1]
    proc = subprocess.run([sys.executable, "-m", "supercong.cli", "verify",
                           "--case", "GZ-120N2-R", "--p", "47", "--r", "2",
                           "--delta", "1", "--backend", "exact"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lhs = proc.stdout.split(" lhs=")[1].split()[0]
    assert max(len(part) for part in lhs.split("/")) > int(out[0])
    assert proc.stdout.rstrip().endswith("-> PASS")


def test_int_str_limit_is_raised_only_when_it_is_lower():
    # 0 means the limit is switched off, and lifting must not switch it back on
    probe = ("import sys; import supercong.harness as h; h.allow_long_int_str(); "
             "print(sys.get_int_max_str_digits())")
    for given, after in (("0", "0"), ("3000000", "3000000"), ("4300", "2000000")):
        out = subprocess.run([sys.executable, "-X", f"int_max_str_digits={given}", "-c", probe],
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == [after], given
