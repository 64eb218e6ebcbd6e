import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def test_output_digests_lists_every_file_and_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        problem="transient", nx=16, ny=16, window=[0, 5], period=8, target_step=7,
        chi_cap=8, shot_grid=[500], seeds=[0],
    )))
    out = tmp_path / "out"
    argv = [sys.executable, str(SCRIPT), str(cfg), str(out), "--sizes", "256"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert names[:len(files)] == files and "visual/PODR_psi.svg" in files
    assert names[len(files):] == [
        "stdout:solve exit=0", "stdout:offline exit=0", "stdout:sweep exit=0",
        "stdout:param-study exit=0", "stdout:readout --shots 10000 exit=0",
        "stdout:visualize --shots 10000 exit=0", "stdout:depth-study --sizes 256 exit=0",
    ]
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    # a second run into a fresh directory prints the same digests
    again = subprocess.run(argv[:3] + [str(tmp_path / "again"), *argv[4:]],
                           capture_output=True, text=True, timeout=300)
    assert again.stdout == proc.stdout
