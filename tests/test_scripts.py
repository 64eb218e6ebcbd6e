import hashlib
import json
import subprocess
import sys
from pathlib import Path

from podreadout.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
TINY_TRANSIENT = dict(problem="transient", nx=16, ny=16, window=[0, 5], period=8,
                      target_step=7, chi_cap=8, shot_grid=[500], seeds=[0])
TINY_CAVITY = dict(problem="cavity", nx=16, ny=16, reynolds=[100, 200], target_reynolds=150,
                   chi_cap=8, shot_grid=[500], seeds=[0])
COMMANDS = ["solve", "offline", "sweep", "param-study", "readout --shots 10000",
            "visualize --shots 10000", "depth-study --sizes 256",
            "--help", "readout --shots ten"]
USAGE_ERROR = "readout --shots ten"  # exits 2 while parsing, on any config
EMPTY = hashlib.sha256(b"").hexdigest()  # the digest of a silent stderr


def digests(cfg, out):
    """output_digests.py's printout for cfg written into out, its file names
    and {command: exit code}; each command's stdout line comes before its
    stderr line, with the same exit code, and a command that exits 0 writes
    nothing to stderr."""
    argv = [sys.executable, str(SCRIPT), str(cfg), str(out), "--sizes", "256"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert names[:len(files)] == files
    streams = lines[len(files):]
    exits = dict(line.split("  stdout:", 1)[1].rsplit(" exit=", 1)
                 for line in streams[:len(COMMANDS)])
    assert list(exits) == COMMANDS
    assert [line.split("  ", 1)[1] for line in streams[len(COMMANDS):]] == [
        f"stderr:{command} exit={code}" for command, code in exits.items()]
    for line, code in zip(streams[len(COMMANDS):], exits.values()):
        assert (line.split("  ")[0] == EMPTY) == (code == "0"), line
    return proc.stdout, files, exits


def test_output_digests_lists_every_file_and_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_TRANSIENT))
    printout, files, exits = digests(cfg, tmp_path / "out")
    assert "visual/PODR_psi.svg" in files
    assert exits == {c: "2" if c == USAGE_ERROR else "0" for c in COMMANDS}
    # a second run into a fresh directory prints the same digests
    assert digests(cfg, tmp_path / "again")[0] == printout


def test_output_digests_of_a_cavity_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CAVITY))
    printout, files, exits = digests(cfg, tmp_path / "out")
    assert any(name.startswith("fields/") for name in files)
    assert exits == {c: "2" if c == USAGE_ERROR else "0" for c in COMMANDS}
    # the field store's file names repeat too
    assert digests(cfg, tmp_path / "again")[0] == printout


def test_output_digests_of_an_ingested_config(tmp_path):
    # the snapshot files come from `podr solve` on the tiny transient
    transient = tmp_path / "transient.json"
    transient.write_text(json.dumps(TINY_TRANSIENT))
    solved = tmp_path / "solved"
    assert main(["--config", str(transient), "--out", str(solved), "solve"]) == 0
    cfg = tmp_path / "ingested.json"
    cfg.write_text(json.dumps(dict(
        problem="ingested", nx=16, ny=16, snapshot_ux=str(solved / "ensemble_ux.pods"),
        snapshot_uy=str(solved / "ensemble_uy.pods"), target_index=5, chi_cap=8,
        shot_grid=[500], seeds=[0],
    )))
    printout, files, exits = digests(cfg, tmp_path / "out")
    assert "manifest.json" in files and "visual/PODR_psi.svg" in files
    # one grid and no parameter axis: neither study can run
    assert exits == {c: "2" if c.split()[0] in ("param-study", "depth-study")
                     or c == USAGE_ERROR else "0" for c in COMMANDS}
    assert digests(cfg, tmp_path / "again")[0] == printout
