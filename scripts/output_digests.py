#!/usr/bin/env python3
"""Digest everything the podr subcommands write for one config.

    python scripts/output_digests.py CONFIG OUT [--sizes 1024,4096]

Runs solve, offline, sweep, param-study, readout --shots 10000,
visualize --shots 10000 and depth-study (with --sizes when given) on CONFIG,
each as its own `python -m podreadout` process writing into OUT, then
--help and one usage error (readout --shots ten), which exit while parsing
the arguments, and prints
`sha256  relpath` for every file under OUT (fields/ and visual/ included),
then one `sha256  stdout:COMMAND exit=CODE` line per command and one
`sha256  stderr:COMMAND exit=CODE` line per command, with OUT masked in both
and this tree's root also masked in the stderr (warnings name source files).
Two trees are byte-identical on CONFIG when their printouts are; the stderr
lines show where an error or warning message differs.  The names of fields/
files digest flow.py's bytes, so an edit of flow.py renames them: then
compare the sorted digest column of fields/.
OUT should be empty or missing: an existing field store or manifest is
reused.  BLAS threads default to 1 (fields solved on 64x64 grids and finer
differ in the last bits across thread counts).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("--sizes", help="depth-study --sizes (default: the config's grid_sizes)")
    args = ap.parse_args(argv)
    out = os.path.abspath(args.out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    commands = [["solve"], ["offline"], ["sweep"], ["param-study"],
                ["readout", "--shots", "10000"], ["visualize", "--shots", "10000"],
                ["depth-study", *(["--sizes", args.sizes] if args.sizes else [])],
                ["--help"], ["readout", "--shots", "ten"]]
    streams = {"stdout": [], "stderr": []}
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "podreadout", "--config", args.config, "--out", out,
             *command], env=env, capture_output=True)
        for name, lines in streams.items():
            data = getattr(proc, name).replace(out.encode(), b"<OUT>")
            if name == "stderr":  # warnings name this tree's source files
                data = data.replace(str(ROOT).encode(), b"<ROOT>")
            lines.append(f"{sha256(data)}  {name}:{' '.join(command)} exit={proc.returncode}")
    root = pathlib.Path(out)
    files = sorted(p for p in root.rglob("*") if p.is_file()) if root.exists() else []
    for path in files:
        print(f"{sha256(path.read_bytes())}  {path.relative_to(root).as_posix()}")
    print("\n".join(streams["stdout"] + streams["stderr"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
