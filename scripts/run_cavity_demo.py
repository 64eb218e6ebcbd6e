#!/usr/bin/env python3
"""End-to-end cavity demo: offline stage, shot sweep, and solution panels.

Runs the case-1 desk configuration (64x64 grid, ten Reynolds numbers) and
leaves CSV/SVG output under out/cavity_case1.  Expect about three seconds
for the eleven steady solves (ten Reynolds numbers and the target) on the
first run.  Reruns skip every solve: the offline artifacts are reused and the
fields load from out/cavity_case1/fields/.
"""

import pathlib
import sys

from podreadout.cli import main

HERE = pathlib.Path(__file__).resolve().parent.parent
CFG = str(HERE / "configs" / "cavity_case1.json")

if __name__ == "__main__":
    for command in (["offline"], ["sweep"], ["visualize", "--shots", "10000"]):
        code = main(["--config", CFG, "-v", *command])
        if code != 0:
            sys.exit(code)
    print("done; see out/cavity_case1/")
