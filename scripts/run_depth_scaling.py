#!/usr/bin/env python3
"""Depth-vs-grid-size study on the cavity ensemble (case-2 thresholds).

Grid sizes 32^2 and 64^2 by default; pass e.g. --sizes 1024,4096,16384 to
add the 128^2 point (about half a minute of extra solver time).
"""

import pathlib
import sys

from podreadout.cli import main

HERE = pathlib.Path(__file__).resolve().parent.parent
CFG = str(HERE / "configs" / "cavity_case1.json")

if __name__ == "__main__":
    args = sys.argv[1:] or ["--sizes", "1024,4096"]
    sys.exit(main(["--config", CFG, "-v", "depth-study", *args]))
