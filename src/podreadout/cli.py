"""Command-line front end.

Subcommands: solve, offline, readout, sweep, param-study, depth-study,
visualize, ingest.  Exit codes: 0 success, 2 config or input-format error
or a file that cannot be read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError, NumericalError, SnapshotFormatError


def _build_parser():
    p = argparse.ArgumentParser(prog="podr", description=__doc__)
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--out", help="override the config output directory")
    p.add_argument("--seed", type=int, help="replace the config seed list with one seed")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", help="generate and persist the snapshot ensemble")
    sub.add_parser("offline", help="build POD bases and compressed encodings")
    r = sub.add_parser("readout", help="single readout per method at one budget")
    r.add_argument("--shots", type=int, default=None)
    sub.add_parser("sweep", help="full method x shots x seeds sweep")
    sub.add_parser("param-study", help="projection error across the parameter sweep")
    d = sub.add_parser("depth-study", help="circuit depth vs grid size")
    d.add_argument("--sizes", help="comma-separated grid sizes (total points)")
    vz = sub.add_parser("visualize", help="export solution panels per method")
    vz.add_argument("--shots", type=int, default=10_000)
    ing = sub.add_parser("ingest", help="convert CSV snapshots or validate a file")
    ing.add_argument("inputs", nargs="+", help="CSV snapshot files or one .pods file")
    ing.add_argument("--to", help="output .pods path for CSV conversion")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    from . import commands  # numpy and the lab load here, once parsing succeeded

    try:
        return commands.run(args)
    except (ConfigError, SnapshotFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
