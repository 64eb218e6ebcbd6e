"""Run one podr command in this process: child.py [--spans FILE] -- PODR_ARGS

Imports podreadout from the checkout's ``src`` (never an installed copy) and
calls ``podreadout.cli.main``.  With ``--spans`` the layer functions are
traced and the spans are written to FILE when the command ends.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import podreadout
    from podreadout import cli

    if not Path(podreadout.__file__).resolve().is_relative_to(src):
        print(f"podreadout imported from {podreadout.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(podreadout)
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        if tracer is not None:
            tracer.restore()
            Path(spans_path).write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
