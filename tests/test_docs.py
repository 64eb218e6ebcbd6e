"""The README's flag list, command lines and config example must match the code."""

import argparse
import re
import shlex
from pathlib import Path

from podreadout.cli import _build_parser
from podreadout.config import ExperimentConfig
from test_scripts import COMMANDS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_flags_and_config_keys_match_the_code():
    sentence = re.search(r"Global flags:(.*?)\.\s", README, re.S).group(1)
    named = set(re.findall(r"`(-[-\w]+)", sentence))
    options = [a.option_strings for a in _build_parser()._actions
               if a.option_strings and a.dest != "help"]
    assert all(named & set(strings) for strings in options), (named, options)
    assert named <= {o for strings in options for o in strings}, (named, options)

    block = re.search(r"## Configuration\s+```json\n(.*?)```", README, re.S).group(1)
    keys = set(re.findall(r'"(\w+)"\s*:', block))
    assert keys and keys <= set(ExperimentConfig.__dataclass_fields__), (
        keys - set(ExperimentConfig.__dataclass_fields__)
    )


def test_every_subcommand_is_in_the_readme_and_the_output_digests():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    block = re.search(r"## Command line\s.*?```bash\n(.*?)```", README, re.S).group(1)
    # each example line parses, and together they name every subcommand
    documented = {parser.parse_args(shlex.split(line.split("#")[0])[1:]).command
                  for line in block.splitlines() if line.strip()}
    assert set(sub.choices) <= documented, set(sub.choices) - documented
    # scripts/output_digests.py runs every subcommand but ingest (no config)
    digested = {command.split()[0] for command in COMMANDS}
    assert set(sub.choices) - {"ingest"} <= digested, set(sub.choices) - digested
