"""The README's flag list and config example must match the code."""

import re
from pathlib import Path

from podreadout.cli import _build_parser
from podreadout.config import ExperimentConfig

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
