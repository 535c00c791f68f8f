"""The public surface: `dreamer.__all__` resolves and covers the README."""

import re
from pathlib import Path

import dreamer

README = Path(__file__).parents[1] / "README.md"


def readme_imports() -> set:
    """Names the README's code blocks import with `from dreamer import ...`."""
    blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(), re.S | re.M)
    names = set()
    for block in blocks:
        for grouped, plain in re.findall(
                r"from dreamer import (?:\(([^)]*)\)|([\w ,]+))", block):
            names.update(n for n in re.split(r"[\s,]+", grouped or plain) if n)
    return names


def test_every_exported_name_resolves():
    missing = [name for name in dreamer.__all__ if not hasattr(dreamer, name)]
    assert not missing, missing


def test_readme_imports_only_exported_names():
    names = readme_imports()
    assert {"DreamerModel", "TaskSpec", "train", "match_model"} <= names
    assert names <= set(dreamer.__all__), sorted(names - set(dreamer.__all__))
