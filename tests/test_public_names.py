"""The public surface: `spikesim.__all__` is exactly the list of public names
in the README, each under the module that defines it."""

import importlib
import re
from pathlib import Path

import spikesim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_public_names():
    """(module, name) for each name listed under the README's "Public names",
    one bullet per module, wrapped lines indented by two spaces."""
    section = README.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    items = re.findall(r"^- ([\w.]+): (.*(?:\n  .*)*)", section, flags=re.M)
    return [(module, name) for module, names in items
            for name in re.findall(r"`([^`]+)`", names)]


def test_all_is_the_readme_list():
    listed = [name for _, name in readme_public_names()]
    assert len(set(listed)) == len(listed), "a name is listed twice in the README"
    assert len(set(spikesim.__all__)) == len(spikesim.__all__)
    unlisted = sorted(set(spikesim.__all__) - set(listed))
    assert not unlisted, f"public but not listed in the README: {unlisted}"
    missing = sorted(set(listed) - set(spikesim.__all__))
    assert not missing, f"listed in the README but not public: {missing}"


def test_each_listed_name_is_its_modules():
    for module, name in readme_public_names():
        assert getattr(spikesim, name) is getattr(importlib.import_module(module), name), \
            f"{name} is not {module}.{name}"


def test_the_library_example_imports_public_names_only():
    example = README.split("```python\n", 1)[1].split("```", 1)[0]
    imported = re.search(r"from spikesim import \(([^)]*)\)", example).group(1)
    names = re.findall(r"\w+", imported)
    assert names and set(names) <= set(spikesim.__all__)
