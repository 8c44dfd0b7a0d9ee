import argparse
import re
import shutil
from pathlib import Path

from embeval.cli import build_parser
from conftest import DATA_DIR

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first Python code block after the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # a documented call that no longer exists fails here
    shutil.copy(DATA_DIR / "thesaurus_mini.nt", tmp_path / "thesaurus.nt")
    (tmp_path / "ssoar.de.vec").write_text(
        "4 2\nmacht 1 0\narmut 0.9 0.1\ngesellschaft 0 1\nungleichheit 0.5 0.5\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), str(README), "exec"), {})
    coverage_line, neighbors_line = capsys.readouterr().out.splitlines()
    assert 0.0 < float(coverage_line) < 100.0  # a percentage
    assert neighbors_line.startswith("[('armut', ")


def test_readme_names_exactly_the_options_of_the_subcommands():
    # a removed option still documented, or a new one left out, fails here
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for command in sub.choices.values() for action in command._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text(encoding="utf-8")))
    assert documented == options
