import re
import shlex
from pathlib import Path

import rainbowkernel
from rainbowkernel.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(set(rainbowkernel.__all__)) == len(rainbowkernel.__all__)
    missing = [name for name in rainbowkernel.__all__ if not hasattr(rainbowkernel, name)]
    assert not missing, missing


def test_readme_library_import_runs():
    library = README.read_text().split("## Library", 1)[1]
    found = re.search(r"```python\n(from rainbowkernel import \(.*?\))\n", library, re.S)
    assert found is not None
    namespace: dict = {}
    exec(found.group(1), namespace)
    assert callable(namespace["kernelize_tournament"])


def test_readme_cli_examples_parse():
    """Every `rainbowkernel` line of the README's command-line block parses
    (nothing runs), so the examples and the parser cannot drift apart."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rainbowkernel ")]
    assert {argv[0] for argv in examples} == {"gen", "kernelize", "solve", "verify"}
    for argv in examples:
        build_parser().parse_args(argv)
