import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh(statement: str) -> list[str]:
    """The words a fresh interpreter prints running `statement`."""
    src = str(Path(rainbowkernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", statement], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.split()


def _loaded_after(statement: str) -> set[str]:
    """The `rainbowkernel` modules a fresh interpreter holds after `statement`."""
    return set(_fresh(f"import sys\n{statement}\n"
                      "print(*(m for m in sys.modules if m.partition('.')[0] == 'rainbowkernel'))"))


def test_instance_io_loads_no_kernel_module():
    assert _loaded_after("import rainbowkernel.instances") == {
        "rainbowkernel", "rainbowkernel.errors", "rainbowkernel.graphs", "rainbowkernel.instances"}


def test_one_kernel_loads_not_the_other():
    loaded = _loaded_after("from rainbowkernel import kernelize_p3")
    assert "rainbowkernel.p3" in loaded
    assert not loaded & {f"rainbowkernel.{m}" for m in ("tournament", "demand", "intervals", "cli")}


def test_namespace_lists_and_binds_every_export():
    assert set(rainbowkernel.__all__) <= set(_fresh("import rainbowkernel\nprint(*dir(rainbowkernel))"))
    namespace: dict = {}
    exec("from rainbowkernel import *", namespace)
    assert len(rainbowkernel.__all__) == 30
    assert all(namespace[name] is getattr(rainbowkernel, name) for name in rainbowkernel.__all__)


def test_unknown_name_raises_and_submodules_import():
    with pytest.raises(AttributeError, match="^module 'rainbowkernel' has no attribute 'kernelise_p3'$"):
        rainbowkernel.kernelise_p3
    from rainbowkernel import cli
    assert cli.main is rainbowkernel.cli.main
