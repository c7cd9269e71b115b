import re
from pathlib import Path

import rainbowkernel

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
