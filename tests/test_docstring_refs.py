"""Every Sphinx cross-reference to ``repro.…`` in the package resolves.

Docstrings point at the code they lean on (``:func:`~repro.x.y```); when
that code moves or goes, the pointer rots silently.  This test imports
the longest module prefix of each reference and walks the rest as
attributes, so a stale one fails here with its file and name.
"""

import importlib
import re
from pathlib import Path

import repro

_ROLE = re.compile(
    r":(?:mod|func|class|meth|data|attr|exc):`~?(repro(?:\.\w+)+)`"
)


def _references() -> list[tuple[str, str]]:
    root = Path(repro.__file__).parent
    return [
        (str(path.relative_to(root.parent)), match.group(1))
        for path in sorted(root.rglob("*.py"))
        for match in _ROLE.finditer(path.read_text())
    ]


def _resolve(name: str):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_every_reference_resolves():
    refs = _references()
    assert len(refs) > 100  # the scan itself still finds them
    stale = []
    for where, name in refs:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            stale.append(f"{where}: {name} ({exc})")
    assert stale == []
