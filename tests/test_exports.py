"""Every ``repro`` module's ``__all__`` names objects the module has, once
each, and every document a module cites is in the repository.

A stale entry breaks only ``from repro.<package> import *``, which nothing
else runs, so this test imports every module and resolves each name.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _module_names() -> list[str]:
    """Every module of the package, from the files on disk."""
    names = []
    for path in sorted(ROOT.rglob("*.py")):
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_export_resolves_once():
    problems = []
    for name in _module_names():
        module = importlib.import_module(name)
        exported = list(getattr(module, "__all__", ()))
        for export in sorted(set(exported)):
            if exported.count(export) > 1:
                problems.append(f"{name}.__all__ lists {export!r} {exported.count(export)} times")
            if not hasattr(module, export):
                problems.append(f"{name}.__all__ lists {export!r}, which it does not define")
    assert problems == []


def test_modules_cite_only_documents_in_the_repository():
    repo = ROOT.parents[1]
    missing = []
    for path in sorted(ROOT.rglob("*.py")):
        for name in re.findall(r"[\w./-]+\.md\b", path.read_text()):
            if not (repo / name).is_file():
                missing.append(f"{path.relative_to(repo)} cites {name}")
    assert missing == []
