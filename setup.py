"""Package metadata for the IANUS reproduction (the ``repro`` package).

All project metadata lives here.  The version has one source,
``__version__`` in ``src/repro/__init__.py``, which this script reads
without importing the package.  ``PYTHONPATH=src`` runs everything from a
checkout; ``pip install -e .`` installs the package in place.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE)

setup(
    name="repro",
    version=_VERSION.group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
