"""Package metadata for the Szalinski reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` and the
``szalinski`` command-line entry point.  The metadata lives here rather than
in a ``pyproject.toml`` so that the editable install also works on offline
machines whose pip cannot build PEP 660 editable wheels (no ``wheel``
package available).
"""

from setuptools import find_packages, setup

setup(
    name="szalinski-repro",
    version="0.1.0",
    description=(
        "Synthesizing structured CAD models with equality saturation and "
        "inverse transformations"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["szalinski = repro.cli:main"]},
)
