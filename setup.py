"""Setuptools shim.

The canonical project metadata lives in ``pyproject.toml``; this file exists
so that ``pip install -e .`` (and ``python setup.py develop``) keep working in
offline environments whose setuptools predates PEP 660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
