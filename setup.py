"""Packaging for the ``repro`` library under ``src/``.

This file is the project's whole packaging description (there is no
``pyproject.toml``).  ``pip install -e .`` — or, offline with a setuptools
that lacks ``bdist_wheel``, ``python setup.py develop`` — makes ``import
repro`` work outside the repository.  The test suite needs no install: it
runs with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
