"""Setuptools shim.

All project metadata lives in ``pyproject.toml``; this file exists only so
that a legacy editable install — ``python setup.py develop --no-deps`` — works
in offline environments that lack the ``wheel`` package.
"""

from setuptools import setup

setup()
