"""Setuptools shim.

The project metadata lives in ``pyproject.toml``, which names no build
backend on purpose: that keeps ``pip install --no-use-pep517 -e .`` valid
(pip wants the ``wheel`` package installed for it), so an offline
environment can install the checkout with the setuptools it already has
instead of building in an isolated environment that has to download one.
pip then runs the legacy ``setup.py develop`` through this shim; running
``python setup.py develop`` directly works without ``wheel`` too.
Setuptools 61 or newer reads the metadata from ``pyproject.toml``.
"""

from setuptools import setup

setup()
