"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so that
``pip install -e .`` also works in fully offline environments whose
setuptools/wheel combination cannot build PEP-660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "KiNETGAN reproduction: knowledge-infused synthetic network-activity "
        "data generation for distributed NIDS"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0", "orjson>=3.8"],
)
