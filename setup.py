"""Package metadata.

This file is the package's only build configuration (there is no
``pyproject.toml``); a plain setuptools ``setup()`` keeps ``pip install -e .``
working in fully offline environments whose setuptools/wheel combination
cannot build PEP-660 editable wheels.  Python >= 3.11 because the parity
digests are recorded under numpy 2.4.6, which has no Python 3.10 wheels.
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
    python_requires=">=3.11",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0", "orjson>=3.8"],
)
