"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that editable installs work in offline
environments whose setuptools predates PEP 660 editable-wheel support.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "inGRASS: incremental graph spectral sparsification via "
        "low-resistance-diameter decomposition (DAC 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={"dev": ["pytest>=7.0", "hypothesis>=6.0"]},
)
