"""Package metadata for the VITAL reproduction (``repro``, ``src/`` layout).

The metadata lives here rather than in a ``pyproject.toml`` so that
``pip install -e .`` also works on offline machines whose setuptools
lacks the ``wheel`` package required by PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="VITAL: vision-transformer indoor localization resilient "
                "to smartphone heterogeneity — reproduction and serving stack",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
