"""Setup shim so editable installs work without network access (no wheel pkg)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[],
)
