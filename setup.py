"""Setup shim so editable installs work without network access (no wheel pkg)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[],
    # The operations console's full-screen UI (repro.console.app); the event
    # bus, the headless console model and --plain mode work without it.
    extras_require={"console": ["textual"]},
)
