"""Setup shim.

The execution environment has no network access and no ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) cannot build editable wheels.
This shim lets ``python setup.py develop`` (and thus ``pip install -e .
--no-build-isolation`` with legacy fallbacks) work offline.

``numpy`` is required: the CSR snapshots are ndarrays and the analytics
kernels, statistics and the executor's batched gather run on them.
"""

from setuptools import setup

if __name__ == "__main__":
    setup(install_requires=["numpy"])
