"""Setup shim.

The canonical metadata lives in pyproject.toml; this file exists so the
package can be installed in environments without the `wheel` package
(offline legacy path: `python setup.py develop`).
"""

from setuptools import setup

setup()
