"""Every source file of the package and the driver entry compiles with
warnings as errors: an invalid escape sequence in a non-raw string is a
DeprecationWarning in Python 3.11, a SyntaxWarning in 3.12 and an error
in a later release."""

import pathlib
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCES = [*sorted((ROOT / "crawlray").rglob("*.py")), ROOT / "__ray_entry__.py"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_compiles_with_warnings_as_errors(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
