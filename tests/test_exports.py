"""The package's top-level names are the ones its callers import."""

import ast
import pathlib
import re

import nilcert

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXPORTS = {
    "Polynomial",
    "RATIONALS",
    "ThetaContext",
    "brute_force_membership_oracle",
    "build_membership_module",
    "certificate_from_text",
    "certificate_to_text",
    "nilpotence_bound",
    "standard_generators",
    "verify_certificate",
}


def _top_level_imports(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "nilcert" and node.level == 0
        for alias in node.names
    }


def test_top_level_exports_are_the_ten_names():
    assert sorted(nilcert.__all__) == sorted(EXPORTS)
    assert len(nilcert.__all__) == len(EXPORTS)
    for name in EXPORTS:
        assert getattr(nilcert, name) is not None


def test_demos_and_readme_import_only_the_exports():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    imported = set().union(*map(_top_level_imports, sources))
    assert imported <= EXPORTS
    # the scan found the demos' and the quick start's imports
    assert {"build_membership_module", "verify_certificate", "ThetaContext"} <= imported
