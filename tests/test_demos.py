"""The demos' stdout, pinned byte for byte."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout; the demos print operator images, iterate
# polynomials, a certificate and a sharpness witness, so these pins cover
# the polynomial text of every layer
DEMO_STDOUT_SHA256 = {
    "01_theta_operator_basics.py": "9bee4defe35aead3ca85b04eb284b38eeed6d8f1a0f84fc303c6a0ca1b74a656",
    "02_iterate_family.py": "ec3f8df72a9ce060db2088c913ebed1e00d1f35baf504ebfd133831a4826626c",
    "03_nilpotence_certificate.py": "645364b1fcff6c91ff8c8eb67870004d3dc24a38fb627526b57192a5ebf25034",
    "04_sharpness_witness.py": "5a72425fa137d85501518ab25e145dd64e67bf9fee8ea018c2167cb9b4a3740a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert hashlib.sha256(completed.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
