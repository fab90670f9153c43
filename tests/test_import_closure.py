"""Each role imports what it runs and nothing more.

A node daemon, the runtime controller, the in-process gateway and the
CLI each start from one entry-point module.  Every test here imports one
of them in a fresh interpreter with scipy blocked
(``sys.modules['scipy'] = None``, so any ``import scipy`` raises) and
asserts that none of the role's forbidden modules was loaded.  scipy is
not a dependency of the package, so no role may load it; the rest keep
a daemon's footprint to the replica, the FIB slice and the wire code.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Entry point -> modules it must not load.
FORBIDDEN = {
    "repro.runtime.daemon": (
        "scipy",
        "repro.model",
        "repro.chaos.oracle",
        "repro.runtime.session",
        "repro.runtime.launcher",
        "repro.epc.gateway",
    ),
    "repro.epc.gateway": ("scipy", "repro.model"),
    "repro.epc.fastpath": ("scipy", "repro.model"),
    "repro.cli": ("scipy", "repro.model"),
    "repro.runtime.controller": (
        "scipy",
        "repro.model",
        "repro.runtime.session",
        "repro.runtime.launcher",
        "repro.chaos.oracle",
    ),
}

_PROBE = """
import json, sys
sys.modules["scipy"] = None
error = None
try:
    import {entry}
except ImportError as exc:
    error = repr(exc)
loaded = sorted(name for name, mod in sys.modules.items() if mod is not None)
print(json.dumps({{"error": error, "loaded": loaded}}))
"""


def _import_in_fresh_interpreter(entry):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(entry=entry)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("entry", sorted(FORBIDDEN))
def test_role_closure(entry):
    probe = _import_in_fresh_interpreter(entry)
    assert probe["error"] is None, f"import {entry}: {probe['error']}"
    loaded = set(probe["loaded"])
    assert entry in loaded
    assert [m for m in FORBIDDEN[entry] if m in loaded] == []


def test_probe_blocks_scipy():
    # A bare ``import scipy`` fails under the probe, so a clean closure
    # above is not a probe that forgot to block it.
    probe = _import_in_fresh_interpreter("scipy")
    assert "scipy" in (probe["error"] or "")
