"""Every layer the benchmark's tracer wraps still exists where it looks it up.

The tracer (srfebench/tracer.py) patches the program's functions by module
and name.  A rename that drops one of them makes `srfebench/run.py --trace 1`
fail; this test catches it with the rest of the suite.  `install()` runs in a
subprocess so its patches never leak into the other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
tracer.install(sys.argv[3])
unresolved = [
    f"{owner}.{attr}"
    for owner, attr, _, _ in tracer.TARGETS
    if not hasattr(getattr(tracer._resolve(owner), attr), "__wrapped__")
]
print(json.dumps({"targets": len(tracer.TARGETS), "unresolved": unresolved}))
"""


def test_every_tracer_target_resolves(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(REPO / "srfebench"), str(REPO / "src"), str(tmp_path / "t")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["targets"] > 0
    assert result["unresolved"] == []
