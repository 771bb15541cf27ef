"""Import budget: starting the CLI loads no scipy.

Every ``repro`` invocation is a fresh process, so whatever ``import
repro.cli`` pulls in is paid on every command.  scipy is needed only for
the t quantile of a confidence interval and the Welch test's p-value, and
only ``scipy.special`` at that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repro.cli
after_import = scipy_modules()
repro.cli.main(["list-policies"])
after_command = scipy_modules()

from repro.measure.compare import welch_compare
from repro.measure.stats import confidence_interval
before_stats = scipy_modules()
confidence_interval([1.0, 2.0, 4.0])
after_ci = scipy_modules()
welch_compare([1.0, 2.0, 4.0], [2.0, 3.0, 7.0])
after_welch = scipy_modules()
print(json.dumps({
    "after_import": after_import,
    "after_command": after_command,
    "before_stats": before_stats,
    "after_ci": after_ci,
    "after_welch": after_welch,
}))
"""


def run_probe() -> dict:
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestImportBudget:
    def test_no_scipy_until_a_statistic_is_computed(self):
        probe = run_probe()
        assert probe["after_import"] == []
        assert probe["after_command"] == []
        assert probe["before_stats"] == []
        assert "scipy.special" in probe["after_ci"]
        assert "scipy.stats" not in probe["after_ci"]
        assert "scipy.stats" not in probe["after_welch"]
