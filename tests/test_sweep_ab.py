"""tools/sweep_ab.py: the interleaved in-process A/B of the analytic sweep."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_against_itself_reports_every_key_and_the_same_failures():
    # one sweep block, one run per side; timings are not asserted
    out = subprocess.run(
        [sys.executable, "-W", "ignore", os.path.join(ROOT, "tools", "sweep_ab.py"),
         "--root", ROOT, "--seeds", "1", "--blocks", "0", "--repeats", "1"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].split()[:4] == ["seed", "models", "gmean", "A"]
    assert out[1].split()[:2] == ["1", "17"]
    assert out[2].startswith("all seeds: gmean B/A ") and out[2].endswith("over 17 models")
    families = [line.split()[1] for line in out if line.startswith("  family ")]
    assert families == ["baseline", "bm", "det", "erlang", "exp", "pareto", "sum"]
    assert any(line.startswith("B faster on ") and line.endswith(" of 17 models")
               for line in out)
    a, b = out.index("failures on A: 1"), out.index("failures on B: 1")
    assert out[a + 1] == out[b + 1] and out[a + 1].startswith("  1:erlang.0.2: ")
