"""perfbench/tracer.py wraps package names by attribute: a rename must fail here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_instruments_the_package():
    # a fresh process, so no other test sees the wrapped package
    code = (
        "import numpy as np, levy_collapse as lc, tracer\n"
        "t = tracer.Tracer(); tracer.instrument(t)\n"
        "lc.Uniform01().sample(np.random.default_rng(1), 5)\n"
        "lc.stationary_solution(lc.BrownianDrift(0.0, 2.0), 1.0, 1.0)\n"
        "print(int(t.counts['models.sample.draws']), t.calls['stationary.build.bm'],\n"
        "      t.calls['stationary.find_alpha_lambda'], t.calls['models.phi'] > 0)\n")
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["5", "1", "1", "True"]
