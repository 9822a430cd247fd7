"""Record the analytic sweep's values bit for bit, and compare two records.

    python3 tools/sweep_values.py dump --seeds 1-10 --out after.json
    python3 tools/sweep_values.py dump --seeds 1-10 --out before.json \
        --root ../parent-checkout
    python3 tools/sweep_values.py compare before.json after.json

`dump` solves the models of perfbench's analytic sweep on the given seeds:
the baseline rows and `workloads.sweep_block(seed, b)` for b = 0..7. Per
model it stores, as `float.hex`, the root, b, the atom, f at a fixed set of
multiples of the root, E f(root U), the fixed-point residual at 1.5 root
and the moments m1..m4, or the type and message of the error that stopped
the model. `--root` names the checkout whose `src/` and `perfbench/` are
imported (default: this one), so one copy of the script can record any
checkout; perfbench is only read.

`compare A B` prints, per quantity, how many models carry the same bits in
both records and the largest relative move from A to B with its model
(absolute for the fixed-point residual, an absolute quantity that is often
exactly 0), then every model whose failure or message differs. It exits 0
when every quantity is bit-identical and every failure the same, and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_point import parse_seeds  # noqa: E402

BLOCKS = range(8)
F_AT = (0.0, 1e-4, 0.5, 0.999, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.5, 2.0, 10.0)
RESIDUAL_AT = 1.5
QUANTITIES = (("root", "b", "atom") + tuple(f"f@{a!r}" for a in F_AT)
              + ("Ef(rootU)", f"residual@{RESIDUAL_AT!r}", "m1", "m2", "m3", "m4"))
ABSOLUTE = (f"residual@{RESIDUAL_AT!r}",)


def _values(stationary, model, lam, theta):
    """The quantities of one model, in the order of QUANTITIES."""
    sol = stationary.stationary_solution(model, lam, theta)
    A = sol.alpha_lambda
    out = [A, sol.b, sol.atom] + [sol.lst(a * A) for a in F_AT]
    out.append(sol.mean_lst_collapsed(A))
    out.append(stationary.fixed_point_residual(model, lam, theta, RESIDUAL_AT * A))
    return out + sol.moments(4)[1:]


def dump(seeds, root):
    """{"seeds": [...], "models": {"seed:label": {quantity: hex} or {"error": text}}}."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import levy_collapse
    from levy_collapse import stationary
    import workloads

    models = {}
    for seed in sorted(seeds):
        rows = list(workloads.BASELINE_ROWS)
        for b in BLOCKS:
            rows += workloads.sweep_block(seed, b)
        for label, model, lam, theta in rows:
            try:
                vals = _values(stationary, model, lam, theta)
            except levy_collapse.LevyCollapseError as exc:
                models[f"{seed}:{label}"] = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                models[f"{seed}:{label}"] = {q: float(v).hex()
                                             for q, v in zip(QUANTITIES, vals)}
    return {"seeds": sorted(seeds), "models": models}


def _move(a, b, absolute=False):
    """Move from a to b, relative to a unless absolute; inf where one side
    is not finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    if absolute:
        return abs(b - a)
    return abs(b - a) / abs(a) if a else math.inf


def compare(before, after):
    """Lines of the comparison of two dumps, and whether they are identical."""
    a_models, b_models = before["models"], after["models"]
    both = [k for k in a_models if k in b_models
            and "error" not in a_models[k] and "error" not in b_models[k]]
    lines = [f"{len(both)} models solve in both records"]
    identical = True
    for q in QUANTITIES:
        keys = [k for k in both if q in a_models[k] and q in b_models[k]]
        same = sum(a_models[k][q] == b_models[k][q] for k in keys)
        identical &= same == len(keys)
        worst, where, kind = 0.0, "-", "absolute" if q in ABSOLUTE else "relative"
        for k in keys:
            move = _move(float.fromhex(a_models[k][q]), float.fromhex(b_models[k][q]),
                         q in ABSOLUTE)
            if move > worst:
                worst, where = move, k
        lines.append(f"{q:<16} identical {same}/{len(keys)}  "
                     f"largest {kind} move {worst:.3g} ({where})")
    differ = []
    for k in sorted(set(a_models) | set(b_models)):
        ea = a_models.get(k, {"error": "absent"}).get("error")
        eb = b_models.get(k, {"error": "absent"}).get("error")
        if ea != eb:
            differ.append(f"  {k}: {ea} -> {eb}")
    fails = [sum("error" in v for v in m.values()) for m in (a_models, b_models)]
    lines.append(f"failures: {fails[0]} in A, {fails[1]} in B; "
                 f"{len(differ)} models differ in failure or message")
    return lines + differ, identical and not differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="record the sweep's values")
    d.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3")
    d.add_argument("--out", required=True)
    d.add_argument("--root", default=os.path.dirname(HERE),
                   help="checkout to import src/ and perfbench/ from")
    c = sub.add_parser("compare", help="compare two records")
    c.add_argument("before")
    c.add_argument("after")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        record = dump(parse_seeds(args.seeds), os.path.abspath(args.root))
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        return 0
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    lines, identical = compare(before, after)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
