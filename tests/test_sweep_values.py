"""tools/sweep_values.py: bit-level comparison of two sweep records."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "sweep_values", os.path.join(ROOT, "tools", "sweep_values.py"))
sweep_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_values)


def _model(**moved):
    vals = {q: 1.0 for q in sweep_values.QUANTITIES}
    vals.update(moved)
    return {q: float(v).hex() for q, v in vals.items()}


def test_compare_counts_identical_bits_and_names_the_largest_move(tmp_path, capsys):
    before = {"seeds": [1], "models": {
        "1:a": _model(), "1:b": _model(m1=2.0), "1:c": _model(),
        "1:d": {"error": "QuadratureFailure: did not stabilize"},
        "1:e": {"error": "QuadratureFailure: did not stabilize"}}}
    after = {"seeds": [1], "models": {
        "1:a": _model(m1=1.0 + 2.0**-52), "1:b": _model(m1=2.5), "1:c": _model(),
        "1:d": {"error": "QuadratureFailure: did not stabilize"},
        "1:e": {"error": "QuadratureFailure: E f(1 U) did not converge"}}}
    paths = []
    for name, record in (("A.json", before), ("B.json", after)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(record, fh)
    assert sweep_values.main(["compare"] + paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3 models solve in both records"
    rows = {line.split()[0]: line for line in lines[1:len(sweep_values.QUANTITIES) + 1]}
    assert set(rows) == set(sweep_values.QUANTITIES)
    assert rows["root"].split()[1:] == ["identical", "3/3", "largest", "relative",
                                        "move", "0", "(-)"]
    assert "identical 1/3" in rows["m1"] and rows["m1"].endswith("move 0.25 (1:b)")
    assert lines[-2] == "failures: 2 in A, 2 in B; 1 models differ in failure or message"
    assert lines[-1] == ("  1:e: QuadratureFailure: did not stabilize -> "
                         "QuadratureFailure: E f(1 U) did not converge")


def test_compare_exits_one_on_any_changed_bit_or_failure(tmp_path, capsys):
    base = {"1:a": _model(), "1:b": {"error": "QuadratureFailure: did not stabilize"}}
    changed = (
        {},
        {"1:a": _model(m4=1.0 + 2.0**-52)},
        {"1:b": {"error": "QuadratureFailure: E f(1 U) did not converge"}},
        {"1:b": _model()},
        {"1:c": _model()},
    )
    for i, moved in enumerate(changed):
        paths = []
        for name, models in (("A", base), ("B", {**base, **moved})):
            paths.append(str(tmp_path / f"{name}{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"seeds": [1], "models": models}, fh)
        assert sweep_values.main(["compare"] + paths) == (1 if moved else 0), moved
    capsys.readouterr()


def test_compare_reports_the_residuals_absolute_move(tmp_path, capsys):
    # the fixed-point residual is often exactly 0, where a relative move
    # would read inf; its row gives the largest absolute move instead
    residual = f"residual@{sweep_values.RESIDUAL_AT!r}"
    before = {"1:a": _model(**{residual: 0.0}), "1:b": _model(**{residual: 1e-15})}
    after = {"1:a": _model(**{residual: 2e-16}), "1:b": _model(**{residual: 1.5e-15})}
    paths = []
    for name, models in (("A.json", before), ("B.json", after)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump({"seeds": [1], "models": models}, fh)
    assert sweep_values.main(["compare"] + paths) == 1
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert rows[residual].endswith("identical 0/2  largest absolute move 5e-16 (1:b)")
    assert rows["root"].endswith("identical 2/2  largest relative move 0 (-)")
