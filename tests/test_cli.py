"""Config parsing, run entry points, CSV output and CLI exit codes."""

import csv
import math
import os

import numpy as np
import pytest

from levy_collapse import (
    Beta1,
    BrownianDrift,
    CppMinusDrift,
    Erlang,
    Exponential,
    ParseError,
    Pareto,
    Sum,
    Uniform01,
    ValidationError,
    parse_config,
    stationary_solution,
)
from levy_collapse.cli import main
from levy_collapse.runner import _fmt, run_analyze, run_simulate

import reference_values as ref

BM_TEXT = """\
# canonical Brownian case
model.kind = bm
model.c = 0
model.sigma2 = 2

collapse = uniform
lambda = 1
alphas = 0 0.5 1 2
n_moments = 2
master_seed = 42
"""

MM1_TEXT = """\
model.kind = cpp
model.d = 1
model.gamma = 1
model.jumps = exp
model.mu = 2
collapse = uniform
lambda = 1
master_seed = 7
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_canonical_config_and_defaults():
    cfg = parse_config(BM_TEXT)
    assert cfg.model == BrownianDrift(0.0, 2.0)
    assert isinstance(cfg.collapse, Uniform01)
    assert cfg.lam == 1.0
    assert cfg.alphas == (0.0, 0.5, 1.0, 2.0)
    assert cfg.master_seed == 42
    # untouched keys keep their documented defaults
    assert cfg.engine == "embedded"
    assert cfg.n_samples == 100_000
    assert cfg.n_burn == 1000
    assert cfg.threads == 1
    assert cfg.replications == 0
    assert cfg.eps_trunc == 1e-12
    assert cfg.suite == "all"
    assert cfg.out_dir == "out"
    assert cfg.tol("anything", 0.25) == 0.25


def test_parse_compound_sum_and_beta_collapse():
    text = """\
model.kind = sum
model.parts = 2
part1.kind = bm
part1.c = 0.3
part1.sigma2 = 1.5
part2.kind = cpp
part2.d = 0.2
part2.gamma = 0.7
part2.jumps = exp
part2.mu = 1.1
collapse = beta
collapse.theta = 2.5
lambda = 1.2
"""
    cfg = parse_config(text)
    assert cfg.model == Sum((BrownianDrift(0.3, 1.5),
                             CppMinusDrift(0.2, 0.7, Exponential(1.1))))
    assert cfg.collapse == Beta1(2.5)


def test_parse_jump_families():
    base = "model.kind = cpp\nmodel.d = 1\nmodel.gamma = 1\ncollapse = uniform\nlambda = 1\n"
    cfg = parse_config(base + "model.jumps = erlang\nmodel.shape = 2\nmodel.rate = 3\n")
    assert cfg.model.jumps == Erlang(2, 3.0)
    cfg = parse_config(base + "model.jumps = pareto\nmodel.delta = 1.5\nmodel.xm = 0.4\n")
    assert cfg.model.jumps == Pareto(1.5, 0.4)


def test_parse_comments_blanks_and_tol_overrides():
    text = BM_TEXT + "\n# trailing comment\n\ntol.moment = 1e-6\ntol.b = 2e-9\n"
    cfg = parse_config(text)
    assert cfg.tol("moment", 1e-8) == 1e-6
    assert cfg.tol("b", 1e-8) == 2e-9
    assert cfg.tol("root", 1e-12) == 1e-12


def test_parse_error_carries_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_config("model.kind = bm\nmodel.c = 0\nnot a pair\n")
    with pytest.raises(ParseError, match="line 4: duplicate"):
        parse_config("model.kind = bm\nmodel.c = 0\nmodel.sigma2 = 2\nmodel.c = 1\n")
    with pytest.raises(ParseError, match="line 2.*number"):
        parse_config("model.kind = bm\nmodel.c = fast\n")


def test_validation_errors_name_the_key():
    with pytest.raises(ValidationError, match="lambda"):
        parse_config("model.kind = bm\nmodel.c = 0\nmodel.sigma2 = 2\ncollapse = uniform\n")
    with pytest.raises(ValidationError, match="unknown key 'frobnicate'"):
        parse_config(BM_TEXT + "frobnicate = 1\n")
    with pytest.raises(ValidationError, match="subordinator"):
        parse_config(MM1_TEXT.replace("model.d = 1", "model.d = 0"))
    with pytest.raises(ValidationError, match="sigma2"):
        parse_config(BM_TEXT.replace("model.sigma2 = 2", "model.sigma2 = 0"))
    with pytest.raises(ValidationError, match="collapse.theta"):
        parse_config(BM_TEXT.replace("collapse = uniform", "collapse = beta"))
    with pytest.raises(ValidationError, match="delta"):
        parse_config(MM1_TEXT.replace("model.jumps = exp\nmodel.mu = 2",
                                      "model.jumps = pareto\nmodel.delta = 1\nmodel.xm = 0.4"))
    with pytest.raises(ValidationError, match="increasing"):
        parse_config(BM_TEXT.replace("alphas = 0 0.5 1 2", "alphas = 0 1 0.5"))
    with pytest.raises(ValidationError, match="engine"):
        parse_config(BM_TEXT + "engine = warp\n")
    with pytest.raises(ValidationError, match="eps_trunc"):
        parse_config(BM_TEXT + "eps_trunc = 1.5\n")
    with pytest.raises(ValidationError, match="replications"):
        parse_config(BM_TEXT + "replications = -1\n")
    assert parse_config(BM_TEXT).seed() == 42
    with pytest.raises(ValidationError, match="master_seed"):
        parse_config(MM1_TEXT.replace("master_seed = 7\n", "")).seed()


# ---------------------------------------------------------------------------
# run entry points
# ---------------------------------------------------------------------------


def test_analyze_outputs(tmp_path):
    cfg = parse_config(BM_TEXT + f"out = {tmp_path}\n")
    paths = run_analyze(cfg)
    assert sorted(os.path.basename(p) for p in paths) == [
        "lst.csv", "moments.csv", "summary.csv"]
    header, rows = read_csv(os.path.join(tmp_path, "summary.csv"))
    assert header == ["alpha_lambda", "b", "atom"]
    a, b, atom = map(float, rows[0])
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(4.0 / math.pi, rel=1e-11)
    assert atom == 0.0
    header, rows = read_csv(os.path.join(tmp_path, "lst.csv"))
    assert header == ["alpha", "f_alpha", "branch"]
    assert rows[0] == ["0", "1", "below"]
    tags = [r[2] for r in rows]
    assert tags == ["below", "below", "at", "above"]
    for alpha, val, _ in rows:
        assert float(val) == pytest.approx(
            stationary_solution(BrownianDrift(0.0, 2.0), 1.0, 1.0).lst(float(alpha)),
            abs=1e-13)
    header, rows = read_csv(os.path.join(tmp_path, "moments.csv"))
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert float(rows[2][1]) == pytest.approx(3.0, abs=1e-8)


def test_analyze_requires_alphas(tmp_path):
    cfg = parse_config(MM1_TEXT + f"out = {tmp_path}\nn_moments = 1\n")
    with pytest.raises(ValidationError, match="alphas"):
        run_analyze(cfg)


def test_analyze_exponential_atom(tmp_path):
    cfg = parse_config(MM1_TEXT + f"alphas = 0.5\nout = {tmp_path}\n")
    run_analyze(cfg)
    _, rows = read_csv(os.path.join(tmp_path, "summary.csv"))
    assert float(rows[0][2]) == pytest.approx(ref.MM1_ATOM, rel=1e-10)


def test_simulate_needs_exact_sampler(tmp_path):
    text = MM1_TEXT.replace("model.jumps = exp\nmodel.mu = 2",
                            "model.jumps = pareto\nmodel.delta = 1.5\nmodel.xm = 0.4")
    cfg = parse_config(text + f"out = {tmp_path}\nn_samples = 100\n")
    with pytest.raises(ValidationError, match="no exact"):
        run_simulate(cfg)


def test_simulate_outputs_and_determinism(tmp_path):
    extra = "engine = embedded\nn_samples = 20000\nn_burn = 500\nreservoir_cap = 1000\n"
    for sub in ("a", "b"):
        cfg = parse_config(MM1_TEXT + extra + f"alphas = 0.5 1\nout = {tmp_path / sub}\n")
        run_simulate(cfg)
    for name in ("summary.csv", "samples.csv"):
        with open(tmp_path / "a" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            second = fh.read()
        assert first == second
    header, rows = read_csv(tmp_path / "a" / "summary.csv")
    assert header == ["stat", "value", "stderr"]
    stats = {r[0]: (float(r[1]), r[2]) for r in rows}
    assert stats["count"][0] == 20000.0
    mean, se = float(stats["mean"][0]), float(stats["mean"][1])
    assert abs(mean - ref.MM1_M1) <= 4.0 * se
    p0, se0 = float(stats["zero_freq"][0]), float(stats["zero_freq"][1])
    assert abs(p0 - ref.MM1_ATOM) <= 4.0 * se0
    assert "lst@0.5" in stats and "lst@1" in stats
    header, rows = read_csv(tmp_path / "a" / "samples.csv")
    assert header == ["replicate", "n", "zeta"]
    assert len(rows) == 1000  # trimmed to the reservoir cap
    assert all(r[0] == "0" for r in rows)


def test_simulate_thread_count_does_not_change_results(tmp_path):
    base = MM1_TEXT + "n_samples = 8000\nn_burn = 200\nreplications = 2\nreservoir_cap = 500\n"
    for sub, threads in (("t1", 1), ("t2", 2)):
        cfg = parse_config(base + f"threads = {threads}\nout = {tmp_path / sub}\n")
        run_simulate(cfg)
    for name in ("summary.csv", "samples.csv"):
        with open(tmp_path / "t1" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "t2" / name, "rb") as fh:
            second = fh.read()
        assert first == second


def test_simulate_splits_replications(tmp_path):
    cfg = parse_config(MM1_TEXT + "n_samples = 1001\nn_burn = 10\nreplications = 2\n"
                       + f"reservoir_cap = 2000\nout = {tmp_path}\n")
    run_simulate(cfg)
    _, rows = read_csv(tmp_path / "summary.csv")
    stats = {r[0]: float(r[1]) for r in rows}
    assert stats["count"] == 1001.0  # uneven split still covers every sample
    _, sample_rows = read_csv(tmp_path / "samples.csv")
    assert {r[0] for r in sample_rows} == {"0", "1"}


def test_simulate_reports_no_finite_estimate_of_an_infinite_moment(tmp_path):
    # Pareto delta = 1.5: the stationary mean is finite but its estimate has
    # infinite variance, and every higher moment is infinite
    text = MM1_TEXT.replace("model.jumps = exp\nmodel.mu = 2",
                            "model.jumps = pareto\nmodel.delta = 1.5\nmodel.xm = 0.4")
    cfg = parse_config(text + f"engine = path\nn_samples = 2000\nout = {tmp_path}\n")
    run_simulate(cfg)
    _, rows = read_csv(tmp_path / "summary.csv")
    stats = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    mean, se = stats["mean"]
    assert 0.0 < mean < math.inf and math.isnan(se)
    for stat in ("moment2", "moment3", "moment4"):
        value, se = stats[stat]
        assert value == math.inf and math.isnan(se)
    assert stats["zero_freq"][1] > 0.0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_analyze_success(tmp_path, capsys):
    path = write_cfg(tmp_path, BM_TEXT + f"out = {tmp_path / 'out'}\n")
    assert main(["analyze", "--config", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert len(out.out.strip().splitlines()) == 3  # one line per CSV
    assert main(["analyze", "--config", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_missing_and_malformed_config(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    path = write_cfg(tmp_path, "model.kind bm\n")
    assert main(["analyze", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 1") and err.count("\n") == 1

    path = write_cfg(tmp_path, BM_TEXT + "mystery = 1\n")
    assert main(["analyze", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: unknown key")


def test_cli_numeric_failure_exits_three(tmp_path, capsys):
    # drift-up input with no diffusion and no drain: the positive root of
    # the exponent does not exist, which only surfaces at solve time
    text = """\
model.kind = sum
model.parts = 2
part1.kind = bm
part1.c = 0.5
part1.sigma2 = 0
part2.kind = cpp
part2.d = 0
part2.gamma = 0.1
part2.jumps = exp
part2.mu = 1
collapse = uniform
lambda = 1
alphas = 0 1
"""
    path = write_cfg(tmp_path, text)
    assert main(["analyze", "--config", path,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: SubordinatorInput:") and err.count("\n") == 1


def test_cli_validate_pass_and_fail(tmp_path, capsys):
    base = BM_TEXT + "suite = analytic\n"
    path = write_cfg(tmp_path, base + f"out = {tmp_path / 'ok'}\n")
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)

    path = write_cfg(tmp_path, base + "tol.moment = 1e-30\ntol.b = 1e-30\n"
                     + f"out = {tmp_path / 'bad'}\n", name="bad.cfg")
    assert main(["validate", "--config", path]) == 1
    got = capsys.readouterr()
    assert "FAIL" in got.out
    assert got.err.startswith("error: ValidationError:") and "failed" in got.err
    _, rows = read_csv(tmp_path / "bad" / "validate.csv")
    flags = {r[0]: r[4] for r in rows}
    assert flags["bm.b"] == "0" and flags["bm.m1"] == "0"
    assert flags["bm.f0"] == "1"


def test_cli_seed_override_changes_draws(tmp_path):
    base = MM1_TEXT + "n_samples = 2000\nn_burn = 100\nreservoir_cap = 100\n"
    p = write_cfg(tmp_path, base + f"out = {tmp_path / 's1'}\n")
    assert main(["simulate", "--config", p, "--quiet"]) == 0
    p2 = write_cfg(tmp_path, base + f"out = {tmp_path / 's2'}\n", name="r2.cfg")
    assert main(["simulate", "--config", p2, "--seed", "99", "--quiet"]) == 0
    with open(tmp_path / "s1" / "samples.csv", "rb") as fh:
        first = fh.read()
    with open(tmp_path / "s2" / "samples.csv", "rb") as fh:
        second = fh.read()
    assert first != second


def test_cli_tail_runs(tmp_path, capsys):
    text = """\
model.kind = cpp
model.d = 1
model.gamma = 0.8
model.jumps = pareto
model.delta = 1.5
model.xm = 0.33333333333333331
collapse = uniform
lambda = 1
n_samples = 4000
thresholds = 2 5
master_seed = 20260815
"""
    path = write_cfg(tmp_path, text)
    assert main(["tail", "--config", path, "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    header, rows = read_csv(tmp_path / "t" / "tail.csv")
    assert header == ["threshold", "exceedances", "samples", "ratio", "lo", "hi",
                      "target"]
    assert len(rows) == 2
    assert float(rows[0][6]) == pytest.approx(0.8 * (2.5 / 1.5), rel=1e-14)
    for r in rows:
        assert int(r[2]) == 4000
        assert float(r[4]) <= float(r[3]) <= float(r[5])


def test_tail_requires_pareto_model(tmp_path):
    from levy_collapse.runner import run_tail
    cfg = parse_config(MM1_TEXT + f"thresholds = 2 5\nout = {tmp_path}\n")
    with pytest.raises(ValidationError, match="pareto"):
        run_tail(cfg)


def test_formatter_round_trips_doubles():
    rng = np.random.default_rng(21)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200):
        assert float(_fmt(float(x))) == float(x)
    assert _fmt(3) == "3"
    assert _fmt(True) == "1"
    assert _fmt("label") == "label"
    assert _fmt(1.0) == "1"


def test_readme_library_use_block_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    sol = scope["sol"]
    assert sol.alpha_lambda == pytest.approx(1.0, abs=1e-12)
    assert sol.b == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert sol.atom == 0.0
