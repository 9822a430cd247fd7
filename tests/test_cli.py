"""Config parsing, run entry points, CSV output and CLI exit codes."""

import concurrent.futures
import csv
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from levy_collapse import (
    Beta1,
    BrownianDrift,
    CppMinusDrift,
    DomainError,
    Erlang,
    Exponential,
    ParseError,
    Pareto,
    RunConfig,
    Sum,
    Uniform01,
    ValidationError,
    parse_config,
    stationary_solution,
)
from levy_collapse.cli import main
from levy_collapse import config, runner, simulate
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
    assert cfg.n_moments == 2
    assert cfg.engine == "embedded"
    assert cfg.n_samples == 100_000
    assert cfg.n_burn == 1000
    assert cfg.threads == 1
    assert cfg.replications == 1
    assert cfg.eps_trunc == 1e-12
    assert cfg.reservoir_cap == 100_000
    assert cfg.z0 == 0.0
    assert cfg.suite == "all"
    assert cfg.out_dir == "out"


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


def test_parse_comments_and_blanks():
    text = BM_TEXT + "\n# trailing comment\n\nn_burn = 30  # inline comment\n"
    assert parse_config(text) == replace(parse_config(BM_TEXT), n_burn=30)


def test_parse_error_carries_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_config("model.kind = bm\nmodel.c = 0\nnot a pair\n")
    with pytest.raises(ParseError, match="line 4: duplicate"):
        parse_config("model.kind = bm\nmodel.c = 0\nmodel.sigma2 = 2\nmodel.c = 1\n")
    with pytest.raises(ParseError, match="line 2.*number"):
        parse_config("model.kind = bm\nmodel.c = fast\n")
    # nan passes every range check, inf some: each numeric reader refuses both
    mm1 = MM1_TEXT.replace("lambda = 1\n", "lambda = 1\nengine = path\n")
    for line, text in ((10, mm1 + "alphas = nan\n"), (10, mm1 + "alphas = 0.5 inf\n"),
                       (10, mm1 + "horizon = inf\n"), (10, mm1 + "z0 = inf\n"),
                       (7, mm1.replace("lambda = 1", "lambda = -inf")),
                       (10, mm1 + "step_h = nan\n")):
        with pytest.raises(ParseError, match=f"^line {line}: .* needs a finite number$"):
            parse_config(text)


def test_validate_tolerances_are_not_config_keys():
    # validate's gates hold on models the suites fix themselves, so they
    # are constants beside the suites and a tol.<name> line is a typo
    for key in ("tol.root", "tol.b", "tol.fixed_point", "tol.fixedpoint"):
        with pytest.raises(ValidationError, match=f"^unknown key '{re.escape(key)}'$"):
            parse_config(BM_TEXT + f"{key} = 1e-3\n")


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


@pytest.mark.parametrize("old, new, message", [
    ("lambda = 1", "lambda = 0", "lambda must be > 0"),
    ("lambda = 1\n", "", "lambda is required"),
    ("", "alphas = -1 0.5", "alphas must be >= 0"),
    ("", "alphas = 0.5 0.5", "alphas must be strictly increasing"),
    ("", "thresholds = 0 1", "thresholds must be > 0"),
    ("", "thresholds = 2 1", "thresholds must be strictly increasing"),
    ("", "n_moments = -1", "n_moments must be >= 0"),
    ("", "engine = warp", "engine must be one of embedded, loynes, path"),
    ("", "n_samples = 0", "n_samples must be > 0"),
    ("", "n_burn = -1", "n_burn must be >= 0"),
    ("", "step_h = 0", "step_h must be > 0"),
    ("", "horizon = 0", "horizon must be > 0"),
    ("", "eps_trunc = 0", "eps_trunc must lie in (0, 1]"),
    ("", "eps_trunc = 1.5", "eps_trunc must lie in (0, 1]"),
    ("", "reservoir_cap = -1", "reservoir_cap must be >= 0"),
    ("", "z0 = -0.5", "z0 must be >= 0"),
    ("master_seed = 7", "master_seed = -1", "master_seed must be >= 0"),
    ("", "threads = 0", "threads must be >= 1"),
    ("", "replications = 0", "replications must be >= 1"),
])
def test_one_bad_value_per_run_key_names_its_condition(old, new, message):
    text = MM1_TEXT.replace(old, new) if old else MM1_TEXT + new + "\n"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(text)


def test_overrides_and_direct_construction_meet_the_key_conditions(tmp_path, capsys):
    cfg = parse_config(MM1_TEXT)
    with pytest.raises(ValidationError, match="^n_samples must be > 0$"):
        replace(cfg, n_samples=0)
    with pytest.raises(ValidationError, match="^replications must be >= 1$"):
        replace(cfg, replications=0)
    with pytest.raises(ValidationError, match="^lambda must be > 0$"):
        RunConfig(cfg.model, cfg.collapse, math.nan)
    path = write_cfg(tmp_path, MM1_TEXT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--seed", "-1", "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.err == "error: ValidationError: master_seed must be >= 0\n"
    assert got.out == "" and not out.exists()


def test_none_in_a_compared_field_names_its_condition():
    # a condition that compares raised a bare TypeError on None
    cfg = parse_config(MM1_TEXT)
    with pytest.raises(ValidationError, match="^lambda must be > 0$"):
        RunConfig(cfg.model, cfg.collapse, None)
    for field, message in (("n_samples", "n_samples must be > 0"),
                           ("threads", "threads must be >= 1"),
                           ("alphas", "alphas must be >= 0")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(cfg, **{field: None})


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
    tail = MM1_TEXT.replace("model.jumps = exp\nmodel.mu = 2",
                            "model.jumps = pareto\nmodel.delta = 1.5\nmodel.xm = 0.4")
    tail += "n_samples = 4000\nreplications = 3\nthresholds = 2 5\n"
    for sub, threads in (("t1", 1), ("t2", 2)):
        cfg = parse_config(base + f"threads = {threads}\nout = {tmp_path / sub}\n")
        run_simulate(cfg)
        runner.run_tail(parse_config(tail + f"threads = {threads}\n"
                                     + f"out = {tmp_path / sub / 'tail'}\n"))
    for name in ("summary.csv", "samples.csv", os.path.join("tail", "tail.csv")):
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


def test_samples_csv_bulk_format_equals_the_cell_formatter(tmp_path):
    # samples.csv is formatted a replicate at a time; it must keep the bytes
    # of formatting every cell with _fmt, on signed zeros, subnormals, the
    # extremes of the range, inf and nan, and on a replicate with no rows
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0, 2.0 ** 53,
               1e308, math.inf, math.nan]
    rng = simulate.replication_rng(5, 0)
    pools = []
    for cap, values in ((16, special), (16, special[::-1] + [2.5, 7.0]),
                        (0, special), (4, special)):
        pool = simulate.SamplePool(cap=cap)
        with np.errstate(all="ignore"):  # the power sums overflow to inf
            pool.add([x for x in values if not math.isnan(x)], rng)
        if cap > 0:  # add rejects nan, so it goes into the reservoir directly
            pool._push(rng.random(1), np.array([math.nan]))
        pools.append(pool)
    path = runner.write_csv(str(tmp_path / "samples.csv"), ("replicate", "n", "zeta"),
                            runner._sample_lines(pools))
    expected = "replicate,n,zeta\n" + "".join(
        ",".join(_fmt(x) for x in (r, i, z)) + "\n"
        for r, p in enumerate(pools) for i, z in enumerate(p.res_vals))
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode()
    for text in (",-0\n", ",4.9406564584124654e-324\n", ",1e+308\n", ",inf\n", ",nan\n"):
        assert text in expected
    assert "\n2," not in expected  # the replicate with reservoir_cap = 0


def test_worker_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records its size, maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *jobs):
            return map(fn, *jobs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    threads = 4 * (os.cpu_count() or 1)
    cfg = parse_config(MM1_TEXT + f"n_samples = {50 * threads}\nn_burn = 10\n"
                       + f"threads = {threads}\nreplications = {threads}\n"
                       + f"out = {tmp_path}\n")
    run_simulate(cfg)
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
    _, rows = read_csv(tmp_path / "summary.csv")
    assert {r[0]: float(r[1]) for r in rows}["count"] == 50.0 * threads


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

    path = tmp_path / "latin1.cfg"
    path.write_bytes(BM_TEXT.encode() + b"# caf\xe9\n")
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_cli_refuses_an_output_directory_it_cannot_create(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "_run_pools", lambda cfg: calls.append(cfg))
    path = write_cfg(tmp_path, MM1_TEXT + "n_samples = 100\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.err.startswith(f"error: ConfigError: cannot create output directory {out}")
        assert got.err.count("\n") == 1 and got.out == ""
    assert calls == []


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


def test_cli_overflowing_transform_integral_fails_on_one_line(tmp_path, capsys):
    # sweep seed 1's erlang.0.2: the below-root integral overflows the float
    # range at theta = 398, which must end in the named failure alone, with
    # no RuntimeWarning on the way
    text = """\
model.kind = cpp
model.d = 0.21978137213979207
model.gamma = 2.2359876039767186
model.jumps = erlang
model.shape = 4
model.rate = 0.22005695326776012
collapse = beta
collapse.theta = 397.86698971816537
lambda = 0.06368782476396098
alphas = 0 1
"""
    path = write_cfg(tmp_path, text)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: QuadratureFailure: endpoint-weighted quadrature "
                          "did not stabilize: CppMinusDrift(") and err.count("\n") == 1


def test_cli_validate_pass_and_fail(tmp_path, capsys, monkeypatch):
    base = BM_TEXT + "suite = analytic\n"
    path = write_cfg(tmp_path, base + f"out = {tmp_path / 'ok'}\n")
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)

    assert list(runner._GATES.values()) == [1e-12, 1e-8, 1e-7, 1e-8, 1e-8, 1e-7, 1e-9]
    # b and m1 of this case are 4/pi to the last bit, so even a 1e-30 moment
    # gate passes the m1 row, but its root is one rounding off 1, so a zero
    # root gate fails that row
    monkeypatch.setitem(runner._GATES, "moment", 1e-30)
    monkeypatch.setitem(runner._GATES, "root", 0.0)
    path = write_cfg(tmp_path, base + f"out = {tmp_path / 'bad'}\n", name="bad.cfg")
    assert main(["validate", "--config", path]) == 1
    got = capsys.readouterr()
    assert "FAIL" in got.out
    assert got.err.startswith("error: ValidationError:") and "failed" in got.err
    _, rows = read_csv(tmp_path / "bad" / "validate.csv")
    flags = {r[0]: r[4] for r in rows}
    assert flags["bm.alpha_lambda"] == "0" and flags["bm.m1"] == "1"
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


def test_tail_refuses_an_index_outside_one_two_before_it_simulates(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "path_simulate", lambda *a, **k: calls.append(a))
    text = MM1_TEXT.replace("model.jumps = exp\nmodel.mu = 2\n",
                            "model.jumps = pareto\nmodel.delta = 2.5\nmodel.xm = 0.5\n")
    cfg = parse_config(text + f"thresholds = 2 5\nsuite = tail\nout = {tmp_path}\n")
    for run in (runner.run_tail, runner.run_validate):
        with pytest.raises(DomainError, match=r"delta must lie in \(1, 2\)"):
            run(cfg)
    assert calls == []


def test_formatter_round_trips_doubles():
    rng = np.random.default_rng(21)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200):
        assert float(_fmt(float(x))) == float(x)
    assert _fmt(3) == "3"
    assert _fmt(True) == "1"
    assert _fmt("label") == "label"
    assert _fmt(1.0) == "1"


def test_readme_configuration_table_lists_the_run_keys():
    # the table's rows past the model and collapse keys are the run keys,
    # each read by one or more rows of config._KEYS
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    table = text.split("## Configuration", 1)[1].split("\n\n## ", 1)[0]
    keys = [key for line in table.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    run_keys = [k for k in keys if not k.startswith(("model.", "part", "collapse"))]
    assert "model.kind" in keys and "collapse" in keys
    assert sorted(run_keys) == sorted({row[0] for row in config._KEYS})


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
