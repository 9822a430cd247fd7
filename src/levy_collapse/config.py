"""Flat `key = value` run configuration.

Dotted keys, one assignment per line, `#` comments; no nested syntax.
`parse_config` returns a frozen RunConfig with the model and collapse law
already constructed, rejecting unknown keys so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import ModelError, ParseError, ValidationError
from .models import (
    Beta1,
    BrownianDrift,
    CollapseLaw,
    CppMinusDrift,
    Deterministic,
    Erlang,
    Exponential,
    LevyModel,
    Pareto,
    Sum,
    Uniform01,
)
from .simulate import _EPS_TRUNC, _RESERVOIR_CAP

_ENGINES = ("embedded", "loynes", "path")

# validate's tolerances by name, the defaults of the `tol.<name>` keys
TOLS = {"root": 1e-12, "b": 1e-8, "f": 1e-7, "moment": 1e-8, "dual_route": 1e-8,
        "fixed_point": 1e-7, "coupling": 1e-9}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; immutable so runs are reproducible. The
    field defaults are the defaults of the config keys."""

    model: LevyModel
    collapse: CollapseLaw
    lam: float
    alphas: Tuple[float, ...] = ()
    thresholds: Tuple[float, ...] = ()
    n_moments: int = 2
    engine: str = "embedded"
    n_samples: int = 100_000
    n_burn: int = 1_000
    step_h: Optional[float] = None
    horizon: Optional[float] = None
    eps_trunc: float = _EPS_TRUNC
    reservoir_cap: int = _RESERVOIR_CAP
    z0: float = 0.0
    master_seed: Optional[int] = None
    out_dir: str = "out"
    threads: int = 1
    replications: int = 0  # 0: one replication per worker thread
    suite: str = "all"
    tols: Tuple[Tuple[str, float], ...] = ()

    def tol(self, name: str) -> float:
        """The `tol.<name>` override, else the default in TOLS."""
        return dict(self.tols).get(name, TOLS[name])

    def seed(self) -> int:
        if self.master_seed is None:
            raise ValidationError("master_seed is required (no wall-clock seeding)")
        return self.master_seed


# ---------------------------------------------------------------------------
# line format
# ---------------------------------------------------------------------------


def _split_lines(text: str) -> Dict[str, Tuple[str, int]]:
    """key -> (raw value, line number); structural problems -> ParseError."""
    out: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (val.strip(), lineno)
    return out


def _finite(x: float, key: str, lineno: int) -> float:
    if not math.isfinite(x):  # nan passes every range check below
        raise ParseError(f"line {lineno}: {key} needs a finite number")
    return x


class _Fields:
    """Typed, consume-as-you-go view of the parsed lines."""

    def __init__(self, text: str):
        self._raw = _split_lines(text)
        self._seen = set()

    def _get(self, key):
        if key not in self._raw:
            return None
        self._seen.add(key)
        return self._raw[key]

    def str_(self, key: str, default: Optional[str] = None) -> Optional[str]:
        got = self._get(key)
        return default if got is None else got[0]

    def float_(self, key: str, default: Optional[float] = None) -> Optional[float]:
        got = self._get(key)
        if got is None:
            return default
        val, lineno = got
        try:
            return _finite(float(val), key, lineno)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} needs a number, got {val!r}") from None

    def int_(self, key: str, default: Optional[int] = None) -> Optional[int]:
        got = self._get(key)
        if got is None:
            return default
        val, lineno = got
        try:
            return int(val)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} needs an integer, got {val!r}") from None

    def floats(self, key: str) -> Tuple[float, ...]:
        got = self._get(key)
        if got is None:
            return ()
        val, lineno = got
        try:
            return tuple(_finite(float(tok), key, lineno) for tok in val.replace(",", " ").split())
        except ValueError:
            raise ParseError(f"line {lineno}: {key} needs numbers, got {val!r}") from None

    def require(self, key: str, kind) -> object:
        val = kind(key)
        if val is None:
            raise ValidationError(f"{key} is required")
        return val

    def finish_prefixless(self) -> Tuple[Tuple[str, float], ...]:
        """Collect the tol.<name> overrides of TOLS, then reject anything
        left over, misspelled tolerance names included."""
        tols = []
        for name in TOLS:
            val = self.float_("tol." + name)
            if val is not None:
                if val < 0:
                    raise ValidationError(f"tol.{name} must be >= 0")
                tols.append((name, val))
        unknown = sorted(set(self._raw) - self._seen)
        if unknown:
            raise ValidationError(f"unknown key {unknown[0]!r}")
        return tuple(tols)


# ---------------------------------------------------------------------------
# model and collapse builders
# ---------------------------------------------------------------------------


def _build_jumps(f: _Fields, prefix: str):
    kind = f.str_(prefix + ".jumps")
    if kind is None:
        raise ValidationError(f"{prefix}.jumps is required for compound input")
    try:
        if kind == "exp":
            return Exponential(f.require(prefix + ".mu", f.float_))
        if kind == "erlang":
            return Erlang(f.require(prefix + ".shape", f.int_),
                          f.require(prefix + ".rate", f.float_))
        if kind == "det":
            return Deterministic(f.require(prefix + ".size", f.float_))
        if kind == "pareto":
            return Pareto(f.require(prefix + ".delta", f.float_),
                          f.require(prefix + ".xm", f.float_))
    except ModelError as exc:
        raise ValidationError(f"{prefix}.jumps: {exc}") from None
    raise ValidationError(f"{prefix}.jumps must be exp, erlang, det or pareto")


def _build_part(f: _Fields, prefix: str, top_level: bool) -> LevyModel:
    kind = f.str_(prefix + ".kind")
    if kind is None:
        raise ValidationError(f"{prefix}.kind is required")
    if kind == "bm":
        c = f.require(prefix + ".c", f.float_)
        sigma2 = f.require(prefix + ".sigma2", f.float_)
        if sigma2 < 0 or (top_level and sigma2 == 0):
            raise ValidationError(f"{prefix}.sigma2 must be > 0")
        return BrownianDrift(c, sigma2)
    if kind == "cpp":
        d = f.require(prefix + ".d", f.float_)
        gamma = f.require(prefix + ".gamma", f.float_)
        # reflected subordinator guard: jumps with no drain never regulate
        if d < 0 or (top_level and d == 0):
            raise ValidationError(f"{prefix}.d must be > 0 (subordinator guard)")
        if gamma <= 0:
            raise ValidationError(f"{prefix}.gamma must be > 0")
        return CppMinusDrift(d, gamma, _build_jumps(f, prefix))
    if kind == "sum" and top_level:
        n_parts = f.require("model.parts", f.int_)
        if n_parts < 2:
            raise ValidationError("model.parts must be >= 2")
        parts = tuple(_build_part(f, f"part{k}", False) for k in range(1, n_parts + 1))
        return Sum(parts)
    raise ValidationError(f"{prefix}.kind must be bm, cpp" +
                          (" or sum" if top_level else ""))


def _build_collapse(f: _Fields) -> CollapseLaw:
    kind = f.str_("collapse")
    if kind is None:
        raise ValidationError("collapse is required (uniform or beta)")
    if kind == "uniform":
        return Uniform01()
    if kind == "beta":
        theta = f.require("collapse.theta", f.float_)
        try:
            return Beta1(theta)
        except ModelError as exc:
            raise ValidationError(f"collapse.theta: {exc}") from None
    raise ValidationError("collapse must be uniform or beta")


def parse_config(text: str) -> RunConfig:
    """Parse and validate; ParseError carries line numbers, ValidationError
    names the offending key."""
    f = _Fields(text)
    model = _build_part(f, "model", True)
    collapse = _build_collapse(f)
    lam = f.float_("lambda")
    if lam is None:
        raise ValidationError("lambda is required")
    if lam <= 0:
        raise ValidationError("lambda must be > 0")

    alphas = f.floats("alphas")
    if any(a < 0 for a in alphas):
        raise ValidationError("alphas must be >= 0")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValidationError("alphas must be strictly increasing")
    thresholds = f.floats("thresholds")
    if any(t <= 0 for t in thresholds):
        raise ValidationError("thresholds must be > 0")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be strictly increasing")

    d = RunConfig  # the class attributes hold the field defaults
    n_moments = f.int_("n_moments", d.n_moments)
    engine = f.str_("engine", d.engine)
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {', '.join(_ENGINES)}")
    n_samples = f.int_("n_samples", d.n_samples)
    n_burn = f.int_("n_burn", d.n_burn)
    step_h = f.float_("step_h")
    horizon = f.float_("horizon")
    eps_trunc = f.float_("eps_trunc", d.eps_trunc)
    reservoir_cap = f.int_("reservoir_cap", d.reservoir_cap)
    z0 = f.float_("z0", d.z0)
    master_seed = f.int_("master_seed")
    out_dir = f.str_("out", d.out_dir)
    threads = f.int_("threads", d.threads)
    replications = f.int_("replications", d.replications)
    suite = f.str_("suite", d.suite)
    tols = f.finish_prefixless()

    if n_moments < 0:
        raise ValidationError("n_moments must be >= 0")
    if n_samples <= 0:
        raise ValidationError("n_samples must be > 0")
    if n_burn < 0:
        raise ValidationError("n_burn must be >= 0")
    if step_h is not None and step_h <= 0:
        raise ValidationError("step_h must be > 0")
    if horizon is not None and horizon <= 0:
        raise ValidationError("horizon must be > 0")
    if not 0.0 < eps_trunc <= 1.0:
        raise ValidationError("eps_trunc must lie in (0, 1]")
    if reservoir_cap < 0:
        raise ValidationError("reservoir_cap must be >= 0")
    if z0 < 0:
        raise ValidationError("z0 must be >= 0")
    if master_seed is not None and master_seed < 0:
        raise ValidationError("master_seed must be >= 0")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    if replications < 0:
        raise ValidationError("replications must be >= 0")

    return RunConfig(model=model, collapse=collapse, lam=lam, alphas=alphas,
                     thresholds=thresholds, n_moments=n_moments, engine=engine,
                     n_samples=n_samples, n_burn=n_burn, step_h=step_h,
                     horizon=horizon, eps_trunc=eps_trunc,
                     reservoir_cap=reservoir_cap, z0=z0, master_seed=master_seed,
                     out_dir=out_dir, threads=threads, replications=replications,
                     suite=suite, tols=tols)
