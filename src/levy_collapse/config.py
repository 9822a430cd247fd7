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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; immutable so runs are reproducible. The
    field defaults are the defaults of the config keys, and every
    construction, `dataclasses.replace` included, checks the conditions of
    `_KEYS`."""

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
    replications: int = 1
    suite: str = "all"

    def __post_init__(self):
        for _, name, _, ok, message in _KEYS:
            try:  # None, or another type a condition cannot compare, fails it
                good = ok is None or ok(getattr(self, name))
            except TypeError:
                good = False
            if not good:
                raise ValidationError(message)

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
    if not math.isfinite(x):  # nan passes some checks below, inf more
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

    def floats(self, key: str, default: Tuple[float, ...] = ()) -> Tuple[float, ...]:
        got = self._get(key)
        if got is None:
            return default
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

    def reject_unknown(self) -> None:
        """Reject any key no reader consumed."""
        unknown = sorted(set(self._raw) - self._seen)
        if unknown:
            raise ValidationError(f"unknown key {unknown[0]!r}")


def _rising(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


# One row per run key, in read order: the config key, its RunConfig field,
# the reader, the condition every RunConfig meets (None: no condition) and
# the message when it fails. A key with two conditions has two rows.
_KEYS = (
    ("lambda", "lam", _Fields.float_, lambda v: v > 0, "lambda must be > 0"),
    ("alphas", "alphas", _Fields.floats, lambda v: all(a >= 0 for a in v), "alphas must be >= 0"),
    ("alphas", "alphas", _Fields.floats, _rising, "alphas must be strictly increasing"),
    ("thresholds", "thresholds", _Fields.floats, lambda v: all(t > 0 for t in v),
     "thresholds must be > 0"),
    ("thresholds", "thresholds", _Fields.floats, _rising, "thresholds must be strictly increasing"),
    ("n_moments", "n_moments", _Fields.int_, lambda v: v >= 0, "n_moments must be >= 0"),
    ("engine", "engine", _Fields.str_, lambda v: v in _ENGINES,
     f"engine must be one of {', '.join(_ENGINES)}"),
    ("n_samples", "n_samples", _Fields.int_, lambda v: v > 0, "n_samples must be > 0"),
    ("n_burn", "n_burn", _Fields.int_, lambda v: v >= 0, "n_burn must be >= 0"),
    ("step_h", "step_h", _Fields.float_, lambda v: v is None or v > 0, "step_h must be > 0"),
    ("horizon", "horizon", _Fields.float_, lambda v: v is None or v > 0, "horizon must be > 0"),
    ("eps_trunc", "eps_trunc", _Fields.float_, lambda v: 0 < v <= 1,
     "eps_trunc must lie in (0, 1]"),
    ("reservoir_cap", "reservoir_cap", _Fields.int_, lambda v: v >= 0,
     "reservoir_cap must be >= 0"),
    ("z0", "z0", _Fields.float_, lambda v: v >= 0, "z0 must be >= 0"),
    ("master_seed", "master_seed", _Fields.int_, lambda v: v is None or v >= 0,
     "master_seed must be >= 0"),
    ("out", "out_dir", _Fields.str_, None, None),
    ("threads", "threads", _Fields.int_, lambda v: v >= 1, "threads must be >= 1"),
    ("replications", "replications", _Fields.int_, lambda v: v >= 1, "replications must be >= 1"),
    ("suite", "suite", _Fields.str_, None, None),
)


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
    # a field without a default (lam) reads as None when its key is absent
    keys = {name: read(f, key, getattr(RunConfig, name, None))
            for key, name, read, _, _ in _KEYS}
    if keys["lam"] is None:
        raise ValidationError("lambda is required")
    f.reject_unknown()
    return RunConfig(model=model, collapse=collapse, **keys)
