"""Flat dotted-key experiment configs for the command-line harness.

A config is a single JSON object whose keys are dotted paths such as
"problem.family" or "oracle.alpha".  The flat shape keeps experiment
folders diffable: one line per knob, no nesting.  Sweep configs use the
same keys but may give a list of values for any leaf, meaning a
cross-product over the listed values.

The keys, in the order parse_config reads them:

  problem.family   objective family, see FAMILIES
  oracle.mode      gradient error source, see ORACLE_MODES
  solver.name      gradient method, see SOLVERS
  driver.name      outer loop around the method, see DRIVERS
  problem.n        dimension
  problem.L        smoothness constant
  problem.k        chain length of nesterov_convex
  problem.mu       strong convexity modulus
  oracle.alpha     relative noise level
  oracle.delta     absolute noise level
  oracle.seed      noise stream seed
  oracle.k         coordinates kept by top_k
  oracle.m         grid resolution
  oracle.h         finite-difference step
  oracle.value_noise     value-oracle noise bound of finite_difference
  oracle.precision_bits  significand bits of reduced_precision
  oracle.domain_radius   query radius reduced_precision certifies
  solver.N         step budget
  solver.alpha_param  level handed to the step-size rule (default: declared)
  solver.L0        initial smoothness guess of adaptive_gd (default: L)
  solver.tau       let adaptive_gd adapt its smoothness guess too
  driver.epsilon   target accuracy
  driver.beta      budget exponent of regularize with re_agm
  driver.tau       budget exponent of combined
  driver.K         stopping-rule multiplier
  output.dir       directory for trace.csv and summary.json

``_KEYS`` holds each key's rules: its type, its default, the selector
values under which it applies, whether it is required there, and its
range.  A key set where it does not apply is rejected unless its value
equals its default.  parse_config adds the rules that span keys: mu <=
L, reduced_precision only on the quadratic family, the driver and
solver wiring, and the solver.N default of 10^4 steps when mu > 0 and
10^3 otherwise.  NGL_SEED is the command line's: it sets oracle.seed.

The quadratic family builds a diagonal spectrum spread linearly over
[mu, L] with the minimizer at the all-ones point, so conditioning is
set by (mu, L) alone.  The start point is always the origin and driver
radii come from the problem's analytic minimizer; both are reproduction
conveniences, not tuned inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import dataclasses

import numpy as np

from .numkit import PrecisionSpec
from .oracles import (
    CompressedGradientOracle,
    FiniteDifferenceOracle,
    FloatingPointQuadraticOracle,
    GradientOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
)
from .problems import (
    ObjectiveProblem,
    nesterov_convex,
    nesterov_strongly_convex,
    quadratic,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config_file",
    "parse_config",
    "expand_sweep",
    "build_problem",
    "build_oracle",
]

FAMILIES = ("nesterov_convex", "nesterov_strongly_convex", "quadratic")
ORACLE_MODES = ("none", "sampled_unbiased", "adversarial_opposing", "top_k",
                "sign", "grid", "finite_difference", "reduced_precision")
SOLVERS = ("gd", "re_agm", "adaptive_gd")
DRIVERS = ("none", "regularize", "stopping", "restart", "combined")

_SYNTHETIC_MODES = ("sampled_unbiased", "adversarial_opposing")


class ConfigError(ValueError):
    """Malformed config: names the offending field or source line."""


def load_config_file(path: str) -> dict:
    """Read a flat JSON config, reporting parse errors with line/column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object of "
                          f"dotted keys, got {type(data).__name__}")
    return data


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _typed(key: str, value, kind: type):
    """value as a ``kind`` (str, int, float or bool); a bool is never a number."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return number


# range checks: (what the value must do, test of the value and the keys read so far)
def _one_of(choices):
    return f"be one of {list(choices)}", lambda v, got: v in choices


_POSITIVE = ("be positive", lambda v, got: v > 0.0)
_NONNEGATIVE = ("be >= 0", lambda v, got: v >= 0.0)
_AT_LEAST_ONE = ("be >= 1", lambda v, got: v >= 1)
_UNIT = ("be in [0, 1)", lambda v, got: 0.0 <= v < 1.0)
_HALF = ("be in [0, 1/2]", lambda v, got: 0.0 <= v <= 0.5)
_UP_TO_N = ("be in [1, problem.n]", lambda v, got: 1 <= v <= got["problem.n"])

_EVERY = "every config"
_SYNTHETIC = ({"oracle.mode": _SYNTHETIC_MODES},
              "oracle.mode sampled_unbiased or adversarial_opposing (the other "
              "modes' levels are derived)")
_FD = ({"oracle.mode": ("finite_difference",)}, "oracle.mode finite_difference")
_RP = ({"oracle.mode": ("reduced_precision",)}, "oracle.mode reduced_precision")
_ADAPTIVE = ({"solver.name": ("adaptive_gd",)}, "solver.name adaptive_gd")

# One row per key: (key, ExperimentConfig field, type, default, where it
# applies ({selector: values}, None for always), what it applies to,
# required there, range check).  The selectors come first, because
# every other row's applicability reads them.
_KEYS = (
    ("problem.family", "family", str, None, None, _EVERY, True, _one_of(FAMILIES)),
    ("oracle.mode", "mode", str, "none", None, _EVERY, False, _one_of(ORACLE_MODES)),
    ("solver.name", "solver", str, "gd", None, _EVERY, False, _one_of(SOLVERS)),
    ("driver.name", "driver", str, "none", None, _EVERY, False, _one_of(DRIVERS)),
    ("problem.n", "n", int, 100, None, _EVERY, False, _AT_LEAST_ONE),
    ("problem.L", "L", float, None, None, _EVERY, True, _POSITIVE),
    ("problem.k", "k", int, None, {"problem.family": ("nesterov_convex",)},
     "problem.family nesterov_convex", True, _UP_TO_N),
    ("problem.mu", "mu", float, 0.0,
     {"problem.family": ("nesterov_strongly_convex", "quadratic")},
     "problem.family nesterov_strongly_convex or quadratic (nesterov_convex "
     "is a mu = 0 family)", True, _POSITIVE),
    ("oracle.alpha", "alpha", float, 0.0, *_SYNTHETIC, False, _UNIT),
    ("oracle.delta", "delta", float, 0.0, *_SYNTHETIC, False, _NONNEGATIVE),
    ("oracle.seed", "seed", int, 0, None, _EVERY, False, None),
    ("oracle.k", "top_k", int, None, {"oracle.mode": ("top_k",)},
     "oracle.mode top_k", True, _UP_TO_N),
    ("oracle.m", "grid_m", int, None, {"oracle.mode": ("grid",)},
     "oracle.mode grid", True, _AT_LEAST_ONE),
    ("oracle.h", "fd_h", float, None, *_FD, True, _POSITIVE),
    ("oracle.value_noise", "fd_value_noise", float, 0.0, *_FD, False, _NONNEGATIVE),
    ("oracle.precision_bits", "precision_bits", int, None, *_RP, True,
     ("be in [1, 52]", lambda v, got: 1 <= v <= 52)),
    ("oracle.domain_radius", "domain_radius", float, 1.0, *_RP, False, _POSITIVE),
    ("solver.N", "steps", int, None, {"driver.name": ("none", "stopping")},
     "driver.name none or stopping (every other driver budgets its own runs)",
     False, _NONNEGATIVE),
    ("solver.alpha_param", "alpha_param", float, None,
     {"solver.name": ("gd", "re_agm"), "driver.name": ("none",)},
     "solver.name gd or re_agm and driver.name none (adaptive_gd discovers "
     "its level, drivers prescribe their own)", False, _UNIT),
    ("solver.L0", "L0", float, None, *_ADAPTIVE, False, _POSITIVE),
    ("solver.tau", "adapt_L", bool, False, *_ADAPTIVE, False, None),
    ("driver.epsilon", "epsilon", float, None,
     {"driver.name": ("regularize", "restart", "combined")},
     "driver.name regularize, restart or combined", True, _POSITIVE),
    ("driver.beta", "beta", float, 0.5,
     {"driver.name": ("regularize",), "solver.name": ("re_agm",)},
     "driver.name regularize and solver.name re_agm", False, _HALF),
    ("driver.tau", "tau", float, 0.0, {"driver.name": ("combined",)},
     "driver.name combined", False, _HALF),
    ("driver.K", "K", float, None, {"driver.name": ("stopping",)},
     "driver.name stopping", True, ("exceed 1", lambda v, got: v > 1.0)),
    ("output.dir", "out_dir", str, None, None, _EVERY, True,
     ("be a non-empty path", lambda v, got: v != "")),
)


# a field per _KEYS row, None where an unset key does not apply; the
# module is named for pickling (ngl sweep --jobs 2)
ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig", [row[1:3] for row in _KEYS], frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "One validated experiment: problem, oracle, solver, driver, output."})


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a flat dict of one run into an ExperimentConfig.

    Structural problems (types, unknown keys, inapplicable or missing
    fields, broken cross-field wiring) raise ConfigError here; the
    mathematical hypothesis guards stay in the core modules and fire at
    assembly or run time.
    """
    for key in raw:
        if not isinstance(key, str):
            raise ConfigError(f"config keys must be strings, got {key!r}")
    unknown = sorted(set(raw).difference(row[0] for row in _KEYS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")

    got = {}
    for key, _, kind, default, where, what, required, check in _KEYS:
        applies = where is None or all(got[s] in values for s, values in where.items())
        if key not in raw:
            if applies and required:
                raise ConfigError(f"{key}: required for {what}")
            got[key] = default
            continue
        value = _typed(key, raw[key], kind)
        if not applies and value != default:
            raise ConfigError(f"{key}: only used with {what}, got {value!r}")
        if applies and check is not None and not check[1](value, got):
            raise ConfigError(f"{key}: must {check[0]}, got {value!r}")
        got[key] = value

    mu, L = got["problem.mu"], got["problem.L"]
    solver, driver = got["solver.name"], got["driver.name"]
    if mu > L:
        raise ConfigError(f"problem.mu: must not exceed problem.L, "
                          f"got mu={mu} > L={L}")
    if got["oracle.mode"] == "reduced_precision" and got["problem.family"] != "quadratic":
        raise ConfigError("oracle.mode: reduced_precision needs an "
                          "explicit quadratic, set problem.family to "
                          "'quadratic'")
    if driver != "none" and solver == "adaptive_gd":
        raise ConfigError("driver.name: drivers dispatch gd or re_agm only, "
                          "not adaptive_gd")
    if driver in ("regularize", "combined") and mu != 0.0:
        raise ConfigError(f"driver.name: {driver} needs a convex base "
                          f"(mu = 0), got mu={mu}")
    if driver in ("stopping", "restart") and not mu > 0.0:
        raise ConfigError(f"driver.name: {driver} needs a strongly convex "
                          f"problem (mu > 0)")
    if solver == "re_agm" and mu == 0.0 and driver not in ("regularize",
                                                           "combined"):
        raise ConfigError("solver.name: re_agm needs mu > 0; on a convex "
                          "problem use driver regularize or combined")
    if got["solver.N"] is None:
        got["solver.N"] = 10_000 if mu > 0.0 else 1_000
    return ExperimentConfig(**{field: got[key] for key, field, *_ in _KEYS})


def expand_sweep(raw: dict):
    """Split a sweep config into its cross-product of single-run dicts.

    Any list-valued field is a sweep axis.  Returns (varied_keys, runs)
    with keys sorted and the product enumerated with the last key
    varying fastest, so run indices are stable across invocations.
    """
    axes = {}
    base = {}
    for key, value in raw.items():
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"{key}: empty sweep list")
            if any(isinstance(v, (list, dict)) for v in value):
                raise ConfigError(f"{key}: sweep values must be scalars")
            axes[key] = value
        else:
            base[key] = value
    varied = sorted(axes)
    runs = []
    for combo in itertools.product(*(axes[k] for k in varied)):
        d = dict(base)
        d.update(zip(varied, combo))
        runs.append(d)
    return varied, runs


def build_problem(cfg: ExperimentConfig) -> ObjectiveProblem:
    """Instantiate the configured objective."""
    if cfg.family == "nesterov_convex":
        return nesterov_convex(cfg.k, cfg.L, cfg.n)
    if cfg.family == "nesterov_strongly_convex":
        return nesterov_strongly_convex(cfg.mu, cfg.L, cfg.n)
    # diagonal spectrum spread over [mu, L], minimizer at the ones vector
    diag = np.linspace(cfg.mu, cfg.L, cfg.n)
    A = np.diag(diag)
    b = -diag.copy()
    return quadratic(A, b, name=f"diag[{cfg.mu},{cfg.L}]^{cfg.n}")


def build_oracle(cfg: ExperimentConfig, problem: ObjectiveProblem) -> GradientOracle:
    """Instantiate the configured gradient oracle for a built problem."""
    if cfg.mode in ("none",) + _SYNTHETIC_MODES:
        spec = NoiseSpec(alpha=cfg.alpha, delta=cfg.delta, mode=cfg.mode,
                         seed=cfg.seed)
        return SyntheticNoiseOracle(problem, spec)
    if cfg.mode == "top_k":
        return CompressedGradientOracle(problem, "top_k", cfg.top_k)
    if cfg.mode == "sign":
        return CompressedGradientOracle(problem, "sign")
    if cfg.mode == "grid":
        return CompressedGradientOracle(problem, "grid", cfg.grid_m)
    if cfg.mode == "finite_difference":
        return FiniteDifferenceOracle(problem, cfg.fd_h, cfg.fd_value_noise,
                                      cfg.seed)
    return FloatingPointQuadraticOracle(problem, PrecisionSpec(cfg.precision_bits),
                                        cfg.domain_radius)
