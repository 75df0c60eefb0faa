"""Single-fault configs for ``ngl.config.parse_config``, with the message each raises.

Each entry is (case id, changes, message). ``fault_config(changes)``
applies the changes to BASE, a valid strongly convex config; a change
to ``DROP`` removes the key.  Every config differs from a valid one in
exactly one respect: a key with the wrong type, a key set where it does
not apply, a key missing where it is required, a value out of range, or
one cross-field rule broken.  ``tests/test_cli.py`` asserts each
message and ``tools/trace_identity.py`` digests each outcome.
"""

import math

DROP = object()

BASE = {
    "problem.family": "nesterov_strongly_convex",
    "problem.mu": 1.0,
    "problem.L": 10.0,
    "problem.n": 6,
    "output.dir": "out",
}

CONVEX = {"problem.family": "nesterov_convex", "problem.k": 3, "problem.mu": DROP}
QUADRATIC = {"problem.family": "quadratic"}

FAULTS = [
    # selectors
    ("problem.family:type", {"problem.family": 3},
     "problem.family: expected a string, got 3"),
    ("problem.family:missing", {"problem.family": DROP},
     "problem.family: required for every config"),
    ("problem.family:range", {"problem.family": "banana"},
     "problem.family: must be one of ['nesterov_convex', "
     "'nesterov_strongly_convex', 'quadratic'], got 'banana'"),
    ("oracle.mode:type", {"oracle.mode": 1},
     "oracle.mode: expected a string, got 1"),
    ("oracle.mode:range", {"oracle.mode": "banana"},
     "oracle.mode: must be one of ['none', 'sampled_unbiased', "
     "'adversarial_opposing', 'top_k', 'sign', 'grid', "
     "'finite_difference', 'reduced_precision'], got 'banana'"),
    ("solver.name:type", {"solver.name": None},
     "solver.name: expected a string, got None"),
    ("solver.name:range", {"solver.name": "newton"},
     "solver.name: must be one of ['gd', 're_agm', 'adaptive_gd'], got "
     "'newton'"),
    ("driver.name:type", {"driver.name": ["none"]},
     "driver.name: expected a string, got ['none']"),
    ("driver.name:range", {"driver.name": "banana"},
     "driver.name: must be one of ['none', 'regularize', 'stopping', "
     "'restart', 'combined'], got 'banana'"),
    # problem
    ("problem.n:type", {"problem.n": True},
     "problem.n: expected an integer, got True"),
    ("problem.n:range", {"problem.n": 0},
     "problem.n: must be >= 1, got 0"),
    ("problem.L:type", {"problem.L": "10"},
     "problem.L: expected a number, got '10'"),
    ("problem.L:nonfinite", {"problem.L": math.inf},
     "problem.L: must be finite, got inf"),
    ("problem.L:huge_int", {"problem.L": 10**400},
     "problem.L: must be finite, got 1" + "0" * 400),
    ("problem.L:missing", {"problem.L": DROP},
     "problem.L: required for every config"),
    ("problem.L:range", {"problem.L": 0.0},
     "problem.L: must be positive, got 0.0"),
    ("problem.k:type", {**CONVEX, "problem.k": 2.0},
     "problem.k: expected an integer, got 2.0"),
    ("problem.k:inapplicable", {"problem.k": 3},
     "problem.k: only used with problem.family nesterov_convex, got 3"),
    ("problem.k:missing", {**CONVEX, "problem.k": DROP},
     "problem.k: required for problem.family nesterov_convex"),
    ("problem.k:range", {**CONVEX, "problem.k": 7},
     "problem.k: must be in [1, problem.n], got 7"),
    ("problem.mu:type", {"problem.mu": "1"},
     "problem.mu: expected a number, got '1'"),
    ("problem.mu:inapplicable", {**CONVEX, "problem.mu": 0.5},
     "problem.mu: only used with problem.family nesterov_strongly_convex or "
     "quadratic (nesterov_convex is a mu = 0 family), got 0.5"),
    ("problem.mu:missing", {"problem.mu": DROP},
     "problem.mu: required for problem.family nesterov_strongly_convex or "
     "quadratic (nesterov_convex is a mu = 0 family)"),
    ("problem.mu:range", {"problem.mu": -1.0},
     "problem.mu: must be positive, got -1.0"),
    # oracle
    ("oracle.alpha:type", {"oracle.alpha": False},
     "oracle.alpha: expected a number, got False"),
    ("oracle.alpha:inapplicable", {"oracle.mode": "sign", "oracle.alpha": 0.1},
     "oracle.alpha: only used with oracle.mode sampled_unbiased or "
     "adversarial_opposing (the other modes' levels are derived), got 0.1"),
    ("oracle.alpha:range", {"oracle.mode": "sampled_unbiased", "oracle.alpha": 1.0},
     "oracle.alpha: must be in [0, 1), got 1.0"),
    ("oracle.delta:type", {"oracle.delta": "0"},
     "oracle.delta: expected a number, got '0'"),
    ("oracle.delta:inapplicable", {"oracle.delta": 0.1},
     "oracle.delta: only used with oracle.mode sampled_unbiased or "
     "adversarial_opposing (the other modes' levels are derived), got 0.1"),
    ("oracle.delta:range", {"oracle.mode": "adversarial_opposing", "oracle.delta": -0.1},
     "oracle.delta: must be >= 0, got -0.1"),
    ("oracle.seed:type", {"oracle.seed": 1.5},
     "oracle.seed: expected an integer, got 1.5"),
    ("oracle.k:type", {"oracle.mode": "top_k", "oracle.k": "2"},
     "oracle.k: expected an integer, got '2'"),
    ("oracle.k:inapplicable", {"oracle.k": 2},
     "oracle.k: only used with oracle.mode top_k, got 2"),
    ("oracle.k:missing", {"oracle.mode": "top_k"},
     "oracle.k: required for oracle.mode top_k"),
    ("oracle.k:range", {"oracle.mode": "top_k", "oracle.k": 0},
     "oracle.k: must be in [1, problem.n], got 0"),
    ("oracle.m:type", {"oracle.mode": "grid", "oracle.m": 2.5},
     "oracle.m: expected an integer, got 2.5"),
    ("oracle.m:inapplicable", {"oracle.mode": "sign", "oracle.m": 4},
     "oracle.m: only used with oracle.mode grid, got 4"),
    ("oracle.m:missing", {"oracle.mode": "grid"},
     "oracle.m: required for oracle.mode grid"),
    ("oracle.m:range", {"oracle.mode": "grid", "oracle.m": 0},
     "oracle.m: must be in [1, 1.7976931348623157e+308], got 0"),
    ("oracle.m:huge_int", {"oracle.mode": "grid", "oracle.m": 10**309},
     "oracle.m: must be in [1, 1.7976931348623157e+308], got 1" + "0" * 309),
    ("oracle.h:type", {"oracle.mode": "finite_difference", "oracle.h": None},
     "oracle.h: expected a number, got None"),
    ("oracle.h:inapplicable", {"oracle.h": 1e-6},
     "oracle.h: only used with oracle.mode finite_difference, got 1e-06"),
    ("oracle.h:missing", {"oracle.mode": "finite_difference"},
     "oracle.h: required for oracle.mode finite_difference"),
    ("oracle.h:range", {"oracle.mode": "finite_difference", "oracle.h": 0.0},
     "oracle.h: must be positive, got 0.0"),
    ("oracle.value_noise:type", {"oracle.mode": "finite_difference", "oracle.h": 1e-6,
                                 "oracle.value_noise": "0"},
     "oracle.value_noise: expected a number, got '0'"),
    ("oracle.value_noise:inapplicable", {"oracle.value_noise": 1e-9},
     "oracle.value_noise: only used with oracle.mode finite_difference, got "
     "1e-09"),
    ("oracle.value_noise:range", {"oracle.mode": "finite_difference", "oracle.h": 1e-6,
                                  "oracle.value_noise": -1e-9},
     "oracle.value_noise: must be >= 0, got -1e-09"),
    ("oracle.precision_bits:type", {**QUADRATIC, "oracle.mode": "reduced_precision",
                                    "oracle.precision_bits": 10.0},
     "oracle.precision_bits: expected an integer, got 10.0"),
    ("oracle.precision_bits:inapplicable", {"oracle.precision_bits": 10},
     "oracle.precision_bits: only used with oracle.mode reduced_precision, "
     "got 10"),
    ("oracle.precision_bits:missing", {**QUADRATIC, "oracle.mode": "reduced_precision"},
     "oracle.precision_bits: required for oracle.mode reduced_precision"),
    ("oracle.precision_bits:range", {**QUADRATIC, "oracle.mode": "reduced_precision",
                                     "oracle.precision_bits": 53},
     "oracle.precision_bits: must be in [1, 52], got 53"),
    ("oracle.domain_radius:type", {**QUADRATIC, "oracle.mode": "reduced_precision",
                                   "oracle.precision_bits": 10, "oracle.domain_radius": "1"},
     "oracle.domain_radius: expected a number, got '1'"),
    ("oracle.domain_radius:inapplicable", {"oracle.domain_radius": 2.0},
     "oracle.domain_radius: only used with oracle.mode reduced_precision, "
     "got 2.0"),
    ("oracle.domain_radius:range", {**QUADRATIC, "oracle.mode": "reduced_precision",
                                    "oracle.precision_bits": 10, "oracle.domain_radius": 0.0},
     "oracle.domain_radius: must be positive, got 0.0"),
    # solver
    ("solver.N:type", {"solver.N": 1e3},
     "solver.N: expected an integer, got 1000.0"),
    ("solver.N:inapplicable", {**CONVEX, "driver.name": "regularize", "driver.epsilon": 0.1,
                               "solver.N": 100},
     "solver.N: only used with driver.name none or stopping (every other "
     "driver budgets its own runs), got 100"),
    ("solver.N:range", {"solver.N": -1},
     "solver.N: must be >= 0, got -1"),
    ("solver.alpha_param:type", {"solver.alpha_param": "0.1"},
     "solver.alpha_param: expected a number, got '0.1'"),
    ("solver.alpha_param:inapplicable", {"solver.name": "adaptive_gd",
                                         "solver.alpha_param": 0.1},
     "solver.alpha_param: only used with solver.name gd or re_agm and "
     "driver.name none (adaptive_gd discovers its level, drivers prescribe "
     "their own), got 0.1"),
    ("solver.alpha_param:inapplicable_driver", {"driver.name": "stopping", "driver.K": 2.0,
                                                "solver.alpha_param": 0.1},
     "solver.alpha_param: only used with solver.name gd or re_agm and "
     "driver.name none (adaptive_gd discovers its level, drivers prescribe "
     "their own), got 0.1"),
    ("solver.alpha_param:range", {"solver.alpha_param": 1.0},
     "solver.alpha_param: must be in [0, 1), got 1.0"),
    ("solver.L0:type", {"solver.name": "adaptive_gd", "solver.L0": "1"},
     "solver.L0: expected a number, got '1'"),
    ("solver.L0:inapplicable", {"solver.L0": 1.0},
     "solver.L0: only used with solver.name adaptive_gd, got 1.0"),
    ("solver.L0:range", {"solver.name": "adaptive_gd", "solver.L0": 0.0},
     "solver.L0: must be positive, got 0.0"),
    ("solver.tau:type", {"solver.name": "adaptive_gd", "solver.tau": 1},
     "solver.tau: expected true or false, got 1"),
    ("solver.tau:inapplicable", {"solver.tau": True},
     "solver.tau: only used with solver.name adaptive_gd, got True"),
    # driver
    ("driver.epsilon:type", {"driver.name": "restart", "driver.epsilon": "0.1"},
     "driver.epsilon: expected a number, got '0.1'"),
    ("driver.epsilon:inapplicable", {"driver.epsilon": 0.1},
     "driver.epsilon: only used with driver.name regularize, restart or "
     "combined, got 0.1"),
    ("driver.epsilon:missing", {"driver.name": "restart"},
     "driver.epsilon: required for driver.name regularize, restart or "
     "combined"),
    ("driver.epsilon:range", {"driver.name": "restart", "driver.epsilon": 0.0},
     "driver.epsilon: must be positive, got 0.0"),
    ("driver.beta:type", {"driver.beta": None},
     "driver.beta: expected a number, got None"),
    ("driver.beta:inapplicable", {"driver.beta": 0.25},
     "driver.beta: only used with driver.name regularize and solver.name "
     "re_agm, got 0.25"),
    ("driver.beta:range", {**CONVEX, "driver.name": "regularize", "driver.epsilon": 0.1,
                           "solver.name": "re_agm", "driver.beta": 0.75},
     "driver.beta: must be in [0, 1/2], got 0.75"),
    ("driver.tau:type", {"driver.tau": "0"},
     "driver.tau: expected a number, got '0'"),
    ("driver.tau:inapplicable", {"driver.tau": 0.25},
     "driver.tau: only used with driver.name combined, got 0.25"),
    ("driver.tau:range", {**CONVEX, "driver.name": "combined", "driver.epsilon": 0.1,
                          "driver.tau": 0.75},
     "driver.tau: must be in [0, 1/2], got 0.75"),
    ("driver.K:type", {"driver.name": "stopping", "driver.K": "2"},
     "driver.K: expected a number, got '2'"),
    ("driver.K:inapplicable", {"driver.K": 2.0},
     "driver.K: only used with driver.name stopping, got 2.0"),
    ("driver.K:missing", {"driver.name": "stopping"},
     "driver.K: required for driver.name stopping"),
    ("driver.K:range", {"driver.name": "stopping", "driver.K": 1.0},
     "driver.K: must exceed 1, got 1.0"),
    # output
    ("output.dir:type", {"output.dir": 5},
     "output.dir: expected a string, got 5"),
    ("output.dir:missing", {"output.dir": DROP},
     "output.dir: required for every config"),
    ("output.dir:range", {"output.dir": ""},
     "output.dir: must be a non-empty path, got ''"),
    # keys and cross-field rules
    ("key:not_a_string", {1: "x"},
     "config keys must be strings, got 1"),
    ("key:unknown", {"banana": 1},
     "unknown config field(s): banana"),
    ("cross:mu_above_L", {"problem.mu": 20.0},
     "problem.mu: must not exceed problem.L, got mu=20.0 > L=10.0"),
    ("cross:reduced_precision_family", {"oracle.mode": "reduced_precision",
                                        "oracle.precision_bits": 10},
     "oracle.mode: reduced_precision needs an explicit quadratic, set "
     "problem.family to 'quadratic'"),
    ("cross:driver_adaptive", {"driver.name": "stopping", "driver.K": 2.0,
                               "solver.name": "adaptive_gd"},
     "driver.name: drivers dispatch gd or re_agm only, not adaptive_gd"),
    ("cross:combined_solver", {**CONVEX, "driver.name": "combined", "driver.epsilon": 0.1,
                               "solver.name": "gd"},
     "solver.name: driver.name combined runs re_agm only, got 'gd'"),
    ("cross:convex_driver_mu", {"driver.name": "combined", "driver.epsilon": 0.1},
     "driver.name: combined needs a convex base (mu = 0), got mu=1.0"),
    ("cross:strongly_convex_driver_mu", {**CONVEX, "driver.name": "stopping",
                                         "driver.K": 2.0},
     "driver.name: stopping needs a strongly convex problem (mu > 0)"),
    ("cross:re_agm_mu", {**CONVEX, "solver.name": "re_agm"},
     "solver.name: re_agm needs mu > 0; on a convex problem use driver "
     "regularize or combined"),
]


def fault_config(changes: dict) -> dict:
    """BASE with ``changes`` applied; a change to DROP removes the key."""
    config = dict(BASE)
    for key, value in changes.items():
        if value is DROP:
            config.pop(key, None)
        else:
            config[key] = value
    return config
