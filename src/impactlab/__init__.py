"""impactlab: indifference pricing and price impact on Levy/Brownian factors.

Library layout:

* :mod:`impactlab.cumulants`  factor families and their cumulants
* :mod:`impactlab.utility`    certainty equivalents and price curves
* :mod:`impactlab.paths`      seeded path simulation on the unit grid
* :mod:`impactlab.efficient`  closed-form efficient Levy market
* :mod:`impactlab.markov`     complete Markov market, quadrature fields
* :mod:`impactlab.dp`         binomial-lattice dynamic programming
* :mod:`impactlab.cli`        runnable scenarios emitting deterministic CSV

The public names below are loaded lazily: ``import impactlab`` runs no layer
module, and ``from impactlab import X`` imports only X's layer and the layers
that one imports (``QuadraticModel`` loads ``markov``, ``utility`` and
``errors``, not ``dp`` or ``paths``).  A name is looked up in its layer on
every access, so a rebinding of ``impactlab.<layer>.<name>`` is seen through
the package too.  ``impactlab.cli`` still imports every layer at its top.
"""

import importlib

__version__ = "0.1.0"

# the layer module that defines each public name
_LAYERS = {
    "cumulants": ("Brownian", "GammaProcess", "LevyModel", "OneSidedStable"),
    "dp": (
        "ConvergenceRow", "DpScenario", "DpValue", "Lattice", "NoRebalanceReport",
        "conditional_ce", "conditional_pi", "convergence_study", "emm_eipu",
        "no_rebalance_check", "sup_convolution", "value_recursion"
    ),
    "efficient": (
        "EfficientRecord", "LevyScenario", "allocation_value", "efficient_batch_record",
        "efficient_convexity", "efficient_path_record", "efficient_price", "eipu",
        "optimal_position", "realized_pnl", "risk_premium"
    ),
    "errors": (
        "ArgumentError", "ConfigError", "DomainError", "NoRootError", "NonDifferentiableError",
        "ParameterError", "PreconditionError", "QuadratureError", "ScheduleError"
    ),
    "markov": (
        "CrashEvent", "MarkovPayoffs", "QuadraticForms", "QuadraticModel", "ShockWaveModel",
        "ShockWaveRecord", "completeness_invert", "crash_events", "field_p", "field_q",
        "field_u", "field_v", "optimal_strategy_markov", "quadratic_closed_forms",
        "quadratic_p", "quadratic_v", "replication_price", "shockwave_batch",
        "shockwave_path", "shockwave_price", "shockwave_strategy", "tanh_field",
        "wave_position"
    ),
    "paths": (
        "PathBatch", "PathGrid", "PathSample", "ShockSchedule", "path_generator",
        "simulate_batch", "simulate_path"
    ),
    "utility": (
        "AgentPair", "SampleSet", "certainty_equivalent", "levy_pi", "levy_price_curve"
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    if name in _LAYERS:  # a layer module not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached in this namespace: the layer's current binding is the answer
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
