"""impactlab: indifference pricing and price impact on Levy/Brownian factors.

Library layout:

* :mod:`impactlab.cumulants`  factor families and their cumulants
* :mod:`impactlab.utility`    certainty equivalents and price curves
* :mod:`impactlab.paths`      seeded path simulation on the unit grid
* :mod:`impactlab.efficient`  closed-form efficient Levy market
* :mod:`impactlab.markov`     complete Markov market, quadrature fields
* :mod:`impactlab.dp`         binomial-lattice dynamic programming
* :mod:`impactlab.cli`        runnable scenarios emitting deterministic CSV
"""

from .cumulants import (
    Brownian,
    GammaProcess,
    LevyModel,
    OneSidedStable,
)
from .dp import (
    ConvergenceRow,
    DpScenario,
    DpValue,
    Lattice,
    NoRebalanceReport,
    conditional_ce,
    conditional_pi,
    convergence_study,
    emm_eipu,
    no_rebalance_check,
    sup_convolution,
    value_recursion,
)
from .efficient import (
    EfficientRecord,
    LevyScenario,
    allocation_value,
    efficient_batch_record,
    efficient_convexity,
    efficient_path_record,
    efficient_price,
    eipu,
    optimal_position,
    realized_pnl,
    risk_premium,
)
from .errors import (
    ConfigError,
    DomainError,
    NoRootError,
    NonDifferentiableError,
    ParameterError,
    PreconditionError,
    QuadratureError,
    ScheduleError,
)
from .markov import (
    CrashEvent,
    MarkovPayoffs,
    QuadraticForms,
    QuadraticModel,
    ShockWaveModel,
    ShockWaveRecord,
    completeness_invert,
    crash_events,
    field_p,
    field_q,
    field_u,
    field_v,
    optimal_strategy_markov,
    quadratic_closed_forms,
    quadratic_p,
    quadratic_v,
    replication_price,
    shockwave_batch,
    shockwave_path,
    shockwave_price,
    shockwave_strategy,
    tanh_field,
    wave_position,
)
from .paths import (
    PathBatch,
    PathGrid,
    PathSample,
    ShockSchedule,
    martingale_component,
    path_generator,
    simulate_batch,
    simulate_path,
)
from .utility import (
    AgentPair,
    SampleSet,
    aggregated_utility,
    cash_invariance_check,
    certainty_equivalent,
    levy_pi,
    levy_price_curve,
)

__version__ = "0.1.0"
