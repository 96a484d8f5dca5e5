"""Shell-constrained MCMC for binary Boltzmann distributions.

Samples states at a fixed Hamming distance from a reference configuration
using large intracluster walk moves with exact pathwise accept ratios, plus a
Metropolis pair-swap baseline, exhaustive small-instance oracles, and
compute-fair autocorrelation analysis.
"""

from .analysis import (
    AcfCurve,
    EnergyTrace,
    acf,
    average_acf,
    emit_svg,
    integrated_time,
    load_trace,
    write_acf_csv,
    write_trace_csv,
)
from .errors import (
    CoherenceError,
    ConfigurationError,
    DegenerateTraceError,
    EnumerationBudgetError,
    ModelFormatError,
    ShellwalkError,
)
from .generators import (
    GaborSpec,
    cube3d_pm_j,
    grid2d,
    load_model,
    load_weights_csv,
    rbm_from_weights,
    rbm_gabor,
    save_model,
)
from .model import IsingModel, ShellConstraint, ShellState
from .oracle import (
    ExactShell,
    check_pathwise_db,
    detailed_balance_gap,
    enumerate_shell,
    exact_distribution,
    exact_im_kernel,
    exact_metropolis_kernel,
    stationarity_gap,
    tv_distance,
)
from .samplers import (
    ChainRecord,
    ImConfig,
    ImSampler,
    MetropolisConfig,
    MetropolisSampler,
    chain_rng,
    random_shell_state,
    run_chain,
)
from .saw_proposal import (
    SawMove,
    SawParams,
    make_engine,
    path_log_prob,
    propose,
    reverse_sequences,
)

__version__ = "0.1.0"
