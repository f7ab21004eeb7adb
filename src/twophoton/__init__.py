"""Two-photon interference at a polarization-dependent beam splitter.

The package has three layers that deliberately do not share arithmetic:

* :mod:`twophoton.fock`, :mod:`twophoton.elements`, :mod:`twophoton.engine`
  build detection probabilities from the splitter transfer coefficients:
  each detector operator is a row over the four occupied input modes
  (built by `elements.analyzer_rows`), each photon a row over its own
  side's two modes (`product_state(theta1, theta2)`), and each pair
  amplitude is a 2x2 permanent (the operator-algebra route);
* :mod:`twophoton.formulas` carries the factorized closed forms for the
  same probabilities;
* :mod:`twophoton.montecarlo` samples click-level runs from a full outcome
  distribution; counts and estimates are arrays with the twelve outcomes
  on the last axis, labelled by `OUTCOMES`, and `OPPOSITE` masks the
  opposite-side ones.

:mod:`twophoton.compare` declares every experiment once, in the table
`EXPERIMENTS`: its parameters, accepted inputs, domain, engine route,
closed-form route and agreement grid.  It checks engine against formulas
over dense parameter grids, and `twophoton.cli` exposes the `twophoton`
command, whose `sweep`, `compare` and `mc` subcommands read that table.
"""

from .compare import DEFAULT_TOL, CheckResult, run_comparison
from .elements import BeamSplitterSpec
from .engine import (
    OPPOSITE,
    OUTCOMES,
    Arm,
    InputSpec,
    coincidence_no_polarizers,
    coincidence_probability,
    double_trigger_probability,
    full_outcome_distribution,
    same_arm_no_polarizers,
    same_arm_probability,
)
from .fock import product_state, vacuum_amplitude
from .formulas import (
    bunch_path_amplitudes,
    p_classical,
    p_coincidence,
    p_double_trigger,
    p_no_polarizers,
    p_same_arm,
    p_same_arm_no_polarizers,
    p_unpolarized,
    p_unpolarized_5050,
    p_unpolarized_same_arm,
    pair_path_amplitudes,
)
from .montecarlo import (
    BLOCK_PAIRS,
    RNG_ALGORITHM,
    RunConfig,
    consistency_z,
    estimate,
    pearson_chi2,
    sample_counts,
)

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "product_state",
    "vacuum_amplitude",
    "BeamSplitterSpec",
    "InputSpec",
    "OUTCOMES",
    "OPPOSITE",
    "coincidence_probability",
    "coincidence_no_polarizers",
    "same_arm_probability",
    "same_arm_no_polarizers",
    "double_trigger_probability",
    "full_outcome_distribution",
    "pair_path_amplitudes",
    "bunch_path_amplitudes",
    "p_coincidence",
    "p_no_polarizers",
    "p_same_arm",
    "p_same_arm_no_polarizers",
    "p_double_trigger",
    "p_unpolarized",
    "p_unpolarized_5050",
    "p_unpolarized_same_arm",
    "p_classical",
    "RunConfig",
    "sample_counts",
    "estimate",
    "consistency_z",
    "pearson_chi2",
    "BLOCK_PAIRS",
    "RNG_ALGORITHM",
    "run_comparison",
    "CheckResult",
    "DEFAULT_TOL",
]
