"""Spectral stability analysis of a 1-D wave equation with boundary input delay.

The closed loop couples the wave to a transport realisation of the delay and
feeds back both the delay-line output and the boundary velocity.  The
package locates the characteristic roots (argument principle + unit-disk
polynomial reduction), derives the closed-form stability windows over the
gain, quantifies the high-frequency instabilities excited by small delay
perturbations, and cross-validates everything against an exact
method-of-characteristics simulator.
"""

from .chareq import (
    CharKind,
    DelayGains,
    DelaySystem,
    Rational,
    direct_feedback_system,
    equal_gain_system,
    eval_char,
    eval_g,
    eigenfunction,
    resolvent_apply,
)
from .contour import (
    ComplexRect,
    RootRecord,
    count_in_disk,
    count_in_strip,
    isolate_and_refine,
    min_unstable_imag,
    re_bound,
    spectral_abscissa,
    winding_rect,
)
from .polyform import (
    DiskRootReport,
    PolyReal,
    StabilityState,
    disk_roots,
    jury_all_inside,
    reduce_to_polynomial,
    stability_from_poly,
)
from .regions import (
    CriticalSet,
    RegionSpec,
    StabilityVerdict,
    branch_sign_at_zero,
    branch_sign_r,
    branch_sign_strip,
    classify,
    critical_set_E,
    crossing_state,
    find_pos_neg_cos,
    hale_two_delay,
    nearest_boundary,
    region_boundaries_bisect,
    stability_region,
)
from .robustness import (
    PerturbationCase,
    RobustnessBounds,
    bounds_for,
    check_low_freq_clear,
    find_lambda_eps,
    sweep,
    witness_F_epsilon,
)
from .pdesim import (
    EnergyTrace,
    InitialCondition,
    SimConfig,
    SimState,
    decay_rate,
    energy,
    init,
    named_ic,
    simulate,
    state_dict,
    step,
)

__version__ = "0.1.0"
