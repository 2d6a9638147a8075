"""Timed binary session types with safe mixed-choice.

Parse timed session types and timed processes, decide well-formedness,
compute duals, simulate the layered transition semantics, check
compatibility, and verify progress of dual systems by bounded exploration.
"""

from .constraints import (
    Valuation,
    apply_reset,
    boundary_delays,
    eval_constraint,
    shift,
    zero_valuation,
)
from .parser import (
    parse_constraint,
    parse_process,
    parse_spec_file,
    parse_type,
    parse_valuation,
)
from .processes import (
    RunPolicy,
    RunStatus,
    eval_timeout,
    neq_set,
    phi,
    run,
    time_step,
    wait_set,
)
from .semantics import (
    ExploreLimits,
    ProgressReport,
    System,
    admissible_delays,
    check_progress,
    compatible,
    is_future_enabled,
    make_system,
    qconfig_time,
    system_steps,
    unfold_head,
)
from .sessiontypes import (
    WfReport,
    check_well_formed,
    dual,
    format_type,
    gamma,
)
from .zones import (
    constraint_equiv,
    entails,
    past,
    reset_constraint,
    to_zones,
    trajectory_zone,
)

__version__ = "0.1.0"
