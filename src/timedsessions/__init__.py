"""Timed binary session types with safe mixed-choice.

Parse timed session types and timed processes, decide well-formedness,
compute duals, simulate the layered transition semantics, check
compatibility, and verify progress of dual systems by bounded exploration.

The package loads no module of its own on import.  A public name imports
its module on first use (a module ``__getattr__``, PEP 562) and is then
stored here, so a caller pays only for the modules it runs.
"""

from importlib import import_module as _import_module

# Each public name and the module that defines it.
_ORIGIN = {name: module for module, names in (
    ("constraints", "Valuation boundary_delays eval_constraint shift "
                    "zero_valuation"),
    ("parser", "parse_constraint parse_process parse_spec_file parse_type "
               "parse_valuation"),
    ("processes", "RunPolicy RunStatus eval_timeout neq_set phi run "
                  "time_step wait_set"),
    ("semantics", "ExploreLimits ProgressReport System admissible_delays "
                  "check_progress compatible is_future_enabled make_system "
                  "qconfig_time system_steps"),
    ("sessiontypes", "WfReport check_well_formed dual format_type gamma "
                     "unfold_head"),
    ("zones", "constraint_equiv entails past reset_constraint to_zones "
              "trajectory_zone"),
) for name in names.split()}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name from its module, kept here; else a submodule."""
    if name in _ORIGIN:
        value = globals()[name] = getattr(
            _import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        return value
    if not name.startswith("_"):  # a submodule not imported yet
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
