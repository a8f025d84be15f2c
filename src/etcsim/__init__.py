"""Event-triggered stabilization over finite-rate channels with bounded delay.

Library layout: `model` holds the plant/trigger types and the matrix
exponentials, `bounds` the closed-form rate and bit bounds, the analytic
phase curves and the checks of the design parameters, `codec` the sign +
quantized-trigger-time packet format, `channel` the bounded-delay models,
`sim` the event-driven closed-loop engine, and `cli` the command-line front
end with bundled figure recipes.  Each exported name imports its submodule
on first use, so the analytic names leave numpy unloaded.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule: the public names it defines, each imported on first use
    "bounds": (
        "AnalyticBounds", "Assumption1Window", "BoundInputs", "PhaseCurve", "analytic_bounds",
        "assumption1_window", "phase_curves",
    ),
    "channel": ("AdversarialDelay", "ConstantDelay", "ReplayDelay", "UniformDelay"),
    "codec": ("Packet", "decode", "encode", "reconstruct_error"),
    "errors": ("ConfigurationError", "DecodeError", "DivergenceError", "PreconditionError"),
    "model": ("JordanPlant", "TriggerConfig"),
    "sim": ("RateReport", "SimTrace", "measure_rates", "run_vector", "validate_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name or submodule, imported now: numpy loads only with a module that uses it."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
