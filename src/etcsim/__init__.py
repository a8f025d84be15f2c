"""Event-triggered stabilization over finite-rate channels with bounded delay.

Library layout: `model` holds the plant/trigger types and the matrix
exponentials, `bounds` the closed-form rate and bit bounds, `codec` the sign +
quantized-trigger-time packet format, `channel` the bounded-delay models,
`sim` the event-driven closed-loop engine, and `cli` the command-line front
end with bundled figure recipes.
"""

__version__ = "0.1.0"

from .bounds import (
    Assumption1Window,
    BoundInputs,
    CascadeBounds,
    access_rate_necessary,
    assumption1_window,
    beta,
    bits_lower_bound,
    critical_delay,
    equilibrium_delay,
    min_inter_event_time,
    packet_bits_necessary,
    packet_size_sufficient,
    rate_asymptote,
    time_quantization_tolerance,
    transmission_rate_necessary,
    transmission_rate_necessary_approx,
    transmission_rate_sufficient,
    triggering_rate_lower,
    triggering_rate_upper,
    v0_cascade_bound,
)
from .channel import (
    AdversarialDelay,
    ChannelState,
    ConstantDelay,
    ReplayDelay,
    UniformDelay,
    build_delay,
    sample_delay,
)
from .codec import Packet, decode, encode, reconstruct_error
from .errors import ConfigurationError, DecodeError, DivergenceError, PreconditionError
from .model import JordanPlant, ScalarPlant, TriggerConfig
from .sim import (
    PhaseCurve,
    RateReport,
    SimTrace,
    SweepRow,
    measure_rates,
    phase_curves,
    run_scalar,
    run_vector,
    sweep_gamma,
    validate_trace,
)
