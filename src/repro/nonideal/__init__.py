"""Device non-ideality subsystem: composable, registry-driven noise models.

The paper's accuracy evaluation assumes an ideal analog front end (all error
from ADC quantization); this package answers the standard reviewer question
— *how do the TRQ / co-design results hold up under device noise?* — with
five composable models (Gaussian read noise, log-normal conductance
variation, stuck-at faults, retention drift, IR-drop attenuation), each
implemented as a vectorized, counter-based keyed sampler so the fast and
reference simulation engines consume **identical** noise and stay
bit-identical (see :mod:`repro.nonideal.base` for the keying rules).

Quick use::

    from repro.nonideal import GaussianReadNoise, StuckAtFaults, NonIdealityStack

    stack = NonIdealityStack(
        [GaussianReadNoise(sigma=0.5), StuckAtFaults(rate_on=1e-3)], seed=0
    )
    result = simulator.evaluate(images, labels, configs, noise=stack)
    robustness = simulator.run_monte_carlo(images, labels, noise=stack, trials=16)
"""

from repro.nonideal.base import BoundModel, LayerNoiseContext, NonIdealityModel
from repro.nonideal.models import (
    ConductanceVariation,
    GaussianReadNoise,
    IRDropAttenuation,
    RetentionDrift,
    StuckAtFaults,
)
from repro.nonideal.registry import (
    build_model,
    build_models,
    model_class,
    register_model,
    registered_models,
)
from repro.nonideal.stack import LayerNoiseState, NonIdealityStack, as_stack

__all__ = [
    "BoundModel",
    "ConductanceVariation",
    "GaussianReadNoise",
    "IRDropAttenuation",
    "LayerNoiseContext",
    "LayerNoiseState",
    "NonIdealityModel",
    "NonIdealityStack",
    "RetentionDrift",
    "StuckAtFaults",
    "as_stack",
    "build_model",
    "build_models",
    "model_class",
    "register_model",
    "registered_models",
]
