"""Bit-identity of the batched Monte Carlo axis (tentpole of the PR).

``PimSimulator.run_monte_carlo(trial_batch=N)`` pushes a leading ``trials``
axis through the fused kernel (:meth:`MappedMVMLayer.matmul_trials`); the
contract — under the numpy array backend — is **bit-identity** with the
``trial_batch=1`` per-trial loop (the oracle): same accuracies, flip rates,
per-layer operation/region statistics, for every noise model, both engines
and any grouping of trials.  The experiments-runner coalescer builds on the
same contract to write byte-identical store artifacts.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adc import twin_range_config
from repro.core import TRQParams
from repro.datasets import build_dataset
from repro.nn.models import build_model
from repro.nonideal.stack import NonIdealityStack
from repro.quantization import quantize_model
from repro.sim import PimSimulator

#: One recipe per registered noise model with batched ``perturb_trials``
#: coverage: static integer-domain (variation, stuck-at, drift), static
#: column-dependent (IR drop) and per-read chunk-shaped draws (gaussian).
NOISE_RECIPES = {
    "variation_quantized": [
        {"model": "conductance_variation", "sigma": 0.08, "quantize": True}
    ],
    "stuck_at": [{"model": "stuck_at_faults", "rate_on": 0.01, "rate_off": 0.01}],
    "drift": [{"model": "retention_drift", "time": 24.0, "nu": 0.06}],
    "ir_drop": [{"model": "ir_drop", "alpha": 0.04}],
    "gaussian": [{"model": "gaussian_read_noise", "sigma": 1.2}],
}

TRQ_PARAMS = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0, bias=0)


@pytest.fixture(scope="module")
def harness():
    """A tiny untrained-but-quantized LeNet-5 and its evaluation inputs.

    Training changes no engine arithmetic, so the bit-identity contract is
    exercised just as well without it — and the module stays fast.
    """
    dataset = build_dataset("mnist", train_size=32, test_size=8, seed=0)
    model = build_model("lenet5", preset="tiny", num_classes=dataset.num_classes, rng=0)
    model.eval()
    quantized = quantize_model(model, dataset.train.images[:16])
    simulator = PimSimulator(quantized, engine="fast")
    configs = {
        name: twin_range_config(TRQ_PARAMS) for name in simulator.layer_names()
    }
    images = dataset.test.images[:4]
    labels = dataset.test.labels[:4]
    return quantized, configs, images, labels


def mc_fingerprint(result) -> str:
    """Byte-level fingerprint of everything a MC artifact persists."""
    import dataclasses

    blob = json.dumps(
        {
            "summary": result.summary(),
            "layer_stats": {
                name: dataclasses.asdict(stats)
                for name, stats in result.layer_stats.items()
            },
        },
        sort_keys=True,
    ).encode()
    digest = hashlib.sha256(blob)
    digest.update(result.accuracies.tobytes())
    digest.update(result.flip_rates.tobytes())
    return digest.hexdigest()


def run_mc(quantized, configs, images, labels, recipe, engine, trials, trial_batch,
           clean=None):
    simulator = PimSimulator(quantized, engine=engine)
    stack = NonIdealityStack(NOISE_RECIPES[recipe], seed=5)
    return simulator.run_monte_carlo(
        images, labels, stack,
        adc_configs=configs,
        trials=trials, batch_size=4, seed=3,
        trial_batch=trial_batch, clean=clean,
    )


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("recipe", sorted(NOISE_RECIPES))
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_batched_matches_loop(self, harness, recipe, engine):
        """trials=3 through groups of 2 (one full + one ragged group).

        ``trial_batch=1`` runs the same fused kernel as a group of one, so
        the independent oracle is the reference engine: the fast engine's
        batched run must also match the reference engine's per-trial loop.
        """
        quantized, configs, images, labels = harness
        clean = PimSimulator(quantized, engine=engine).evaluate(
            images, labels, configs, batch_size=4
        )
        loop = run_mc(quantized, configs, images, labels, recipe, engine,
                      trials=3, trial_batch=1, clean=clean)
        batched = run_mc(quantized, configs, images, labels, recipe, engine,
                         trials=3, trial_batch=2, clean=clean)
        assert mc_fingerprint(loop) == mc_fingerprint(batched)
        if engine == "reference":
            fast_batched = run_mc(quantized, configs, images, labels, recipe, "fast",
                                  trials=3, trial_batch=2, clean=clean)
            assert mc_fingerprint(fast_batched) == mc_fingerprint(loop)

    @pytest.mark.parametrize("recipe", ["variation_quantized", "gaussian"])
    def test_full_width_group_sixteen_trials(self, harness, recipe):
        """trials=16 in one batched invocation (the benchmark's shape)."""
        quantized, configs, images, labels = harness
        loop = run_mc(quantized, configs, images, labels, recipe, "fast",
                      trials=16, trial_batch=1)
        batched = run_mc(quantized, configs, images, labels, recipe, "fast",
                         trials=16, trial_batch=16)
        assert mc_fingerprint(loop) == mc_fingerprint(batched)

    def test_uneven_groups(self, harness):
        """trials=5 in groups of 2: grouping must not leak across groups."""
        quantized, configs, images, labels = harness
        loop = run_mc(quantized, configs, images, labels, "variation_quantized",
                      "fast", trials=5, trial_batch=1)
        batched = run_mc(quantized, configs, images, labels, "variation_quantized",
                         "fast", trials=5, trial_batch=2)
        assert mc_fingerprint(loop) == mc_fingerprint(batched)

    def test_trial_batch_larger_than_trials(self, harness):
        """trial_batch > trials degrades to one group of all trials."""
        quantized, configs, images, labels = harness
        loop = run_mc(quantized, configs, images, labels, "stuck_at",
                      "fast", trials=3, trial_batch=1)
        batched = run_mc(quantized, configs, images, labels, "stuck_at",
                         "fast", trials=3, trial_batch=64)
        assert mc_fingerprint(loop) == mc_fingerprint(batched)

    def test_trial_batch_validation(self, harness):
        quantized, configs, images, labels = harness
        with pytest.raises(ValueError):
            run_mc(quantized, configs, images, labels, "stuck_at",
                   "fast", trials=2, trial_batch=0)


class TestTorchBackendTolerance:
    def test_torch_backend_within_tolerance(self, harness):
        """The optional torch backend honours the documented rtol contract.

        Auto-skips where torch is not installed (the repo never requires
        it); where present, a noisy evaluation under the torch backend must
        match the numpy reference within ``BACKEND_RTOL``.
        """
        pytest.importorskip("torch")
        from repro.backend import BACKEND_RTOL, set_backend

        quantized, configs, images, labels = harness
        stack = NonIdealityStack(NOISE_RECIPES["variation_quantized"], seed=5)
        simulator = PimSimulator(quantized, engine="fast")
        reference = simulator.evaluate(
            images, labels, configs, batch_size=4, noise=stack
        )
        set_backend("torch")
        try:
            under_torch = simulator.evaluate(
                images, labels, configs, batch_size=4, noise=stack
            )
        finally:
            set_backend("numpy")
        np.testing.assert_allclose(
            under_torch.logits, reference.logits, rtol=BACKEND_RTOL, atol=0.0
        )
