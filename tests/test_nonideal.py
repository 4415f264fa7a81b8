"""Unit tests for the device non-ideality subsystem (repro.nonideal).

Covers the registry round-trips, the counter-based keyed sampling rules
(determinism under reseeding, independence across key coordinates, static
vs per-read lifetimes), the semantics of each model, the LUT composition of
pure value maps, the CellConfig migration, and the Monte Carlo statistics
(CI shrinks with trials; exact reproducibility under a fixed seed).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.adc.lut import compose_transfer_lut
from repro.adc.uniform import UniformAdc
from repro.crossbar import CellConfig, MappedMVMLayer, ReRAMCellModel
from repro.nonideal import (
    ConductanceVariation,
    GaussianReadNoise,
    IRDropAttenuation,
    NonIdealityModel,
    NonIdealityStack,
    RetentionDrift,
    StuckAtFaults,
    as_stack,
    build_model,
    registered_models,
)
from repro.nonideal.base import LayerNoiseContext
from repro.sim.stats import MonteCarloResult
from repro.utils import rng as rng_module
from repro.utils.rng import keyed_normal_into, new_rng


def _state(stack, columns=32, segments=(16, 16), max_bitline=64, layer="layer"):
    return stack.bind_layer(
        layer,
        crossbar_size=16,
        segment_sizes=segments,
        columns=columns,
        max_bitline=max_bitline,
    )


def _block(rng, rows=4, columns=32, high=64):
    return rng.integers(0, high + 1, size=(rows, columns)).astype(np.float64)


ALL_MODELS = [
    GaussianReadNoise(sigma=0.5),
    GaussianReadNoise(sigma=0.1, relative=True),
    ConductanceVariation(sigma=0.1),
    ConductanceVariation(sigma=0.1, quantize=True),
    StuckAtFaults(rate_on=0.01, rate_off=0.02),
    RetentionDrift(time=10.0, nu=0.1),
    IRDropAttenuation(alpha=0.2),
]


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_all_builtin_models_registered(self):
        assert set(registered_models()) >= {
            "gaussian_read_noise",
            "conductance_variation",
            "stuck_at_faults",
            "retention_drift",
            "ir_drop",
        }

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: repr(m))
    def test_spec_round_trip(self, model):
        spec = model.spec()
        rebuilt = build_model(spec)
        assert type(rebuilt) is type(model)
        assert rebuilt.spec() == spec

    def test_unknown_model_raises_with_hint(self):
        with pytest.raises(KeyError, match="gaussian_read_noise"):
            build_model({"model": "flux_capacitor"})
        with pytest.raises(ValueError, match="missing the 'model' key"):
            build_model({"sigma": 1.0})

    def test_stack_spec_round_trip(self):
        stack = NonIdealityStack(ALL_MODELS, seed=42)
        rebuilt = NonIdealityStack.from_specs(stack.specs(), seed=42)
        assert rebuilt.specs() == stack.specs()
        assert rebuilt.seed == stack.seed

    def test_stack_accepts_spec_dicts_directly(self):
        stack = NonIdealityStack(
            [{"model": "gaussian_read_noise", "sigma": 0.3, "relative": False}]
        )
        assert isinstance(stack.models[0], GaussianReadNoise)
        assert stack.models[0].sigma == 0.3

    def test_as_stack_normalisation(self):
        model = GaussianReadNoise(sigma=0.5)
        assert as_stack(None) is None
        assert as_stack([]) is None
        stack = as_stack(model)
        assert isinstance(stack, NonIdealityStack) and stack.models == (model,)
        assert as_stack(stack) is stack
        assert as_stack(stack, seed=9).seed == 9
        with pytest.raises(TypeError):
            as_stack(3.14)

    def test_as_stack_seeds_models_and_lists_at_zero(self):
        """A bare model, a list and a spec list all become a stack whose
        base seed is 0 unless ``seed=`` names one."""
        block = _block(np.random.default_rng(20))
        model = GaussianReadNoise(sigma=0.5)
        expected = _state(NonIdealityStack([model], seed=0)).perturb_block(block, 0, 0)
        for noise in (model, [model], [model.spec()]):
            stack = as_stack(noise)
            assert stack.seed == 0
            np.testing.assert_array_equal(
                _state(stack).perturb_block(block, 0, 0), expected
            )
            assert as_stack(noise, seed=7).seed == 7

    def test_as_stack_rejects_apply_only_objects(self):
        """An object with only the retired ``apply(values)`` method is not
        noise the simulator can key, on its own or inside a list."""

        class ApplyOnly:
            def apply(self, values):
                return values

        with pytest.raises(TypeError, match="ApplyOnly"):
            as_stack(ApplyOnly())
        with pytest.raises(TypeError):
            as_stack([GaussianReadNoise(sigma=0.5), ApplyOnly()])


# --------------------------------------------------------------------- #
# keyed sampling
# --------------------------------------------------------------------- #
class TestKeyedSampling:
    def test_same_seed_is_deterministic(self, rng):
        block = _block(rng)
        stack = NonIdealityStack([GaussianReadNoise(0.5)], seed=3)
        a = _state(stack).perturb_block(block, segment=1, cycle=2)
        b = _state(stack).perturb_block(block, segment=1, cycle=2)
        np.testing.assert_array_equal(a, b)

    def test_derive_trial_folds_in_the_stack_seed(self):
        models = [GaussianReadNoise(0.5)]
        a = NonIdealityStack(models, seed=111).derive_trial(0, 3)
        b = NonIdealityStack(models, seed=222).derive_trial(0, 3)
        assert a.seed != b.seed
        # ... while staying reproducible for a fixed (stack seed, run seed).
        assert a.seed == NonIdealityStack(models, seed=111).derive_trial(0, 3).seed

    def test_trials_draw_fresh_noise_for_every_model(self):
        """Fresh noise comes from a new Monte Carlo trial: each trial
        replica redraws per-read noise and binds a fresh pseudo-device for
        static models, while a repeated trial reproduces exactly."""
        block = _block(np.random.default_rng(21))
        for model in (GaussianReadNoise(0.5), ConductanceVariation(0.1)):
            stack = NonIdealityStack([model], seed=5)
            first, second, again = (
                _state(stack.derive_trial(0, trial)).perturb_block(block, 0, 0)
                for trial in (0, 1, 0)
            )
            assert not np.array_equal(first, second)
            np.testing.assert_array_equal(first, again)

    def test_reseeding_changes_draws(self, rng):
        block = _block(rng)
        stack = NonIdealityStack([GaussianReadNoise(0.5)], seed=3)
        a = _state(stack).perturb_block(block, segment=0, cycle=0)
        b = _state(stack.reseeded(4)).perturb_block(block, segment=0, cycle=0)
        assert not np.array_equal(a, b)

    def test_read_noise_differs_per_key_coordinate(self, rng):
        """Per-read noise must be fresh across chunk, segment and cycle."""
        block = _block(rng)
        stack = NonIdealityStack([GaussianReadNoise(0.5)], seed=0)
        state = _state(stack)
        base = state.perturb_block(block, segment=0, cycle=0)
        assert not np.array_equal(base, state.perturb_block(block, segment=1, cycle=0))
        assert not np.array_equal(base, state.perturb_block(block, segment=0, cycle=1))
        state.next_chunk()
        assert not np.array_equal(base, state.perturb_block(block, segment=0, cycle=0))

    def test_static_models_are_fixed_across_reads(self, rng):
        """Programming variation and fault maps model one physical device:
        identical across cycles and chunks, distinct across segments."""
        block = _block(rng)
        for model in (ConductanceVariation(0.1), StuckAtFaults(rate_on=0.05)):
            state = _state(NonIdealityStack([model], seed=1))
            first = state.perturb_block(block, segment=0, cycle=0)
            np.testing.assert_array_equal(
                first, state.perturb_block(block, segment=0, cycle=3)
            )
            state.next_chunk()
            np.testing.assert_array_equal(
                first, state.perturb_block(block, segment=0, cycle=0)
            )
            assert not np.array_equal(
                first, state.perturb_block(block, segment=1, cycle=0)
            )

    def test_streams_differ_across_layers_and_model_index(self, rng):
        block = _block(rng)
        stack = NonIdealityStack([GaussianReadNoise(0.5)], seed=0)
        a = _state(stack, layer="a").perturb_block(block, segment=0, cycle=0)
        b = _state(stack, layer="b").perturb_block(block, segment=0, cycle=0)
        assert not np.array_equal(a, b)
        two = NonIdealityStack(
            [ConductanceVariation(0.1), ConductanceVariation(0.1)], seed=0
        )
        bound = _state(two)._bound
        assert not np.array_equal(bound[0]._factors[0], bound[1]._factors[0])

    def test_perturb_never_mutates_input(self, rng):
        block = _block(rng)
        snapshot = block.copy()
        stack = NonIdealityStack(ALL_MODELS, seed=0)
        _state(stack).perturb_block(block, segment=0, cycle=0)
        np.testing.assert_array_equal(block, snapshot)


# --------------------------------------------------------------------- #
# model semantics
# --------------------------------------------------------------------- #
class TestModelSemantics:
    def test_gaussian_zero_sigma_is_identity(self, rng):
        block = _block(rng)
        state = _state(NonIdealityStack([GaussianReadNoise(0.0)]))
        out = state.perturb_block(block, 0, 0)
        np.testing.assert_array_equal(out, block)

    def test_gaussian_clamps_non_negative(self, rng):
        """Bit-line currents stay non-negative on every draw path: the
        allocating block, the reused buffer and the batched trials."""
        block = np.zeros((8, 32))
        state = _state(NonIdealityStack([GaussianReadNoise(5.0)]))
        bound = state._bound[0]
        for out in (
            state.perturb_block(block, 0, 0),
            state.perturb_block(block, 0, 1, out=np.empty_like(block)),
            bound.perturb_trials([bound, bound], np.stack([block, block]), 0, 2, 0),
        ):
            assert out.min() >= 0.0 and out.max() > 0.0

    def test_relative_gaussian_scales_with_max_bitline(self, rng):
        block = np.full((64, 32), 10.0)
        small = _state(NonIdealityStack([GaussianReadNoise(0.1, relative=True)]),
                       max_bitline=10)
        large = _state(NonIdealityStack([GaussianReadNoise(0.1, relative=True)]),
                       max_bitline=1000)
        dev_small = np.abs(small.perturb_block(block, 0, 0) - block).mean()
        dev_large = np.abs(large.perturb_block(block, 0, 0) - block).mean()
        assert dev_large > 10 * dev_small

    def test_quantized_variation_keeps_integer_domain(self, rng):
        block = _block(rng)
        stack = NonIdealityStack([ConductanceVariation(0.2, quantize=True)], seed=2)
        state = _state(stack)
        assert state.integer_domain
        out = state.perturb_block(block, 0, 0)
        np.testing.assert_array_equal(out, np.round(out))
        assert out.max() <= state.lut_bound

    def test_unquantized_variation_is_continuous(self):
        state = _state(NonIdealityStack([ConductanceVariation(0.2)]))
        assert not state.integer_domain

    def test_stuck_at_offsets_respect_bounds(self, rng):
        block = _block(rng, high=64)
        stack = NonIdealityStack([StuckAtFaults(rate_on=0.1, rate_off=0.1)], seed=0)
        state = _state(stack)
        assert state.integer_domain
        out = state.perturb_block(block, 0, 0)
        assert out.min() >= 0.0
        assert out.max() <= state.lut_bound
        np.testing.assert_array_equal(out, np.round(out))

    def test_stuck_at_zero_rates_is_identity(self, rng):
        block = _block(rng)
        state = _state(NonIdealityStack([StuckAtFaults()]))
        np.testing.assert_array_equal(state.perturb_block(block, 0, 0), block)
        assert state.lut_bound == 64

    def test_retention_drift_shrinks_values_monotonically(self):
        model = RetentionDrift(time=100.0, nu=0.1)
        assert 0.0 < model.factor < 1.0
        state = _state(NonIdealityStack([model]))
        vmap = state.pure_value_map()
        assert vmap is not None
        assert vmap[0] == 0
        assert np.all(np.diff(vmap) >= 0)  # monotone
        assert np.all(vmap <= np.arange(vmap.size))  # never amplifies
        # perturb must equal the map on integers (LUT-composition contract)
        values = np.arange(65, dtype=np.float64).reshape(1, -1)
        np.testing.assert_array_equal(
            state.perturb_block(values, 0, 0).ravel(), vmap[np.arange(65)]
        )

    def test_zero_time_drift_is_identity(self):
        state = _state(NonIdealityStack([RetentionDrift(time=0.0, nu=0.3)]))
        np.testing.assert_array_equal(
            state.pure_value_map(), np.arange(65, dtype=np.int64)
        )

    def test_ir_drop_attenuates_far_columns_more(self):
        block = np.full((2, 32), 100.0)
        state = _state(NonIdealityStack([IRDropAttenuation(alpha=0.2)]), columns=32)
        out = state.perturb_block(block, 0, 0)
        # Columns are packed 16 (crossbar_size) to an array in this context.
        assert out[0, 0] == pytest.approx(100.0)
        assert out[0, 15] == pytest.approx(80.0)
        assert out[0, 16] == pytest.approx(100.0)  # next array starts fresh

    def test_parameter_validation(self):
        for bad in (
            lambda: GaussianReadNoise(-0.1),
            lambda: ConductanceVariation(-1.0),
            lambda: StuckAtFaults(rate_on=1.5),
            lambda: StuckAtFaults(rate_off=-0.1),
            lambda: RetentionDrift(time=-1.0),
            lambda: IRDropAttenuation(alpha=2.0),
        ):
            with pytest.raises(ValueError):
                bad()

    def test_mixed_stack_domain_and_pure_map(self):
        assert _state(NonIdealityStack([
            StuckAtFaults(rate_on=0.01), RetentionDrift(time=1.0)
        ])).integer_domain
        assert _state(NonIdealityStack([
            StuckAtFaults(rate_on=0.01), GaussianReadNoise(0.5)
        ])).integer_domain is False
        # Stuck-at is column-dependent -> no pure per-value map.
        assert _state(NonIdealityStack([StuckAtFaults(rate_on=0.01)])).pure_value_map() is None
        # Two pure maps compose.
        both = _state(NonIdealityStack([
            RetentionDrift(time=1.0, nu=0.1), RetentionDrift(time=2.0, nu=0.1)
        ]))
        vmap = both.pure_value_map()
        assert vmap is not None and vmap[64] < 64


# --------------------------------------------------------------------- #
# LUT composition
# --------------------------------------------------------------------- #
class TestComposeTransferLut:
    def test_composition_equals_manual_indexing(self):
        adc = UniformAdc(bits=4, delta=1.5)
        base = adc.transfer_lut(40)
        vmap = np.minimum(np.arange(65), 40)
        composed = compose_transfer_lut(base, vmap)
        np.testing.assert_array_equal(composed.values, base.values[vmap])
        np.testing.assert_array_equal(composed.levels, base.levels[vmap])
        np.testing.assert_array_equal(composed.ops_per_value, base.ops_per_value[vmap])
        assert composed.scale == base.scale

    def test_out_of_domain_map_rejected(self):
        adc = UniformAdc(bits=4, delta=1.0)
        base = adc.transfer_lut(10)
        with pytest.raises(ValueError):
            compose_transfer_lut(base, np.array([0, 11]))


# --------------------------------------------------------------------- #
# CellConfig migration
# --------------------------------------------------------------------- #
class TestCellConfigMigration:
    def test_from_cell_config_maps_both_knobs(self):
        stack = NonIdealityStack.from_cell_config(
            CellConfig(programming_sigma=0.1, read_noise_sigma=0.02), seed=7
        )
        assert [type(m) for m in stack.models] == [ConductanceVariation, GaussianReadNoise]
        variation, read = stack.models
        assert variation.sigma == 0.1 and not variation.quantize
        assert read.sigma == 0.02 and read.relative
        assert stack.seed == 7

    def test_ideal_cell_config_gives_empty_stack(self):
        assert len(NonIdealityStack.from_cell_config(CellConfig())) == 0

    def test_reram_cell_model_silent_when_ideal(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ReRAMCellModel(CellConfig())
        assert caught == []

    def test_reram_cell_model_silent_on_nonideal_config(self):
        """The analog-mode knobs construct without a warning and still
        perturb the standalone cell model's conductances."""
        config = CellConfig(programming_sigma=0.1, read_noise_sigma=0.02)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cell = ReRAMCellModel(config, rng=3)
        assert caught == []
        codes = np.arange(config.levels)
        ideal = ReRAMCellModel(CellConfig()).code_to_conductance(codes)
        assert not np.array_equal(cell.code_to_conductance(codes), ideal)


# --------------------------------------------------------------------- #
# Monte Carlo statistics
# --------------------------------------------------------------------- #
def _mc_result(accuracies, confidence=0.95):
    accuracies = np.asarray(accuracies, dtype=np.float64)
    return MonteCarloResult(
        trials=accuracies.size,
        seed=0,
        confidence=confidence,
        accuracies=accuracies,
        flip_rates=np.zeros_like(accuracies),
        clean_accuracy=1.0,
        layer_stats={},
    )


class TestMonteCarloStatistics:
    def test_ci_shrinks_with_trials(self, rng):
        population = 0.8 + 0.05 * rng.standard_normal(4096)
        small = _mc_result(population[:8])
        large = _mc_result(population[:512])
        assert large.ci_halfwidth < small.ci_halfwidth
        # ~1/sqrt(n) scaling (std estimates differ, so allow slack)
        assert large.ci_halfwidth < small.ci_halfwidth / 4

    def test_ci_brackets_the_mean(self, rng):
        result = _mc_result(0.7 + 0.1 * rng.standard_normal(64))
        low, high = result.accuracy_ci
        assert low < result.mean_accuracy < high
        wider = _mc_result(result.accuracies, confidence=0.99)
        assert wider.ci_halfwidth > result.ci_halfwidth

    def test_degenerate_single_trial(self):
        result = _mc_result([0.5])
        assert result.std_accuracy == 0.0
        assert result.ci_halfwidth == float("inf")

    def test_summary_fields(self):
        result = _mc_result([0.5, 0.7])
        summary = result.summary()
        assert summary["mean_accuracy"] == pytest.approx(0.6)
        assert summary["worst_accuracy"] == pytest.approx(0.5)
        assert summary["mean_accuracy_drop"] == pytest.approx(0.4)
        assert summary["clean_accuracy"] == 1.0


# --------------------------------------------------------------------- #
# binding geometry
# --------------------------------------------------------------------- #
class TestBinding:
    def test_bind_mapped_reads_layer_geometry(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        stack = NonIdealityStack([StuckAtFaults(rate_on=0.01)], seed=0)
        state = stack.bind_mapped("conv", layer)
        bound = state._bound[0]
        assert bound.ctx.segment_sizes == tuple(layer.segment_sizes)
        assert bound.ctx.max_bitline == layer.max_bitline_value
        assert bound.ctx.columns == 2 * layer.num_weight_planes * layer.out_features
        assert state.lut_bound >= layer.max_bitline_value

    def test_custom_model_registration_contract(self):
        class Halver(NonIdealityModel):
            name = ""  # unregistered on purpose

            def params(self):
                return {}

            def bind(self, ctx: LayerNoiseContext):
                from repro.nonideal.base import BoundModel

                class _B(BoundModel):
                    def perturb(self, values, segment, cycle, chunk):
                        return np.asarray(values, dtype=np.float64) / 2.0

                return _B(ctx)

        stack = NonIdealityStack([Halver()])
        out = _state(stack).perturb_block(np.full((1, 32), 8.0), 0, 0)
        np.testing.assert_array_equal(out, np.full((1, 32), 4.0))


# --------------------------------------------------------------------- #
# in-place draws and chains
# --------------------------------------------------------------------- #
class TestInPlaceDraws:
    """The continuous kernel path draws into reused buffers; every value,
    sign of zero included, must equal the allocating draw."""

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (7,), (3, 11), (2, 3, 4)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.7e-3])
    def test_keyed_normal_out_equals_numpy_normal(self, shape, sigma):
        for seed in (0, 1, 2**40 + 7):
            expected = new_rng(seed).normal(0.0, sigma, size=shape)
            out = np.full(shape, np.nan)
            got = keyed_normal_into(seed, sigma, out)
            assert got is out
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("shape", [(0,), (3, 11), (2, 3, 4)])
    def test_read_noise_draws_are_new_rng_canonical(self, shape):
        """The allocating and the in-place read-noise draw are both
        ``new_rng(key).normal(0, σ, shape)`` for the model's derived key."""
        state = _state(NonIdealityStack([GaussianReadNoise(sigma=0.7)], seed=6))
        bound = state._bound[0]
        key = bound.ctx.draw_key("read", 2, 1, 3)
        expected = new_rng(key).normal(0.0, 0.7, size=shape)
        np.testing.assert_array_equal(bound._draw(shape, 1, 3, 2), expected)
        out = bound._draw(shape, 1, 3, 2, out=np.full(shape, np.nan))
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))

    def test_negative_zero_deviates_become_positive_zero(self, monkeypatch):
        """numpy's ``0.0 + σ·z`` turns a ``−0.0`` product into ``+0.0``."""

        class NegativeZeros:
            def standard_normal(self, out):
                out[...] = -0.0

        monkeypatch.setattr(rng_module, "new_rng", lambda seed: NegativeZeros())
        assert not np.signbit(rng_module.keyed_normal_into(3, 0.5, np.empty(4))).any()

    @pytest.mark.parametrize("specs", [
        [{"model": "gaussian_read_noise", "sigma": 0.7}],
        [{"model": "gaussian_read_noise", "sigma": 0.7},
         {"model": "stuck_at_faults", "rate_on": 0.05, "rate_off": 0.05}],
        [{"model": "stuck_at_faults", "rate_on": 0.05},
         {"model": "gaussian_read_noise", "sigma": 0.3},
         {"model": "ir_drop", "alpha": 0.1}],
        [{"model": "conductance_variation", "sigma": 0.1},
         {"model": "gaussian_read_noise", "sigma": 0.2, "relative": True}],
        [{"model": "retention_drift", "time": 5.0, "nu": 0.1}],
        [],
    ])
    def test_perturb_block_into_a_buffer_equals_the_allocating_chain(self, rng, specs):
        stack = NonIdealityStack(specs, seed=4)
        state = _state(stack, columns=24, segments=(16, 10), max_bitline=40).next_chunk()
        values = rng.integers(0, 41, size=(13, 24)).astype(np.float32)
        expected = state.perturb_block(values, 1, 3)
        out = np.full((13, 24), np.nan)
        got = state.perturb_block(values, 1, 3, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_custom_model_without_perturb_into_chains_into_a_buffer(self):
        class Halver(NonIdealityModel):
            name = ""

            def params(self):
                return {}

            def bind(self, ctx):
                from repro.nonideal.base import BoundModel

                class _B(BoundModel):
                    def perturb(self, values, segment, cycle, chunk):
                        assert values.dtype == np.float64
                        return values / 2.0

                return _B(ctx)

        state = _state(NonIdealityStack([Halver(), GaussianReadNoise(sigma=0.5)], seed=2))
        values = np.full((2, 32), 8.0, dtype=np.float32)
        out = np.empty((2, 32))
        np.testing.assert_array_equal(
            state.perturb_block(values, 0, 1, out=out), state.perturb_block(values, 0, 1)
        )
