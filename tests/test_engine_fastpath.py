"""Fast-engine equivalence tests.

The fused cycle/segment kernel with integer-domain LUT conversion
(``engine="fast"``) must be *bit-identical* to the per-(cycle, segment)
reference loop — same merged outputs (``np.array_equal``), same A/D-operation
totals, same conversion/region statistics — for every converter type.  These
tests pin that contract at the mapped-layer level and end-to-end through
:class:`repro.sim.PimSimulator`.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from harness.adc_lut import lut_convert
from repro.adc import (
    ConversionStats,
    TwinRangeAdc,
    UniformAdc,
    twin_range_config,
    uniform_config,
)
from repro.adc.lut import TrialLutGather
from repro.core import TRQParams
from repro.crossbar import CrossbarTopology, MappedMVMLayer
from repro.crossbar.merge import reference_integer_matmul
from repro.crossbar.slicing import slice_inputs_temporal
from repro.nonideal import GaussianReadNoise as KeyedReadNoise
from repro.nonideal import NonIdealityModel, NonIdealityStack, RetentionDrift
from repro.nonideal.stack import LayerNoiseState, TrialNoiseStates
from repro.quantization import QuantizationConfig
from repro.sim import PimSimulator
from repro.sim.pim_layer import PimBackend
from repro.utils import threads


def _summed(vectors):
    """The sum of count vectors of different lengths, trailing zeros trimmed."""
    total = np.zeros(max(v.size for v in vectors), dtype=np.int64)
    for vector in vectors:
        total[: vector.size] += vector
    return np.trim_zeros(total, "b")


def _assert_counts_agree(layer, inputs):
    """Fast-engine capture counts equal the reference engine's block counts."""
    counts = {}
    for engine in ("reference", "fast"):
        vectors = []
        layer.matmul(inputs, partial_observer=vectors.append, engine=engine)
        counts[engine] = _summed(vectors)
    np.testing.assert_array_equal(counts["fast"], counts["reference"])
    return counts["fast"]


def _assert_engines_agree(layer, inputs, make_adc):
    ref_adc, fast_adc = make_adc(), make_adc()
    ref, ref_ops = layer.matmul(inputs, adc=ref_adc, engine="reference")
    fast, fast_ops = layer.matmul(inputs, adc=fast_adc, engine="fast")
    np.testing.assert_array_equal(ref, fast)
    assert ref_ops == fast_ops
    if ref_adc is not None:
        assert ref_adc.stats == fast_adc.stats
    return ref


class TestEngineEquivalence:
    def test_ideal_conversion_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 9)))
        inputs = rng.integers(0, 256, size=(17, 300))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_uniform_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(140, 7)))
        inputs = rng.integers(0, 256, size=(11, 140))
        _assert_engines_agree(layer, inputs, lambda: UniformAdc(bits=5, delta=3.7))

    def test_twin_range_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        inputs = rng.integers(0, 256, size=(13, 200))
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=0.9, bias=3)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))

    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", [
        (16, 1, 1), (64, 2, 1), (128, 1, 2), (32, 2, 2),
    ])
    def test_bit_identical_across_topologies(self, rng, crossbar_size, bits_per_cell, dac_bits):
        topology = CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(90, 6)),
                               QuantizationConfig(), topology)
        inputs = rng.integers(0, 256, size=(7, 90))
        params = TRQParams(n_r1=3, n_r2=6, m=2, delta_r1=1.0, bias=1)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_fast_engine_is_chunk_invariant(self, rng):
        """Reused scratch buffers must not leak state between calls."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(150, 8)))
        adc = TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3))
        big = rng.integers(0, 256, size=(64, 150))
        whole, _ = layer.matmul(big, adc=adc, engine="fast")
        parts = [layer.matmul(big[i : i + 16], adc=adc, engine="fast")[0] for i in range(0, 64, 16)]
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=0))

    def test_observers_receive_equal_counts_from_both_engines(self, rng):
        """An observer receives count vectors of the ideal bit-line values:
        the reference engine one ``np.bincount`` per (cycle, segment) block,
        the fast engine one per call.  Both sum to the histogram of every
        value the blocks hold, recomputed here block by block."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 4)))
        inputs = rng.integers(0, 256, size=(5, 300))
        segments, cycles = layer.num_segments, layer.num_input_cycles
        assert segments >= 2 and cycles == 8
        seen = {}
        for engine in ("reference", "fast"):
            vectors = seen[engine] = []
            layer.matmul(inputs, partial_observer=vectors.append, engine=engine)
        assert len(seen["reference"]) == segments * cycles
        assert len(seen["fast"]) == 1
        expected = np.bincount(np.concatenate([
            layer.bitline_partials(cycle, s).ravel().astype(np.int64)
            for cycle in slice_inputs_temporal(inputs, 8, 1)
            for s in range(segments)
        ]))
        for engine, vectors in seen.items():
            assert all(v.dtype == np.int64 and v.ndim == 1 for v in vectors), engine
            np.testing.assert_array_equal(_summed(vectors), expected, err_msg=engine)

    def test_unknown_engine_rejected(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.zeros((1, 4), dtype=int), engine="warp")

    def test_fast_engine_rejects_out_of_range_inputs(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.array([[-1, 0, 0, 0]]), engine="fast")
        with pytest.raises(ValueError):
            layer.matmul(np.array([[0, 0, 0, 99]]), engine="fast")


TOPOLOGIES = [(16, 1, 1), (64, 2, 1), (128, 1, 2), (32, 2, 2)]


class TestCycleStacking:
    @pytest.mark.parametrize("activation_bits,dac_bits", [
        (8, 1), (8, 2), (4, 1), (12, 3), (16, 4),
    ])
    def test_stack_cycles_equals_temporal_slicing(self, activation_bits, dac_bits):
        rng = np.random.default_rng(100 * activation_bits + dac_bits)
        layer = MappedMVMLayer(
            rng.integers(-7, 8, size=(20, 3)),
            QuantizationConfig(weight_bits=4, activation_bits=activation_bits),
            CrossbarTopology(dac_bits=dac_bits),
        )
        codes = rng.integers(0, 1 << activation_bits, size=(9, 20))
        codes[0], codes[1] = (1 << activation_bits) - 1, 0
        expected = slice_inputs_temporal(codes, activation_bits, dac_bits)
        stacked = layer._stack_cycles(codes)
        assert stacked.dtype == np.float32
        np.testing.assert_array_equal(
            stacked, expected.astype(np.float32).reshape(-1, codes.shape[1])
        )

    @pytest.mark.parametrize("activation_bits,dac_bits", [(8, 1), (12, 3)])
    def test_stack_cycles_rejects_like_temporal_slicing(self, activation_bits, dac_bits):
        layer = MappedMVMLayer(
            np.ones((4, 2), dtype=np.int64),
            QuantizationConfig(weight_bits=4, activation_bits=activation_bits),
            CrossbarTopology(dac_bits=dac_bits),
        )
        for bad in (np.array([[3, -1, 0, 0]]), np.array([[0, 1 << activation_bits, 2, 0]])):
            with pytest.raises(ValueError) as expected:
                slice_inputs_temporal(bad, activation_bits, dac_bits)
            with pytest.raises(ValueError) as got:
                layer._stack_cycles(bad)
            assert str(got.value) == str(expected.value)


def _trq_window():
    """A twin-range ADC with ``bias > 0``: R1 is then a window."""
    return TwinRangeAdc(TRQParams(n_r1=3, n_r2=6, m=3, delta_r1=1.0, bias=2))


class TestPairLayout:
    """The pair layout converts a positive/negative column pair through one
    pair code ``B·v⁺ + v⁻`` and one difference table; these tests pin its
    tables, the layout choice and its bit-identity to the reference."""

    def test_pair_matrix_and_difference_tables_are_exact(self):
        rng = np.random.default_rng(5)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        adcs = [
            TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3, bias=bias)) for bias in (0, 1, 3)
        ]
        luts, _, gather = layer._conversion_setup(adcs, None)
        pair_matrix = layer._pair_matrix()
        base = layer.max_bitline_value + 1
        width = layer.num_weight_planes * layer.out_features
        planes = layer._plane_matrix
        assert pair_matrix.dtype == np.float32
        np.testing.assert_array_equal(
            pair_matrix, base * planes[:, :width] + planes[:, width:]
        )
        assert gather.pair_base == base
        for t, lut in enumerate(luts):
            levels = lut.levels.astype(np.int64)
            expected = (levels[:base, None] - levels[None, :base]).reshape(-1)
            start = int(gather.offsets[t])
            table = gather.levels[start : start + base * base]
            np.testing.assert_array_equal(table.astype(np.int64), expected)

    @pytest.mark.parametrize("case", ["just_inside", "just_outside", "wide_cells"])
    def test_layout_boundary_matches_reference(self, case):
        side = math.isqrt(MappedMVMLayer._PAIR_MAX_BINS)
        rng = np.random.default_rng(side)
        if case == "wide_cells":
            rows, topology, pair = 128, CrossbarTopology(128, 4, 4), False
        else:
            # One segment whose first column holds a 1 on every row: the
            # plane-0 column sum, hence max_bitline_value, equals ``rows``.
            rows = side - 1 if case == "just_inside" else side
            topology, pair = CrossbarTopology(side, 1, 1), case == "just_inside"
        weights = rng.integers(-127, 128, size=(rows, 4))
        if case != "wide_cells":
            weights[:, 0] = 1
        layer = MappedMVMLayer(weights, QuantizationConfig(), topology)
        base = layer.max_bitline_value + 1
        if case != "wide_cells":
            assert base == rows + 1
        assert (base * base <= MappedMVMLayer._PAIR_MAX_BINS) is pair
        inputs = rng.integers(0, 256, size=(6, rows))
        for make_adc in (lambda: UniformAdc(bits=5, delta=7.0), _trq_window):
            luts = layer._conversion_setup([make_adc()], None)[0]
            assert layer._use_pair_layout(luts, perturbed=False) is pair
            _assert_engines_agree(layer, inputs, make_adc)
        # A capture counts on the pair GEMM within the same bound.
        _assert_counts_agree(layer, inputs)

    def test_perturbed_runs_take_the_separate_layout(self):
        rng = np.random.default_rng(8)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        luts = layer._conversion_setup([_trq_window()], None)[0]
        assert layer._use_pair_layout(luts, perturbed=False)
        assert not layer._use_pair_layout(luts, perturbed=True)
        assert not layer._use_pair_layout(None, perturbed=False)

    @pytest.mark.parametrize("small_merge", [0, 1 << 30])
    @pytest.mark.parametrize("topology", [
        CrossbarTopology(), CrossbarTopology(64, 2, 2), CrossbarTopology(128, 1, 8),
    ])
    def test_horner_and_weighted_sum_merges_match_reference(self, small_merge, topology):
        """Both merge forms, on both layouts, over several segments (the
        segment sum) and with a single input cycle (8-bit DAC)."""
        rng = np.random.default_rng(31)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 6)),
                               QuantizationConfig(), topology)
        layer._SMALL_MERGE = small_merge
        inputs = rng.integers(0, 256, size=(40, 200))
        for make_adc in (lambda: None, lambda: UniformAdc(bits=6, delta=5.0), _trq_window):
            _assert_engines_agree(layer, inputs, make_adc)

    @pytest.mark.parametrize("trials,shared", [(1, True), (3, True), (3, False)])
    def test_folded_retention_drift_matches_reference_per_trial(self, trials, shared):
        rng = np.random.default_rng(20 + trials + shared)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        stack = NonIdealityStack([RetentionDrift(time=50.0, nu=0.08)], seed=3)
        first = rng.integers(0, 256, size=(7, 200))
        inputs = np.stack([
            first if shared or t == 0 else rng.integers(0, 256, size=(7, 200))
            for t in range(trials)
        ])
        adcs = [_trq_window() for _ in range(trials)]
        noise = TrialNoiseStates([
            stack.reseeded(t).bind_mapped("fc", layer).next_chunk() for t in range(trials)
        ])
        _, value_mapped, gather = layer._conversion_setup(adcs, noise)
        assert value_mapped and gather.pair_base == layer.max_bitline_value + 1
        outputs, ops = layer.matmul_trials(inputs, adcs, noise)
        for t in range(trials):
            ref_adc = _trq_window()
            state = stack.reseeded(t).bind_mapped("fc", layer).next_chunk()
            ref, ref_ops = layer.matmul(
                inputs[t], adc=ref_adc, engine="reference", noise=state
            )
            np.testing.assert_array_equal(outputs[t], ref)
            assert ops[t] == ref_ops
            assert adcs[t].stats == ref_adc.stats

    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", TOPOLOGIES)
    def test_max_bitline_value_is_tight(self, crossbar_size, bits_per_cell, dac_bits):
        """The LUT size and the pair base both rest on this bound: all-max
        input codes drive some bit line to exactly ``max_bitline_value``,
        the highest value a capture counts, and no bit line above it."""
        rng = np.random.default_rng(crossbar_size + bits_per_cell + dac_bits)
        topology = CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(90, 6)),
                               QuantizationConfig(), topology)
        for engine in ("reference", "fast"):
            seen = []
            layer.matmul(np.full((3, 90), 255), partial_observer=seen.append, engine=engine)
            assert np.flatnonzero(_summed(seen))[-1] == layer.max_bitline_value, engine

    def test_codes_beyond_the_table_raise(self):
        lut = UniformAdc(bits=4, delta=1.0).transfer_lut(9)
        for gather, code in ((TrialLutGather([lut]), 10), (TrialLutGather([lut], pair_base=10), 100)):
            values = np.array([[0.0, float(code)]])
            with pytest.raises(ValueError, match="exceeds the LUT bound"):
                gather.gather(values, gather.new_counts(), np.empty(values.shape, gather.levels.dtype))


#: A static stack (the perfbench pair) and a continuous one.
STATIC_SPECS = [
    {"model": "conductance_variation", "sigma": 0.08, "quantize": True},
    {"model": "stuck_at_faults", "rate_on": 0.02, "rate_off": 0.01},
]
READ_SPECS = [{"model": "gaussian_read_noise", "sigma": 0.8}]
#: A continuous stack whose read noise follows another model, so it finds
#: its input already in the kernel's buffer and draws into the scratch.
CHAINED_SPECS = [
    {"model": "stuck_at_faults", "rate_on": 0.02},
    {"model": "gaussian_read_noise", "sigma": 0.8},
    {"model": "ir_drop", "alpha": 0.1},
    {"model": "conductance_variation", "sigma": 0.05},
]

#: Converters of the routed cases: TRQ with ``bias`` 0 and > 0, uniform.
LEVEL_ADCS = {
    "trq": lambda: TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3, bias=0)),
    "trq_window": _trq_window,
    "uniform": lambda: UniformAdc(bits=5, delta=3.0),
}

#: (expected kernel path, converter, noise) of each routed case; ``None``
#: is ideal conversion.
ROUTED_CASES = (
    [("column", name, STATIC_SPECS) for name in LEVEL_ADCS]
    + [("perturbed", name, STATIC_SPECS) for name in LEVEL_ADCS]
    + [("continuous", name, READ_SPECS) for name in LEVEL_ADCS]
    + [("fallback", None, READ_SPECS)]
)


def _make_adc(name):
    return LEVEL_ADCS[name]()


def _make_adcs(name, trials):
    """``trials`` fresh converters, or ``None`` for ideal conversion."""
    return None if name is None else [_make_adc(name) for _ in range(trials)]


class _GridLess:
    """A converter with an element-wise ``convert`` but no level grid."""

    def convert(self, values):
        values = np.asarray(values, dtype=np.float64)
        return values, values.size


def _trial_inputs(rng, trials, shared, rows, in_features):
    first = rng.integers(0, 256, size=(rows, in_features))
    return np.stack([
        first if shared or t == 0 else rng.integers(0, 256, size=(rows, in_features))
        for t in range(trials)
    ])


class _OwnedStats(ConversionStats):
    """Conversion statistics that remember which threads recorded into them."""

    def __init__(self) -> None:
        super().__init__()
        self.recorders = set()

    def record(self, *args, **kwargs) -> None:
        self.recorders.add(threading.get_ident())
        super().record(*args, **kwargs)

    def merge(self, other) -> None:
        self.recorders.add(threading.get_ident())
        super().merge(other)


def _assert_routed_case_matches_reference(path, adc, specs, trials, shared, segments):
    """One routed case over two chunks, against the reference engine: equal
    outputs, operation counts and statistics, recorded by this thread only."""
    rng = np.random.default_rng(100 * segments + 10 * trials + shared)
    in_features = 128 * segments - 37
    layer = MappedMVMLayer(rng.integers(-127, 128, size=(in_features, 5)))
    assert layer.num_segments == segments
    cols = 2 * layer.num_weight_planes * layer.out_features
    bins = trials * cols * (layer.max_bitline_value + 1)
    # The column layout holds exactly at the bound; one bin less sends
    # the same stack to the per-element path.
    layer._COLUMN_MAX_BINS = bins - 1 if path == "perturbed" else bins
    stack = NonIdealityStack(specs, seed=7)

    def bind(t):
        return stack.reseeded(t).bind_mapped("fc", layer)

    adcs = _make_adcs(adc, trials)
    ref_adcs = _make_adcs(adc, trials)
    for converter in (adcs or []) + (ref_adcs or []):
        converter.stats = _OwnedStats()
    noise = TrialNoiseStates([bind(t) for t in range(trials)])
    ref_states = [bind(t) for t in range(trials)]
    assert layer._kernel_path(adcs, noise) == path
    # Two chunks: per-read draws are keyed by the chunk, and the second
    # call reuses the cached column tables.
    for chunk_rows in (9, 4):
        noise.next_chunk()
        inputs = _trial_inputs(rng, trials, shared, chunk_rows, in_features)
        outputs, ops = layer.matmul_trials(inputs, adcs, noise)
        for t in range(trials):
            ref, ref_ops = layer.matmul(
                inputs[t], adc=None if adc is None else ref_adcs[t],
                engine="reference", noise=ref_states[t].next_chunk(),
            )
            np.testing.assert_array_equal(outputs[t], ref)
            assert ops[t] == ref_ops
            if adc is not None:
                assert adcs[t].stats == ref_adcs[t].stats
                assert adcs[t].stats.recorders == {threading.get_ident()}


class TestKernelPaths:
    """Static stacks fold into column tables, continuous noise converts in
    the kernel, and only ideal conversion under continuous noise takes the
    float fallback; every path is bit-identical to the reference engine."""

    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("trials,shared", [(1, True), (3, True), (3, False)])
    @pytest.mark.parametrize("path,adc,specs", ROUTED_CASES)
    def test_routed_paths_match_reference(self, path, adc, specs, trials, shared, segments):
        _assert_routed_case_matches_reference(path, adc, specs, trials, shared, segments)

    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("trials,shared", [(1, True), (3, True), (3, False)])
    @pytest.mark.parametrize("adc", sorted(LEVEL_ADCS))
    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("specs", [READ_SPECS, CHAINED_SPECS], ids=["read", "chained"])
    def test_continuous_cases_match_reference_at_every_thread_budget(
        self, specs, budget, adc, trials, shared, segments, monkeypatch
    ):
        """The continuous path's (cycle, trial) blocks run on ``budget``
        lanes: outputs, operation counts and statistics equal the reference
        engine's at every budget, only the calling thread records into the
        converters, every call runs ``min(budget, blocks)`` lanes — the
        calling thread as lane 0, one further thread per other lane — no
        thread outlives its call, and a chained stack perturbs with the
        lane's scratch buffer."""
        monkeypatch.setattr(threads, "kernel_threads", lambda: budget)
        perturb_block = LayerNoiseState.perturb_block
        scratches = []

        def record_scratch(self, values, segment, cycle, out=None, scratch=None):
            if out is not None:
                scratches.append(scratch is not None)
            return perturb_block(self, values, segment, cycle, out, scratch)

        monkeypatch.setattr(LayerNoiseState, "perturb_block", record_scratch)
        caller = threading.get_ident()
        before = threading.active_count()
        calls, started = [], []
        run_lanes = threads.run_lanes

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def spy(work, items, lanes):
            ran_on, first = {}, len(started)

            def traced(lane, item):
                ran_on.setdefault(lane, set()).add(threading.get_ident())
                return work(lane, item)

            results = run_lanes(traced, items, lanes)
            calls.append((len(items), lanes, ran_on, len(started) - first))
            assert threading.active_count() == before
            return results

        monkeypatch.setattr(threads, "run_lanes", spy)
        monkeypatch.setattr(threads.threading, "Thread", Recorded)
        _assert_routed_case_matches_reference(
            "continuous", adc, specs, trials, shared, segments
        )
        assert calls
        assert scratches and set(scratches) == {specs is CHAINED_SPECS}
        for blocks, lanes, ran_on, new_threads in calls:
            assert lanes == min(budget, blocks)
            assert new_threads == lanes - 1
            assert sorted(ran_on) == list(range(lanes))
            assert ran_on[0] == {caller}
            assert all(len(ran_on[lane]) == 1 and caller not in ran_on[lane]
                       for lane in range(1, lanes))

    def test_ideal_conversion_routes(self):
        rng = np.random.default_rng(3)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))

        def noise(specs):
            return TrialNoiseStates([NonIdealityStack(specs, seed=1).bind_mapped("fc", layer)])

        assert layer._kernel_path(None, None) == "identity"
        assert layer._kernel_path(None, noise(STATIC_SPECS)) == "perturbed"
        assert layer._kernel_path(None, noise(READ_SPECS)) == "fallback"
        drift = [{"model": "retention_drift", "time": 9.0, "nu": 0.1}]
        assert layer._kernel_path([_trq_window()], noise(drift)) == "pair"

    @pytest.mark.parametrize("specs", [None, STATIC_SPECS, READ_SPECS])
    def test_converter_without_level_grid_is_refused(self, specs):
        """There is no grid-less conversion path: both engines refuse such
        a converter with the same error, whatever the noise."""
        rng = np.random.default_rng(5)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        stack = None if specs is None else NonIdealityStack(specs, seed=1)
        state = None if stack is None else stack.bind_mapped("fc", layer).next_chunk()
        noise = None if state is None else TrialNoiseStates([state])
        message = (
            r"_GridLess has no integer level grid \(missing levels_into, "
            r"convert_levels, level_scale, max_level\)"
        )
        with pytest.raises(ValueError, match=message):
            layer._kernel_path([_GridLess()], noise)
        inputs = rng.integers(0, 256, size=(1, 4, 200))
        with pytest.raises(ValueError, match=message):
            layer.matmul_trials(inputs, [_GridLess()], noise)
        for engine in ("fast", "reference"):
            with pytest.raises(ValueError, match=message):
                layer.matmul(inputs[0], adc=_GridLess(), noise=state, engine=engine)

    def test_continuous_merge_dtypes_come_from_max_level(self):
        rng = np.random.default_rng(4)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        adc = TwinRangeAdc(TRQParams(n_r1=3, n_r2=8, m=4, bias=0))
        assert adc.max_level == 255 << 4 and UniformAdc(bits=6, delta=2.0).max_level == 63
        state = NonIdealityStack([{"model": "gaussian_read_noise", "sigma": 400.0}], seed=2)
        inputs = rng.integers(0, 256, size=(6, 200))
        ref_adc, fast_adc = TwinRangeAdc(adc.params), TwinRangeAdc(adc.params)
        ref, _ = layer.matmul(inputs, adc=ref_adc, engine="reference",
                              noise=state.bind_mapped("fc", layer).next_chunk())
        fast, _ = layer.matmul(inputs, adc=fast_adc, engine="fast",
                               noise=state.bind_mapped("fc", layer).next_chunk())
        np.testing.assert_array_equal(fast, ref)
        assert fast_adc.stats.in_r2 > 0 and fast_adc.stats == ref_adc.stats

    @pytest.mark.parametrize("over_bound", [False, True])
    def test_perturbed_value_above_the_lut_bound_raises(self, over_bound):
        from repro.nonideal.base import BoundModel

        class Understated(NonIdealityModel):
            """Adds 3 to every value but reports an unchanged bound."""

            name = ""

            def params(self):
                return {}

            def bind(self, ctx):
                class _B(BoundModel):
                    integer_domain = True
                    cycle_invariant = True

                    def perturb(self, values, segment, cycle, chunk):
                        return np.asarray(values, dtype=np.float64) + 3.0

                    @staticmethod
                    def perturb_trials(siblings, values, segment, cycle, chunk):
                        return np.asarray(values, dtype=np.float64) + 3.0

                return _B(ctx)

        rng = np.random.default_rng(6)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        if over_bound:
            layer._COLUMN_MAX_BINS = 0
        noise = TrialNoiseStates([NonIdealityStack([Understated()]).bind_mapped("fc", layer)])
        with pytest.raises(ValueError, match="bit-line value [0-9]+ exceeds the LUT bound"):
            layer.matmul_trials(
                np.full((1, 4, 200), 255), [_trq_window()], noise.next_chunk()
            )


DRIFT_SPECS = [{"model": "retention_drift", "time": 9.0, "nu": 0.1}]

#: Kernel path of every (converter, noise) case.  Observers see ideal
#: values, so only the ideal, noise-free case accepts one; every other case
#: refuses it on both engines.
ROUTES = {
    (None, None): "identity",
    (None, "drift"): "perturbed",
    (None, "static"): "perturbed",
    (None, "read"): "fallback",
    **{
        (adc, noise): path
        for adc in ("uniform", "trq")
        for noise, path in (
            (None, "pair"), ("drift", "pair"), ("static", "column"), ("read", "continuous"),
        )
    },
}


class TestExactShortcuts:
    """Ideal conversion as one integer GEMM, uniform converters without a
    histogram and captures on the pair GEMM: each is chosen from the
    converter, the noise and the observer alone, and each is bit-identical
    to the reference engine."""

    @staticmethod
    def _noise(layer, name, trials=1):
        specs = {"drift": DRIFT_SPECS, "static": STATIC_SPECS, "read": READ_SPECS}[name]
        stack = NonIdealityStack(specs, seed=1)
        return TrialNoiseStates(
            [stack.reseeded(t).bind_mapped("fc", layer) for t in range(trials)]
        )

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("adc,noise", sorted(ROUTES, key=str))
    def test_each_case_takes_its_route(self, adc, noise, observed):
        rng = np.random.default_rng(3)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        adcs = None if adc is None else [_make_adc(adc)]
        states = None if noise is None else self._noise(layer, noise)
        assert layer._kernel_path(adcs, states) == ROUTES[adc, noise]
        if not observed:
            return
        inputs = rng.integers(0, 256, size=(1, 4, 200))
        if adc is None and noise is None:
            counts = []
            layer.matmul_trials(inputs, adcs, states, partial_observer=counts.append)
            assert len(counts) == 1
            return
        for engine in ("fast", "reference"):
            with pytest.raises(ValueError, match="ideal conversion without noise"):
                layer.matmul_trials(inputs, adcs, states, engine=engine,
                                    partial_observer=lambda c: None)
            with pytest.raises(ValueError, match="ideal conversion without noise"):
                layer.matmul(inputs[0], adc=None if adcs is None else adcs[0],
                             noise=None if states is None else states.states[0],
                             engine=engine, partial_observer=lambda c: None)

    @pytest.mark.parametrize("trials,shared", [(1, True), (3, True), (3, False)])
    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", TOPOLOGIES)
    def test_identity_gemm_matches_reference(
        self, crossbar_size, bits_per_cell, dac_bits, trials, shared
    ):
        rng = np.random.default_rng(crossbar_size + 10 * bits_per_cell + trials + shared)
        weights = rng.integers(-127, 128, size=(90, 6))
        layer = MappedMVMLayer(
            weights, QuantizationConfig(), CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        )
        inputs = _trial_inputs(rng, trials, shared, 7, 90)
        inputs[0, 0] = 255  # all-max codes: the largest partial sums
        outputs, ops = layer.matmul_trials(inputs, None, None)
        for t in range(trials):
            ref, ref_ops = layer.matmul(inputs[t], engine="reference")
            np.testing.assert_array_equal(outputs[t], ref)
            np.testing.assert_array_equal(outputs[t], reference_integer_matmul(inputs[t], weights))
            assert ops[t] == ref_ops
        assert not np.signbit(outputs[outputs == 0]).any()

    @pytest.mark.parametrize("pair_max_bins", [MappedMVMLayer._PAIR_MAX_BINS, 0])
    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", TOPOLOGIES)
    def test_capture_counts_match_reference(
        self, crossbar_size, bits_per_cell, dac_bits, pair_max_bins
    ):
        """Counts from the pair GEMM's joint histogram (or the plane GEMM's
        values when ``B²`` is over the bound) equal the reference's, and
        there is one count per conversion."""
        rng = np.random.default_rng(crossbar_size + bits_per_cell + dac_bits)
        topology = CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(90, 6)),
                               QuantizationConfig(), topology)
        layer._PAIR_MAX_BINS = pair_max_bins
        inputs = rng.integers(0, 256, size=(7, 90))
        counts = _assert_counts_agree(layer, inputs)
        assert counts.sum() == 7 * layer.footprint().conversions_per_mvm

    def test_layers_beyond_exact_float64_are_refused(self):
        """The identity GEMM is exact while ``(2^Ki − 1)·max_c Σ_r |W_rc|``
        stays below ``2^53``; a layer over it is refused, not rounded."""
        config = QuantizationConfig(weight_bits=23, activation_bits=32)
        top = (1 << 32) - 1
        layer = MappedMVMLayer(np.array([[1 << 21]]), config, CrossbarTopology(dac_bits=8))
        out, _ = layer.matmul(np.array([[top]]), engine="fast")
        ref, _ = layer.matmul(np.array([[top]]), engine="reference")
        assert out[0, 0] == ref[0, 0] == float(top << 21)
        with pytest.raises(OverflowError, match="2\\^53"):
            MappedMVMLayer(np.array([[1 << 21], [1]]), config)

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("layout", ["separate", "pair", "column"])
    def test_uniform_statistics_match_reference(self, layout, trials):
        rng = np.random.default_rng(40 + trials)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        if layout == "separate":
            layer._PAIR_MAX_BINS = 0
        adcs = [UniformAdc(bits=5, delta=3.0) for _ in range(trials)]
        noise = self._noise(layer, "static", trials) if layout == "column" else None
        assert layer._kernel_path(adcs, noise) == layout
        assert layer._conversion_setup(adcs, noise)[2].costs.tolist() == [5] * trials
        if noise is not None:
            noise.next_chunk()
        inputs = _trial_inputs(rng, trials, False, 9, 200)
        outputs, ops = layer.matmul_trials(inputs, adcs, noise)
        for t in range(trials):
            ref_adc = UniformAdc(bits=5, delta=3.0)
            state = None if noise is None else self._noise(layer, "static", trials).states[t]
            ref, ref_ops = layer.matmul(
                inputs[t], adc=ref_adc, engine="reference",
                noise=None if state is None else state.next_chunk(),
            )
            np.testing.assert_array_equal(outputs[t], ref)
            assert ops[t] == ref_ops
            assert adcs[t].stats == ref_adc.stats
            assert ref_adc.stats.conversions == 9 * layer.footprint().conversions_per_mvm

    def test_uniform_codes_beyond_the_table_raise_at_several_trials(self):
        lut = UniformAdc(bits=4, delta=1.0).transfer_lut(9)
        cases = (
            (TrialLutGather([lut] * 3), 10),
            (TrialLutGather([lut] * 3, pair_base=10), 100),
            (TrialLutGather([lut] * 3, column_values=[np.zeros((3, 6, 2))]), 6),
        )
        for gather, code in cases:
            assert gather.costs is not None
            values = np.zeros((3, 1, 1, 2), dtype=np.float32)
            values[-1, 0, 0, 1] = code
            with pytest.raises(ValueError, match=f"{code} exceeds the LUT bound"):
                gather.gather(values, gather.new_counts(),
                              np.empty(values.shape, gather.levels.dtype))
        assert TrialLutGather([_trq_window().transfer_lut(9)]).costs is None


def _static_models():
    """Hypothesis strategy: a static stack in any order."""
    from hypothesis import strategies as st

    model = st.one_of(
        st.builds(
            lambda sigma: {"model": "conductance_variation", "sigma": sigma, "quantize": True},
            st.floats(0.0, 0.3),
        ),
        st.builds(
            lambda on, off: {"model": "stuck_at_faults", "rate_on": on, "rate_off": off},
            st.floats(0.0, 0.1), st.floats(0.0, 0.1),
        ),
        st.builds(
            lambda time, nu: {"model": "retention_drift", "time": time, "nu": nu},
            st.floats(0.0, 100.0), st.floats(0.0, 0.1),
        ),
    )
    return st.lists(model, min_size=1, max_size=3)


class TestColumnTables:
    """Each (trial, segment) table is ``L[g(c, v)]`` with ``g`` the chained
    per-model ``perturb`` of the ideal value ``v`` in column ``c``."""

    def test_tables_equal_the_chained_per_model_perturb(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        rng = np.random.default_rng(12)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 3)))
        base = layer.max_bitline_value + 1
        cols = 2 * layer.num_weight_planes * layer.out_features
        probe = np.repeat(np.arange(base, dtype=np.float32)[:, None], cols, axis=1)

        @given(_static_models(), st.integers(0, 2**32), st.integers(1, 3))
        @settings(max_examples=40, deadline=None)
        def check(specs, seed, trials):
            stack = NonIdealityStack(specs, seed=seed)
            states = [stack.reseeded(seed + t).bind_mapped("fc", layer) for t in range(trials)]
            noise = TrialNoiseStates(states)
            luts = [_trq_window().transfer_lut(bound) for bound in noise.lut_bounds]
            gather = TrialLutGather(luts, column_values=layer._column_probes(noise))
            assert gather.column_shape == (layer.num_segments, cols, base)
            bins = cols * base
            for t, state in enumerate(states):
                levels = luts[t].levels
                for s in range(layer.num_segments):
                    expected = state.perturb_block(probe, s, 0).T.astype(np.int64)
                    np.testing.assert_array_equal(
                        gather._column_maps[s, t], expected.reshape(-1)
                    )
                    start = (s * trials + t) * bins
                    table = gather.levels[start : start + bins]
                    np.testing.assert_array_equal(table, levels[expected].reshape(-1))

        check()

    def test_shared_input_histogram_folds_per_trial(self):
        """One ``c·B + v`` histogram serves every trial sharing the input;
        each trial's fold through its own ``g`` gives its own counts."""
        rng = np.random.default_rng(9)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        stack = NonIdealityStack(STATIC_SPECS, seed=11)
        noise = TrialNoiseStates([stack.reseeded(t).bind_mapped("fc", layer) for t in range(3)])
        luts = [_trq_window().transfer_lut(bound) for bound in noise.lut_bounds]
        gather = TrialLutGather(luts, column_values=layer._column_probes(noise))
        cols = gather.column_shape[1]
        values = rng.integers(0, layer.max_bitline_value + 1, size=(1, 2, 7, cols))
        shared_counts = gather.new_counts()
        shared_levels = np.empty((3, 2, 7, cols), gather.levels.dtype)
        gather.gather(values.astype(np.float32), shared_counts, shared_levels, segment=1)
        tiled_counts = gather.new_counts()
        tiled_levels = np.empty_like(shared_levels)
        gather.gather(np.repeat(values, 3, axis=0).astype(np.float32), tiled_counts,
                      tiled_levels, segment=1)
        np.testing.assert_array_equal(shared_counts, tiled_counts)
        np.testing.assert_array_equal(shared_levels, tiled_levels)
        for t, state in enumerate(noise.states):
            perturbed = state.perturb_block(values[0].reshape(-1, cols), 1, 0).astype(np.int64)
            start = gather._value_offsets[t]
            np.testing.assert_array_equal(
                shared_counts[start : start + luts[t].levels.size],
                np.bincount(perturbed.reshape(-1), minlength=luts[t].levels.size),
            )
            np.testing.assert_array_equal(
                shared_levels[t].reshape(-1, cols), luts[t].levels[perturbed]
            )

    @pytest.mark.parametrize("trial", [0, 2])
    def test_a_code_one_past_its_trials_table_raises_before_the_clipped_take(self, trial):
        """The gathers take in ``mode="clip"``, which would serve the last
        level for any code past the table: the histogram length and the max
        scan must reject the first such code on every layout."""
        lut = _trq_window().transfer_lut(9)  # keeps a histogram: no max scan at one trial
        cases = (
            ("separate", TrialLutGather([lut] * 3), 10, -1),
            ("separate", TrialLutGather([lut]), 10, -1),
            ("pair", TrialLutGather([lut] * 3, pair_base=10), 100, -1),
            ("column", TrialLutGather([lut] * 3, column_values=[np.zeros((3, 6, 2))]), 6, -1),
        )
        for layout, gather, code, column in cases:
            trials = len(gather.luts)
            values = np.zeros((trials, 1, 1, 2), dtype=np.float32)
            values[min(trial, trials - 1), 0, 0, column] = code
            with pytest.raises(ValueError, match=f"{code} exceeds the LUT bound {code - 1}"):
                gather.gather(values, gather.new_counts(),
                              np.empty(values.shape, gather.levels.dtype))
            values[...] = code - 1  # the last entry of every table is served
            gather.gather(values, gather.new_counts(), np.empty(values.shape, gather.levels.dtype))

    def test_codes_beyond_the_columns_raise(self):
        lut = UniformAdc(bits=4, delta=1.0).transfer_lut(9)
        gather = TrialLutGather([lut], column_values=[np.zeros((1, 6, 3))])
        values = np.array([[[[0.0, 1.0, 6.0]]]], dtype=np.float32)
        with pytest.raises(ValueError, match="bit-line value 6 exceeds the LUT bound 5"):
            gather.gather(values, gather.new_counts(), np.empty(values.shape, gather.levels.dtype))


class TestSimulatorEngineEquivalence:
    def test_end_to_end_bit_identical(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        images, labels = images[:8], labels[:8]
        names = lenet_workload.simulator.layer_names()
        configs = {
            name: twin_range_config(TRQParams(n_r1=2, n_r2=5, m=3))
            if index % 2 == 0
            else uniform_config(resolution=8, bits=4)
            for index, name in enumerate(names)
        }
        results = {}
        for engine in ("reference", "fast"):
            sim = PimSimulator(lenet_workload.quantized, engine=engine)
            results[engine] = sim.evaluate(images, labels, configs, batch_size=4)
        ref, fast = results["reference"], results["fast"]
        np.testing.assert_array_equal(ref.logits, fast.logits)
        assert set(ref.layer_stats) == set(fast.layer_stats)
        for name in ref.layer_stats:
            a, b = ref.layer_stats[name], fast.layer_stats[name]
            assert (a.conversions, a.operations, a.in_r1, a.in_r2) == (
                b.conversions, b.operations, b.in_r1, b.in_r2
            ), name

    def test_backend_rejects_unknown_engine(self, lenet_workload):
        with pytest.raises(ValueError):
            PimBackend(lenet_workload.quantized, engine="turbo")

    def test_default_engine_is_fast(self, lenet_workload):
        assert PimBackend(lenet_workload.quantized).engine == "fast"
        assert PimSimulator(lenet_workload.quantized).engine == "fast"


class TestAdcLut:
    def test_lut_gather_matches_convert_bitwise(self, rng):
        params = TRQParams(n_r1=3, n_r2=5, m=2, delta_r1=0.7, bias=1)
        values = rng.integers(0, 129, size=(64, 33))
        a, b = TwinRangeAdc(params), TwinRangeAdc(params)
        ref, ref_ops = a.convert(values.astype(np.float64))
        lut_q, lut_ops = lut_convert(b, values, 128)
        np.testing.assert_array_equal(ref, lut_q)
        assert ref_ops == lut_ops
        assert a.stats == b.stats

    def test_uniform_lut_gather_matches_convert(self, rng):
        adc_a, adc_b = UniformAdc(bits=4, delta=2.3), UniformAdc(bits=4, delta=2.3)
        values = rng.integers(0, 129, size=200)
        ref, _ = adc_a.convert(values.astype(np.float64))
        lut_q, _ = lut_convert(adc_b, values, 128)
        np.testing.assert_array_equal(ref, lut_q)

    def test_levels_times_scale_reconstruct_quantized(self):
        """The integer-level invariant: scale · level reconstructs the
        quantized value (to within 1 ulp of the element-wise float path)."""
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.5, bias=0)
        adc = TwinRangeAdc(params)
        lut = adc.transfer_lut(128)
        np.testing.assert_allclose(
            lut.levels.astype(np.float64) * lut.scale, lut.values, rtol=0, atol=1e-12
        )
        assert lut.levels.dtype == np.uint8  # compact storage for the merge

    def test_lut_bound_violation_raises(self):
        adc = UniformAdc(bits=4, delta=1.0)
        with pytest.raises(ValueError, match="exceeds the LUT bound 128"):
            lut_convert(adc, np.array([200]), 128)
        with pytest.raises(ValueError):
            adc.transfer_lut(-1)
