"""Composing non-ideality models into the object the engines consume.

A :class:`NonIdealityStack` is an ordered, immutable list of models plus a
base seed.  Binding it to a mapped layer produces a :class:`LayerNoiseState`
— the thing :meth:`repro.crossbar.mapping.MappedMVMLayer.matmul` actually
receives — which carries the bound models (with their static device draws),
the per-layer chunk counter, and the pre-computed facts the fast engine
needs to pick its conversion path:

* ``integer_domain`` — every model keeps bit-line values on the integer
  grid, so the fused kernel can stay on the integer-LUT gather (with
  ``cycle_invariant``, through per-column tables built once per run);
* ``lut_bound`` — upper bound of perturbed integer values (sizes the LUT);
* ``pure_value_map()`` — when every model is a pure per-value map, the
  composed map to fold into the ADC transfer LUT
  (:func:`repro.adc.lut.compose_transfer_lut`) at zero per-element cost.

The chunk counter advances once per backend chunk (``next_chunk``), giving
per-read models a fresh keyed stream per chunk while both engines — which
chunk identically — stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nonideal.base import BoundModel, LayerNoiseContext, NonIdealityModel
from repro.nonideal.registry import build_models
from repro.utils.rng import derive_seed


class LayerNoiseState:
    """All models of one stack bound to one mapped layer.

    Created via :meth:`NonIdealityStack.bind_layer`; holds the static device
    draws and the chunk counter for the layer.  Never share one state
    between two runs you want independent — bind a fresh one (the draws are
    keyed, so two states from the same stack are identical replicas, which
    is exactly what engine-equivalence checks need).
    """

    def __init__(self, bound: Sequence[BoundModel], max_bitline: int) -> None:
        self._bound: Tuple[BoundModel, ...] = tuple(bound)
        self._max_bitline = int(max_bitline)
        self._chunk = 0
        self.integer_domain = all(b.integer_domain for b in self._bound)
        self.lut_bound = self._max_bitline
        if self.integer_domain:
            bound_value = self._max_bitline
            for model in self._bound:
                bound_value = model.output_bound(bound_value)
            self.lut_bound = int(bound_value)
        self._pure_map: Optional[np.ndarray] = None
        self._pure_map_known = False

    # ------------------------------------------------------------------ #
    def next_chunk(self) -> "LayerNoiseState":
        """Advance the chunk counter (the backend calls this once per chunk)."""
        self._chunk += 1
        return self

    @property
    def chunk(self) -> int:
        return self._chunk

    # ------------------------------------------------------------------ #
    def pure_value_map(self) -> Optional[np.ndarray]:
        """Composed integer value map of the whole stack, or ``None``.

        Non-``None`` only when *every* model publishes a
        :meth:`~repro.nonideal.base.BoundModel.value_map`; the result maps
        each raw bit-line value ``0 … max_bitline`` to its fully perturbed
        integer value, identical to chaining ``perturb`` on integers.
        """
        if not self._pure_map_known:
            self._pure_map_known = True
            composed = np.arange(self._max_bitline + 1, dtype=np.int64)
            bound_value = self._max_bitline
            for model in self._bound:
                vmap = model.value_map(bound_value)
                if vmap is None:
                    composed = None
                    break
                composed = np.asarray(vmap, dtype=np.int64)[composed]
                bound_value = model.output_bound(bound_value)
            self._pure_map = composed
        return self._pure_map

    def perturb_block(
        self,
        values: np.ndarray,
        segment: int,
        cycle: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply every model, in stack order, to one raw bit-line block.

        ``values`` is ``(rows, columns)`` and is never mutated; the result is
        float64 (exact integers throughout for integer-domain stacks).  With
        ``out`` (float64, ``values``' shape) the chain runs through that
        reused buffer (:meth:`~repro.nonideal.base.BoundModel.perturb_into`)
        and returns it, holding the same values.
        """
        chunk = self._chunk
        if out is not None:
            result = values
            for model in self._bound:
                result = model.perturb_into(result, segment, cycle, chunk, out)
            if result is not out:  # an empty stack
                np.copyto(out, result)
            return out
        result = np.asarray(values, dtype=np.float64)
        for model in self._bound:
            result = model.perturb(result, segment, cycle, chunk)
        return result


class TrialNoiseStates:
    """Lockstep view over the sibling :class:`LayerNoiseState` of N trials.

    The fused crossbar kernel perturbs a ``(trials, rows, columns)`` block
    in one pass (a solo run is one trial); this wrapper holds one bound
    state per trial (all bound from the *same models* under different
    derived seeds, so every trial carries the same model classes in the
    same order) and chains the models model-major through
    :meth:`~repro.nonideal.base.BoundModel.perturb_trials`.

    The chunk counters advance in lockstep (:meth:`next_chunk`), keeping
    every trial's keyed draws identical to what a solo run of that trial
    would produce — the bit-identity contract of the batched path.
    """

    def __init__(self, states: Sequence[LayerNoiseState]) -> None:
        if not states:
            raise ValueError("TrialNoiseStates needs at least one trial state")
        self.states: Tuple[LayerNoiseState, ...] = tuple(states)
        # bind() picks the Bound class from parameters alone (never the
        # seed), so the class sequence is identical across trials.
        self.integer_domain = all(s.integer_domain for s in self.states)
        self.lut_bounds: Tuple[int, ...] = tuple(s.lut_bound for s in self.states)
        # Static stacks (no per-read draws) perturb every input cycle of a
        # segment identically; the batched kernel then folds the cycle axis
        # into a single perturb_trials call per segment.
        self.cycle_invariant = all(
            bound.cycle_invariant for state in self.states for bound in state._bound
        )

    @property
    def trials(self) -> int:
        return len(self.states)

    def next_chunk(self) -> "TrialNoiseStates":
        """Advance every trial's chunk counter in lockstep."""
        for state in self.states:
            state.next_chunk()
        return self

    def pure_value_maps(self) -> Optional[List[np.ndarray]]:
        """Per-trial composed value maps, or ``None`` if any trial lacks one.

        ``value_map`` availability is class-determined, so this is
        all-or-none across trials in practice.
        """
        maps = [state.pure_value_map() for state in self.states]
        if any(vmap is None for vmap in maps):
            return None
        return maps

    def perturb_trials(
        self, values: np.ndarray, segment: int, cycle: int
    ) -> np.ndarray:
        """Apply every model, in stack order, to a ``(trials, rows, cols)`` batch.

        ``result[t]`` is bit-identical to
        ``states[t].perturb_block(values[t], segment, cycle)`` because each
        model's batched form is exactly per-trial-sliceable.  For
        ``cycle_invariant`` stacks the kernel may fold several cycles' rows
        into one call — the models are row-count-agnostic, so the result
        still equals the per-cycle chain row for row.
        """
        out = np.asarray(values, dtype=np.float64)
        chunk = self.states[0].chunk
        num_models = len(self.states[0]._bound)
        for index in range(num_models):
            siblings = [state._bound[index] for state in self.states]
            out = type(siblings[0]).perturb_trials(
                siblings, out, segment, cycle, chunk
            )
        return out


class NonIdealityStack:
    """An ordered set of device non-ideality models with one base seed.

    Stateless and reusable: all randomness is keyed off ``seed`` and the
    layer/segment/cycle/chunk coordinates (see :mod:`repro.nonideal.base`),
    so the same stack produces the same perturbations in every run, and
    :meth:`reseeded` derives an independent replica for Monte Carlo trials.
    Models may be given as instances or as registry spec dicts.
    """

    def __init__(
        self,
        models: Iterable[Union[NonIdealityModel, Dict[str, object]]],
        seed: int = 0,
    ) -> None:
        self.models: Tuple[NonIdealityModel, ...] = tuple(build_models(models))
        self.seed = int(seed)

    # ------------------------------------------------------------------ #
    def specs(self) -> List[Dict[str, object]]:
        """Registry specs of every model (round-trips via ``from_specs``)."""
        return [model.spec() for model in self.models]

    @classmethod
    def from_specs(cls, specs, seed: int = 0) -> "NonIdealityStack":
        return cls(specs, seed=seed)

    def reseeded(self, seed: int) -> "NonIdealityStack":
        """The same models under a different base seed (fresh devices/noise)."""
        return NonIdealityStack(self.models, seed=seed)

    def derive_trial(self, base_seed: int, trial: int) -> "NonIdealityStack":
        """Replica for Monte Carlo trial ``trial`` of a run seeded ``base_seed``.

        The stack's own seed is folded into the derivation, so two stacks
        with different seeds run genuinely different trial sequences even
        under the same ``base_seed``.
        """
        return self.reseeded(
            derive_seed(self.seed, "monte-carlo-trial", base_seed, trial)
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_cell_config(cls, cell_config, seed: int = 0) -> "NonIdealityStack":
        """Build the stack equivalent of :class:`repro.crossbar.cell.CellConfig`.

        ``programming_sigma`` maps to log-normal
        :class:`~repro.nonideal.models.ConductanceVariation` and
        ``read_noise_sigma`` to relative
        :class:`~repro.nonideal.models.GaussianReadNoise` — the same
        distributions :class:`~repro.crossbar.cell.ReRAMCellModel` draws,
        but keyed so the datapath engines stay bit-identical.
        """
        from repro.nonideal.models import ConductanceVariation, GaussianReadNoise

        models: List[NonIdealityModel] = []
        if cell_config.programming_sigma > 0.0:
            models.append(ConductanceVariation(sigma=cell_config.programming_sigma))
        if cell_config.read_noise_sigma > 0.0:
            models.append(
                GaussianReadNoise(sigma=cell_config.read_noise_sigma, relative=True)
            )
        return cls(models, seed=seed)

    # ------------------------------------------------------------------ #
    def bind_layer(
        self,
        layer: str,
        *,
        crossbar_size: int,
        segment_sizes: Sequence[int],
        columns: int,
        max_bitline: int,
    ) -> LayerNoiseState:
        """Bind every model to one layer's mapping geometry."""
        bound = [
            model.bind(
                LayerNoiseContext(
                    layer=str(layer),
                    seed=self.seed,
                    model_index=index,
                    crossbar_size=int(crossbar_size),
                    segment_sizes=tuple(int(s) for s in segment_sizes),
                    columns=int(columns),
                    max_bitline=int(max_bitline),
                )
            )
            for index, model in enumerate(self.models)
        ]
        return LayerNoiseState(bound, max_bitline=max_bitline)

    def bind_mapped(self, layer: str, mapped) -> LayerNoiseState:
        """Convenience binding from a :class:`~repro.crossbar.mapping.MappedMVMLayer`."""
        return self.bind_layer(
            layer,
            crossbar_size=mapped.topology.crossbar_size,
            segment_sizes=mapped.segment_sizes,
            columns=2 * mapped.num_weight_planes * mapped.out_features,
            max_bitline=mapped.max_bitline_value,
        )

    def __len__(self) -> int:
        return len(self.models)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(type(m).__name__ for m in self.models)
        return f"NonIdealityStack([{inner}], seed={self.seed})"


def as_stack(noise, seed: Optional[int] = None) -> Optional[NonIdealityStack]:
    """Normalise the accepted ``noise=`` forms into a stack (or ``None``).

    Accepts ``None``, a :class:`NonIdealityStack`, a single
    :class:`NonIdealityModel`, or a sequence of models and/or registry spec
    dicts; anything else raises ``TypeError``.  ``seed`` reseeds a stack and
    is the base seed of the others (default 0).
    """
    if noise is None:
        return None
    if isinstance(noise, NonIdealityStack):
        return noise if seed is None else noise.reseeded(seed)
    if isinstance(noise, NonIdealityModel):
        noise = [noise]
    if isinstance(noise, (list, tuple)):
        if not noise:
            return None
        return NonIdealityStack(noise, seed=0 if seed is None else seed)
    raise TypeError(
        f"cannot interpret {type(noise).__name__!r} as a non-ideality model, "
        "stack or spec list"
    )
