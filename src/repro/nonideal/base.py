"""Foundations of the device non-ideality subsystem.

The design constraint that shapes everything here is **engine bit-parity**:
the fast (fused) and reference (per-cycle/segment loop) simulation engines
must produce *bit-identical* outputs under noise, even though they traverse
the datapath in different block orders.  A shared mutable RNG stream cannot
provide that — whichever engine asks first changes what the other sees — so
every stochastic draw in this subsystem is **counter-based and keyed**: the
noise applied to a bit-line element is a pure function of

    (stack seed, model index, layer, chunk, segment, input cycle, position)

derived through :func:`repro.utils.rng.derive_seed`.  Both engines visit the
same logical blocks (identical shapes and coordinates, merely in a different
order), so they reconstruct the same noise sample for sample.

Two lifetimes of randomness are distinguished:

* **static** draws model device state fixed at programming time (conductance
  variation, stuck-at fault maps).  Keyed by ``(layer, segment)`` only and
  cached on the bound model, so every input cycle, chunk and trial of one
  run sees the same device.
* **per-read** draws model noise regenerated on every access (read noise).
  Keyed additionally by ``(chunk, segment, cycle)``, so each conversion
  batch sees a fresh — but reproducible — sample.

A model is *bound* to a layer before use: :meth:`NonIdealityModel.bind`
receives the layer's mapping geometry (:class:`LayerNoiseContext`) and
returns a :class:`BoundModel` holding any pre-drawn static state.  Bound
models expose the capabilities the engines exploit:

* ``perturb`` — perturb one raw bit-line block (works for every model), and
  ``perturb_into``, the same values written into a reused buffer in place
  (the fast engine's per-block path for continuous noise);
* ``integer_domain`` — the perturbation maps exact integer bit-line values
  to exact integer values, so the fast engine can stay on its integer-LUT
  conversion path (with the LUT bound enlarged to ``output_bound``);
* ``cycle_invariant`` — the perturbation is static, element-wise per
  (row, column); with ``integer_domain`` on every model of a stack it is a
  fixed integer map ``g(c, v)`` per (segment, column), which the fast
  engine tabulates once per run into per-column conversion tables
  (:class:`repro.adc.lut.TrialLutGather`);
* ``value_map`` — the perturbation is a pure per-value integer map (no
  column or RNG dependence), so the fast engine can fold it into the ADC
  transfer LUT (:func:`repro.adc.lut.compose_transfer_lut`) and pay *zero*
  per-element cost.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import derive_seed, new_rng


@dataclasses.dataclass(frozen=True)
class LayerNoiseContext:
    """Everything a model may key its draws on for one mapped layer.

    Attributes
    ----------
    layer:
        Name of the MVM layer (part of every derived seed).
    seed:
        Base seed of the owning :class:`~repro.nonideal.stack.NonIdealityStack`.
    model_index:
        Position of the model in the stack (separates the streams of two
        instances of the same model class).
    crossbar_size:
        Physical array width (used e.g. by IR-drop column positions).
    segment_sizes:
        Rows of each word-line segment (cell populations for fault draws).
    columns:
        Bit lines per segment block (``2 · planes · out_features``).
    max_bitline:
        Largest ideal bit-line value of the layer (LUT bound, and the
        reference scale for ``relative`` noise magnitudes).
    """

    layer: str
    seed: int
    model_index: int
    crossbar_size: int
    segment_sizes: Tuple[int, ...]
    columns: int
    max_bitline: int

    def draw_key(self, *labels) -> int:
        """The derived seed for ``labels`` under this context.

        This integer *is* the keyed-sampling counter: feeding it to
        :func:`repro.utils.rng.new_rng` (as :meth:`rng` does) or to
        :func:`repro.utils.rng.keyed_normal_into` yields the same stream in
        every engine and batch layout.
        """
        return derive_seed(self.seed, "nonideal", self.model_index, self.layer, *labels)

    def rng(self, *labels) -> np.random.Generator:
        """A fresh generator for ``labels``, keyed under this context.

        The same ``(seed, model_index, layer, labels)`` tuple always yields
        the same stream — this is what makes the subsystem's sampling
        *counter-based* rather than sequential.
        """
        return new_rng(self.draw_key(*labels))


class BoundModel:
    """One non-ideality model bound to one mapped layer.

    The base implementation is the identity; models override the pieces they
    need.  ``perturb`` must never mutate its input (the engines may pass
    views into reused scratch buffers) and must return float64 so both
    engines merge exactly the same values.
    """

    def __init__(self, ctx: LayerNoiseContext) -> None:
        self.ctx = ctx

    @property
    def integer_domain(self) -> bool:
        """True when ``perturb`` maps exact integers to exact integers."""
        return False

    @property
    def cycle_invariant(self) -> bool:
        """True when ``perturb`` is independent of ``(cycle, chunk)``.

        Static device state (programmed variation factors, fault maps,
        drift, wire geometry) perturbs every input cycle of a segment
        identically, element-wise per (row, column) — independent of the
        row count and of which cycle or chunk a block belongs to.
        Declaring this lets the fused crossbar kernel tabulate an
        integer-domain stack once per run, by passing a probe block
        through ``perturb_trials`` (row ``v`` holds ``v`` in every column),
        or else collapse its per-(segment, cycle) loop into **one**
        ``perturb_trials`` call per segment covering all input cycles at
        once.  Models that re-draw per read access (noise keyed by
        ``(chunk, segment, cycle)`` or shaped by the row count) must leave
        this ``False``.
        """
        return False

    def output_bound(self, input_bound: int) -> int:
        """Upper bound of perturbed values given inputs in ``0 … input_bound``.

        Only meaningful for integer-domain models (sizes the conversion LUT).
        """
        return int(input_bound)

    def value_map(self, input_bound: int) -> Optional[np.ndarray]:
        """Pure per-value integer map over ``0 … input_bound``, or ``None``.

        When every model of a stack publishes a map, the fast engine composes
        them into the ADC transfer LUT instead of touching the data blocks.
        The map must satisfy ``map[v] == perturb(v)`` for every integer ``v``.
        """
        return None

    def perturb(
        self, values: np.ndarray, segment: int, cycle: int, chunk: int
    ) -> np.ndarray:
        """Perturb one raw bit-line block of shape ``(rows, columns)``."""
        return values

    def perturb_into(
        self,
        values: np.ndarray,
        segment: int,
        cycle: int,
        chunk: int,
        out: np.ndarray,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``perturb`` with the result written into ``out`` and returned.

        ``out`` is a float64 buffer of the block's shape and may be
        ``values`` itself, so a stack chains through one reused buffer
        (:meth:`~repro.nonideal.stack.LayerNoiseState.perturb_block`).
        ``scratch``, when given, is another such buffer the model may
        overwrite (read noise draws there when ``values`` is ``out``).  The
        values must equal ``perturb``'s bit for bit; this default computes
        ``perturb`` and copies, and every registered model overrides it to
        write in place, so the fast engine's kernel threads make no
        block-sized temporary.
        """
        result = self.perturb(np.asarray(values, dtype=np.float64), segment, cycle, chunk)
        if result is not out:
            np.copyto(out, result)
        return out

    @staticmethod
    def perturb_trials(
        siblings: Sequence["BoundModel"],
        values: np.ndarray,
        segment: int,
        cycle: int,
        chunk: int,
    ) -> np.ndarray:
        """Perturb a ``(trials, rows, columns)`` batch of sibling replicas.

        ``siblings[t]`` is the same model bound under Monte Carlo trial
        ``t``'s derived seed; ``values[t]`` is that trial's raw block.  The
        fused crossbar kernel calls this once per (segment, cycle) block
        instead of ``trials`` separate ``perturb`` calls.

        The contract is **bit-identity**: ``result[t]`` must equal
        ``siblings[t].perturb(values[t], ...)`` exactly.  This default
        simply loops; concrete models override it with a vectorised batch
        (stacked static factors, one fused element-wise pass) whose
        per-trial slices are exact because every operation involved is
        element-wise per trial.
        """
        out = np.empty(
            (len(siblings),) + tuple(values.shape[1:]), dtype=np.float64
        )
        for index, bound in enumerate(siblings):
            out[index] = bound.perturb(values[index], segment, cycle, chunk)
        return out


def stacked_trial_state(siblings, segment, builder):
    """Cached per-trial stacked static state of one sibling group.

    Vectorised ``perturb_trials`` implementations stack each sibling's
    static per-segment state (variation factors, fault deltas) into one
    ``(trials, …)`` array.  Rebuilding that stack on every chunk call is a
    fixed cost the batched kernel pays per invocation — dominant in the
    overhead-bound small-row regime the batching targets — so the stack is
    cached on the first sibling, keyed by ``segment``.  Each entry remembers
    the exact sibling tuple it was built from and is rebuilt whenever the
    grouping changes (trial sub-groups slice sibling lists differently), so
    a hit can never mix state across groups.
    """
    owner = siblings[0]
    cache = owner.__dict__.setdefault("_stacked_trial_cache", {})
    entry = cache.get(segment)
    if entry is not None:
        group, stacked = entry
        if len(group) == len(siblings) and all(
            a is b for a, b in zip(group, siblings)
        ):
            return stacked
    stacked = builder()
    cache[segment] = (tuple(siblings), stacked)
    return stacked


class NonIdealityModel:
    """Base class of all registered device non-ideality models.

    Subclasses are immutable parameter holders; all state derived from a
    layer (static device draws, caches) lives on the :class:`BoundModel`
    returned by :meth:`bind`.  ``name`` is the registry key and ``params``
    must round-trip through the constructor:
    ``type(m)(**m.params())`` ≡ ``m``.
    """

    name: ClassVar[str] = ""

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def spec(self) -> Dict[str, object]:
        """Serializable description; inverse of
        :func:`repro.nonideal.registry.build_model`."""
        return {"model": self.name, **self.params()}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"
