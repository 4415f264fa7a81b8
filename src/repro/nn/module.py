"""Parameter and Module abstractions of the NumPy DNN framework.

The design mirrors a small subset of ``torch.nn``: a :class:`Module` owns
:class:`Parameter` objects and child modules, exposes recursive traversal
(``named_modules``, ``parameters``), a training/eval switch, forward hooks and
state-dict (de)serialisation.  Layers implement explicit ``forward`` and
``backward`` methods (no tape autograd) which is sufficient for training the
reproduction's model zoo and keeps behaviour easy to audit.

Two extension points matter for the rest of the library:

* ``register_forward_hook`` — used by the calibration pipeline to capture
  per-layer activations.
* ``compute_backend`` on MVM layers (``Conv2d``/``Linear``) — used by the PIM
  simulator to re-route the matrix multiplication through the crossbar + ADC
  models without touching the model definition.

In training mode a module tree shares one
:class:`~repro.nn.functional.StepArrays`: layers write their activation-sized
caches, outputs and temporaries into its reused memory, so training steps
after the first allocate none (:meth:`Module.step_arrays`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.functional import FRESH, StepArrays


class Parameter:
    """A trainable tensor: value plus accumulated gradient."""

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape}, requires_grad={self.requires_grad})"


ForwardHook = Callable[["Module", np.ndarray, np.ndarray], None]


class HookHandle:
    """Handle returned by ``register_forward_hook``; ``remove()`` detaches it."""

    def __init__(self, hooks: Dict[int, ForwardHook], hook_id: int) -> None:
        self._hooks = hooks
        self._id = hook_id

    def remove(self) -> None:
        self._hooks.pop(self._id, None)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._forward_hooks: Dict[int, ForwardHook] = {}
        self._hook_counter = 0
        self.training = True
        self._step_arrays: Optional[StepArrays] = None

    # ------------------------------------------------------------------ #
    # registration / attribute plumbing
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            if not hasattr(self, "_parameters"):
                raise AttributeError(
                    "call Module.__init__() before assigning parameters"
                )
            self._parameters[name] = value
        elif isinstance(value, Module):
            if not hasattr(self, "_modules"):
                raise AttributeError("call Module.__init__() before assigning modules")
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used by containers)."""
        if not isinstance(module, Module):
            raise TypeError(f"{name} is not a Module: {type(module)!r}")
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}{child_name}."
            yield from child.named_modules(prefix=child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if p.requires_grad or not trainable_only
        )

    # ------------------------------------------------------------------ #
    # train / eval, grads
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on the whole tree.

        ``train()`` gives every module of the tree one shared
        :class:`StepArrays` (the tree's current one if it already trains);
        ``train(False)`` drops it, and with it every step array.
        """
        arrays = None
        if mode:
            arrays = self._step_arrays if self.training else None
            arrays = arrays if arrays is not None else StepArrays()
        for module in self.modules():
            module.training = mode
            module._step_arrays = arrays
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def step_arrays(self):
        """Where this module's activation-sized arrays come from: the tree's
        :class:`StepArrays` in training mode (one of its own if the module
        was never put into training mode), else
        :data:`~repro.nn.functional.FRESH`, which allocates each anew.
        Either way an array lives as long as something references it.
        """
        if not self.training:
            return FRESH
        if self._step_arrays is None:
            self._step_arrays = StepArrays()
        return self._step_arrays

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def register_forward_hook(self, hook: ForwardHook) -> HookHandle:
        """Register ``hook(module, input, output)`` called after ``forward``."""
        self._hook_counter += 1
        self._forward_hooks[self._hook_counter] = hook
        return HookHandle(self._forward_hooks, self._hook_counter)

    # ------------------------------------------------------------------ #
    # forward / backward interface
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``grad_out`` through the layer, accumulating parameter
        gradients.  Layers that are inference-only may leave this
        unimplemented."""
        raise NotImplementedError(f"{type(self).__name__} has no backward pass")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        for hook in list(self._forward_hooks.values()):
            hook(self, x, out)
        return out

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter (and buffer) names to copies of values."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, module in self.named_modules():
            prefix = f"{name}." if name else ""
            for buf_name, value in getattr(module, "_buffers", {}).items():
                state[f"{prefix}{buf_name}"] = np.array(value, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load a mapping produced by :meth:`state_dict`."""
        own_params = dict(self.named_parameters())
        own_buffers: Dict[str, Tuple[Module, str]] = {}
        for name, module in self.named_modules():
            prefix = f"{name}." if name else ""
            for buf_name in getattr(module, "_buffers", {}):
                own_buffers[f"{prefix}{buf_name}"] = (module, buf_name)

        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for key, value in state.items():
            if key in own_params:
                param = own_params[key]
                value = np.asarray(value, dtype=param.data.dtype)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: {value.shape} vs {param.data.shape}"
                    )
                param.data[...] = value
            elif key in own_buffers:
                module, buf_name = own_buffers[key]
                module._buffers[buf_name] = np.array(value, copy=True)
                object.__setattr__(module, buf_name, module._buffers[buf_name])

    def __repr__(self) -> str:
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Chain of modules executed (and back-propagated) in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        for idx, layer in enumerate(layers):
            self.add_module(str(idx), layer)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self._modules.values():
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(list(self._modules.values())):
            grad_out = layer.backward(grad_out)
        return grad_out


class Identity(Module):
    """Pass-through layer (useful for optional residual downsampling paths)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
