"""Module/Parameter abstractions (a small, typed subset of ``torch.nn``).

A :class:`Module` owns :class:`Parameter` leaves and child modules, discovered
automatically through attribute assignment.  This registry powers:

* optimizers (``module.parameters()``),
* weight sharing between Bayesian-optimization candidates
  (``state_dict`` / ``load_state_dict`` keyed by the module path),
* train/eval mode switching (batch-norm statistics, spiking monitors).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable leaf of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for every layer and model.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Attribute assignment of :class:`Parameter`, :class:`Module` and
    :class:`ModuleList` instances registers them automatically.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. batch-norm stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs for the whole subtree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of the subtree as a list."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs, including ``self`` as ``""``."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        """Return every module in the subtree (including ``self``)."""
        return [m for _, m in self.named_modules()]

    def children(self) -> List["Module"]:
        """Return direct child modules."""
        return list(self._modules.values())

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs for the whole subtree."""
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # parameter counting / state handling
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter and buffer keyed by dotted path."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[f"buffer::{name}"] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> List[str]:
        """Load parameters/buffers from :meth:`state_dict` output.

        Returns the list of keys in ``state`` that could not be applied
        (missing in the model or shape-mismatched).  With ``strict=True`` a
        mismatch raises instead.  Shape-tolerant loading (``strict=False``) is
        what enables weight sharing across architectures that differ only in
        their skip connections: layers whose shapes changed (e.g. a conv whose
        input grew because of a new concatenation skip) keep their fresh
        initialisation while all compatible layers inherit trained weights.
        """
        unapplied: List[str] = []
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key.startswith("buffer::"):
                name = key[len("buffer::"):]
                if name in buffers and np.shape(buffers[name]) == np.shape(value):
                    self._assign_buffer_by_path(name, np.array(value, copy=True))
                else:
                    unapplied.append(key)
            elif key in params and params[key].shape == value.shape:
                params[key].data[...] = value
            else:
                unapplied.append(key)
        if strict and unapplied:
            raise KeyError(f"state_dict keys could not be loaded: {unapplied}")
        return unapplied

    def _assign_buffer_by_path(self, path: str, value: np.ndarray) -> None:
        parts = path.split(".")
        target: Module = self
        for part in parts[:-1]:
            target = target._modules[part]
        target.update_buffer(parts[-1], value)

    # ------------------------------------------------------------------
    # train / eval, gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set train/eval mode recursively."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch the subtree to evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset gradients of every parameter in the subtree."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        """Extra information shown by :meth:`__repr__` (override in layers)."""
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"{type(self).__name__}({self.extra_repr()})"]
        for name, module in self._modules.items():
            child = repr(module).splitlines()
            lines.append(f"  ({name}): {child[0]}")
            lines.extend(f"  {line}" for line in child[1:])
        return "\n".join(lines)


class ModuleList(Module):
    """An indexable container of modules, registered under string indices."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Append ``module`` and register it under its positional index."""
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        object.__setattr__(self, str(index), module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "Sequential":
        """Append a module to the chain."""
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        object.__setattr__(self, str(index), module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x
