"""The one module type: every layer and model is a :class:`ModelBase`.

A module registers each array it owns once.  ``_add_param`` registers a
trained array and its gradient buffer, ``_add_buffer`` an array that is
saved but not trained (batch-norm running statistics).  A model names
its submodules in ``_children()``, and one walk over them gives every
parameter, gradient and buffer a flat name, "child.name".  The
optimizer sees only parameters; checkpoints store parameters and
buffers under one name space, buffers prefixed ``buf.``.
"""

from __future__ import annotations

import numpy as np


class ModelBase:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _add_param(self, name, value, grad=None):
        """Registers ``value`` as trained, with the gradient buffer
        ``grad`` (zeros of its shape when omitted)."""
        self.params[name] = value
        self.grads[name] = np.zeros_like(value) if grad is None else grad

    def _add_buffer(self, name, value):
        """Registers ``value`` as saved but not trained; returns it."""
        self.buffers[name] = value
        return value

    def _children(self) -> dict:
        return {}

    def _named(self, attr):
        """This module's ``attr`` dict, then each child's, as "child.name"."""
        out = dict(getattr(self, attr))
        for cn, child in self._children().items():
            for name, value in child._named(attr).items():
                out[f"{cn}.{name}"] = value
        return out

    def named_params(self):
        return self._named("params")

    def named_grads(self):
        return self._named("grads")

    def named_buffers(self):
        return self._named("buffers")

    def zero_grads(self):
        for g in self.named_grads().values():
            g[...] = 0

    def state_dict(self):
        out = dict(self.named_params())
        for name, buf in self.named_buffers().items():
            out[f"buf.{name}"] = buf
        return out

    def snapshot(self):
        return {k: np.copy(v) for k, v in self.state_dict().items()}

    def load_state(self, state: dict):
        """Copies ``state`` into the model.  Raises ``KeyError`` unless it
        names every parameter and buffer of :meth:`state_dict` and nothing
        else, and ``ValueError`` on a shape that differs."""
        own, owner = self.state_dict(), type(self).__name__
        missing = sorted(set(own) - set(state))
        unknown = sorted(set(state) - set(own))
        if missing or unknown:
            raise KeyError(f"{owner} state names differ: missing {missing}, "
                           f"unknown {unknown}")
        for name, value in state.items():
            if np.shape(value) != own[name].shape:
                raise ValueError(f"{owner} parameter {name!r} has shape "
                                 f"{np.shape(value)}, expected {own[name].shape}")
            own[name][...] = value
