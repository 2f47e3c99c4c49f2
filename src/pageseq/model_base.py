"""Shared bookkeeping for models built from named child layers.

Trainable parameters and non-trained buffers (batch-norm running stats)
are kept separate: the optimizer sees only parameters, checkpoints store
both under a flat name space (buffers prefixed ``buf.``).
"""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm1d


class ModelBase:
    def _children(self) -> dict:
        raise NotImplementedError

    def _extra_params(self) -> dict:
        return {}

    def _extra_grads(self) -> dict:
        return {}

    def named_params(self):
        out = dict(self._extra_params())
        for cn, child in self._children().items():
            for pn, p in child.params.items():
                out[f"{cn}.{pn}"] = p
        return out

    def named_grads(self):
        out = dict(self._extra_grads())
        for cn, child in self._children().items():
            for pn, g in child.grads.items():
                out[f"{cn}.{pn}"] = g
        return out

    def named_buffers(self):
        out = {}
        for cn, child in self._children().items():
            if isinstance(child, BatchNorm1d):
                out[f"{cn}.running_mean"] = child.running_mean
                out[f"{cn}.running_var"] = child.running_var
        return out

    def zero_grads(self):
        for g in self._extra_grads().values():
            g[...] = 0
        for child in self._children().values():
            child.zero_grads()

    def state_dict(self):
        out = dict(self.named_params())
        for name, buf in self.named_buffers().items():
            out[f"buf.{name}"] = buf
        return out

    def snapshot(self):
        return {k: np.copy(v) for k, v in self.state_dict().items()}

    def load_state(self, state: dict):
        """Copies ``state`` into the model; it must name every parameter
        and buffer of :meth:`state_dict`, and nothing else, with the same
        shapes."""
        load_named(self.state_dict(), state, type(self).__name__)


def load_named(own: dict, state: dict, owner: str):
    """Copies each array of ``state`` into the array of ``own`` with its
    name.  Raises ``KeyError`` unless both have the same names, and
    ``ValueError`` on a shape that differs."""
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
