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
        return {}

    def _extra_params(self) -> dict:
        return {}

    def _extra_grads(self) -> dict:
        return {}

    def named_params(self):
        return self._named(self._extra_params(), "params")

    def named_grads(self):
        return self._named(self._extra_grads(), "grads")

    def _named(self, out, attr):
        """``out`` plus each child's ``attr`` dict, as "child.name"."""
        out = dict(out)
        for cn, child in self._children().items():
            for name, value in getattr(child, attr).items():
                out[f"{cn}.{name}"] = value
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
