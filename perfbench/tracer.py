"""Spans around the public functions of the ``pageseq`` modules.

The tracer lives in the benchmark, not in the package: it replaces each
traced function or method with a wrapper that counts calls and self
time.  A function imported by name into other modules is bound there
too (``from .metrics import score``), so every binding in every
``pageseq`` module is replaced, and :meth:`Tracer.install` fails if one
is left behind.  A span's self time is its duration minus the time of
the traced spans it encloses.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter

# Per-layer spans; each is "<module>.<function>" or
# "<module>.<Class>.<method>" inside the pageseq package.
LAYER_SPANS = [f"layers.{cls}.{method}"
               for cls in ("Embedding", "Conv1d", "BatchNorm1d", "MaxPool1d",
                           "AdaptiveMaxPool1d", "Linear")
               for method in ("forward", "backward")]
SPANS = [
    "synth.generate_synthetic", "corpus.save_corpus", "corpus.load_corpus",
    "checkpoint.load_checkpoint",
    *LAYER_SPANS,
    "text.Vocab.build", "textcnn.encode_pages", "textcnn.train_text_cnn",
    "textcnn.evaluate_text_cnn", "losses.cross_entropy",
    "crf.train_crf", "crf.nll_and_grad", "crf.forward_backward",
    "crf.viterbi_decode",
    "lstm.LstmCell.forward", "lstm.LstmCell.backward",
    "seqmodels.train_seq", "seqmodels.SeqModel.decode",
    "fusion.train_fusion", "fusion.FusionModule.forward",
    "fusion.FusionModule.backward", "fusion.embedding_arrays",
    "experiments.concat_features", "experiments.fm_probability_sequences",
    "optim.Adam.step", "checkpoint.save_checkpoint",
    "model_base.ModelBase.snapshot", "metrics.score", "metrics.score_collapsed",
]


def _embedding_probe(tracer, args):
    ids = args[1]
    tracer.counts["token_positions"] += ids.size
    tracer.counts["tokens"] += int((ids != 0).sum())  # id 0 is padding


def _crf_probe(tracer, args):
    tracer.counts["crf_pages"] += len(args[0])


# Counts taken at a span's entry, outside its timed interval.
PROBES = {"layers.Embedding.forward": _embedding_probe,
          "crf.forward_backward": _crf_probe}


def package_modules():
    """The pageseq package and every module in it, imported."""
    package = importlib.import_module("pageseq")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"pageseq.{info.name}"))
    return modules


class Tracer:
    """Counts calls and self time per span while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, name, fn):
        tracer = self
        probe = PROBES.get(name)

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args)
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, names=SPANS):
        """Wraps every binding of each named span; returns self."""
        modules = package_modules()
        originals = []
        for name in names:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"pageseq.{module_name}")
            if len(path) == 1:
                fn = owner.__dict__[path[0]]
                span = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, span)
                originals.append(fn)
            else:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    self._patch(cls, path[1],
                                classmethod(self._wrap(name, raw.__func__)))
                    originals.append(raw.__func__)
                else:
                    self._patch(cls, path[1], self._wrap(name, raw))
                    originals.append(raw)
        left = [f"{module.__name__}.{attr}" for module in modules
                for attr, value in vars(module).items()
                if any(value is fn for fn in originals)]
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings of traced spans: {left}")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False
