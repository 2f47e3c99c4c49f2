"""Reference BiLSTM: one cell per direction, one lawsuit per call.

The BiLSTM used to run each direction of each lawsuit as its own
``LstmCell`` call over a (T, features) array, the reverse direction on
the reversed rows, and ``SeqModel`` trained a mini-batch one lawsuit at
a time.  That code is kept here, unchanged apart from how the cells get
their parameters, as an oracle for the stacked, packed recurrence.

``RefBiLstm`` wraps a production ``BiLstm`` and works on views of its
``fwd.*``/``bwd.*`` parameters and gradients, so both accumulate into
the same buffers.
"""

import numpy as np

from pageseq.iob import IOB_TAGS
from pageseq.model_base import ModelBase
from pageseq.losses import cross_entropy
from pageseq import crf as crf_ops
from pageseq.tensor import RngState


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class RefLstmCell(ModelBase):
    """Single-direction LSTM over one sequence; gate order i, f, g, o."""

    def __init__(self, params, grads):
        super().__init__()
        self.params, self.grads = params, grads
        self.hidden = params["w_h"].shape[0]
        self._cache = None

    def forward(self, x, train=False):
        t_len = x.shape[0]
        h_dim = self.hidden
        w_h = self.params["w_h"]
        gates = x @ self.params["w_x"] + self.params["bias"]
        cs = np.zeros((t_len + 1, h_dim), dtype=gates.dtype)
        tcs = np.empty((t_len, h_dim), dtype=gates.dtype)
        hs = np.zeros((t_len, h_dim), dtype=gates.dtype)
        h = hs[0]
        for t in range(t_len):
            a = gates[t]
            a += h @ w_h
            a[: 2 * h_dim] = _sigmoid(a[: 2 * h_dim])
            np.tanh(a[2 * h_dim : 3 * h_dim], out=a[2 * h_dim : 3 * h_dim])
            a[3 * h_dim :] = _sigmoid(a[3 * h_dim :])
            np.add(a[h_dim : 2 * h_dim] * cs[t],
                   a[:h_dim] * a[2 * h_dim : 3 * h_dim], out=cs[t + 1])
            np.tanh(cs[t + 1], out=tcs[t])
            h = np.multiply(a[3 * h_dim :], tcs[t], out=hs[t])
        self._cache = (x, gates, cs[:-1], tcs, hs) if train else None
        return hs.astype(x.dtype, copy=False)

    def backward(self, dh_seq):
        x, gates, c_prevs, tcs, hs = self._cache
        t_len, h_dim = dh_seq.shape
        i, f, g, o = (gates[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        dc_coef = np.stack([g * i * (1.0 - i), c_prevs * f * (1.0 - f),
                            i * (1.0 - g * g)], axis=1)
        dh_to_dc = o * (1.0 - tcs * tcs)
        dh_to_do = tcs * o * (1.0 - o)
        w_h = self.params["w_h"]
        da = np.empty((t_len, 4, h_dim), dtype=gates.dtype)
        dh_next = np.zeros(h_dim, dtype=gates.dtype)
        dc_next = np.zeros(h_dim, dtype=gates.dtype)
        for t in range(t_len - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dc = dc_next + dh * dh_to_dc[t]
            np.multiply(dc, dc_coef[t], out=da[t, :3])
            np.multiply(dh, dh_to_do[t], out=da[t, 3])
            dh_next = w_h @ da[t].reshape(-1)
            dc_next = dc * f[t]
        da = da.reshape(t_len, 4 * h_dim)
        self.grads["w_x"] += x.T @ da
        self.grads["w_h"] += hs[:-1].T @ da[1:]
        self.grads["bias"] += da.sum(axis=0)
        return (da @ self.params["w_x"].T).astype(x.dtype, copy=False)


class RefBiLstm(ModelBase):
    """Forward and reverse cell over one sequence, on a production
    ``BiLstm``'s parameters and gradient buffers."""

    def __init__(self, bilstm):
        super().__init__()
        self.hidden = bilstm.hidden
        self.fwd, self.bwd = (
            RefLstmCell({n: bilstm.params[f"{d}.{n}"] for n in ("w_x", "w_h", "bias")},
                        {n: bilstm.grads[f"{d}.{n}"] for n in ("w_x", "w_h", "bias")})
            for d in ("fwd", "bwd"))

    def forward(self, x, train=False):
        h_f = self.fwd.forward(x, train=train)
        h_b = self.bwd.forward(x[::-1], train=train)[::-1]
        return np.concatenate([h_f, h_b], axis=1)

    def backward(self, grad):
        h_dim = self.hidden
        dx_f = self.fwd.backward(grad[:, :h_dim])
        dx_b = self.bwd.backward(grad[::-1, h_dim:])[::-1]
        return dx_f + dx_b


def ref_forward_scores(model, x, train=False):
    """``SeqModel.forward_scores`` of one lawsuit with the reference BiLSTM."""
    if model.config.fusion_input:
        x = model.fc_in.forward(model.drop_in.forward(
            model.bn_in.forward(x, train=train), train=train), train=train)
    h = RefBiLstm(model.bilstm).forward(x, train=train)
    h = model.drop_out.forward(model.bn_out.forward(h, train=train),
                               train=train)
    return model.fc_out.forward(h, train=train)


def ref_loss_and_backward(model, x, tag_ids, lengths):
    """Mean over lawsuits of each lawsuit's length-normalised loss, with
    its gradients accumulated into ``model``: the stem and the head see
    all packed rows at once (the same BatchNorm statistics as
    ``SeqModel.loss_and_backward``), the BiLSTM runs one lawsuit at a
    time through the reference cells, and each lawsuit's loss is the one
    ``SeqModel`` computed per lawsuit."""
    bounds = np.cumsum([0] + list(lengths))
    spans = list(zip(bounds[:-1], bounds[1:]))
    n_seq = len(spans)
    if model.config.fusion_input:
        x = model.fc_in.forward(model.drop_in.forward(
            model.bn_in.forward(x, train=True), train=True), train=True)
    cells = [RefBiLstm(model.bilstm) for _ in spans]
    h = np.concatenate([cell.forward(x[lo:hi], train=True)
                        for cell, (lo, hi) in zip(cells, spans)])
    h = model.drop_out.forward(model.bn_out.forward(h, train=True), train=True)
    scores = model.fc_out.forward(h, train=True)
    total = 0.0
    d_scores = np.empty_like(scores)
    for lo, hi in spans:
        t_len = hi - lo
        if model.config.crf_head:
            nll, d_em, *d_head = crf_ops.nll_and_grad(
                scores[lo:hi].astype(np.float64), *model.crf.params.values(),
                tag_ids[lo:hi])
            for g, d in zip(model.crf.grads.values(), d_head):
                g += d / t_len / n_seq
            total += nll / t_len
            d_scores[lo:hi] = d_em / t_len
        else:
            loss, d_scores[lo:hi] = cross_entropy(scores[lo:hi], tag_ids[lo:hi])
            total += loss
    g = model.fc_out.backward(d_scores / n_seq)
    g = model.bn_out.backward(model.drop_out.backward(g))
    g = np.concatenate([cell.backward(g[lo:hi])
                        for cell, (lo, hi) in zip(cells, spans)])
    if model.config.fusion_input:
        model.bn_in.backward(model.drop_in.backward(model.fc_in.backward(g)))
    return total / n_seq


def ref_initial_params(config, seed=0, dtype=np.float32):
    """``SeqModel``'s initial parameters, drawn in the order a separate
    cell per direction drew them."""
    from pageseq.layers import Linear

    init = RngState(seed).consumer("seq-init")
    out = {}
    lstm_in = config.input_dim
    if config.fusion_input:
        fc_in = Linear(config.input_dim, config.pre_fc, init, dtype)
        out.update({f"fc_in.{k}": v for k, v in fc_in.params.items()})
        lstm_in = config.pre_fc
    hidden = config.lstm_hidden
    bound = 1.0 / np.sqrt(hidden)
    for d in ("fwd", "bwd"):
        out[f"bilstm.{d}.w_x"] = init.uniform(
            -bound, bound, (lstm_in, 4 * hidden)).astype(dtype)
        out[f"bilstm.{d}.w_h"] = init.uniform(
            -bound, bound, (hidden, 4 * hidden)).astype(dtype)
        out[f"bilstm.{d}.bias"] = np.zeros(4 * hidden, dtype=dtype)
    fc_out = Linear(2 * hidden, len(IOB_TAGS), init, dtype, w_scale=1e-3)
    out.update({f"fc_out.{k}": v for k, v in fc_out.params.items()})
    return out
