"""Linear-chain conditional random field over per-page feature vectors.

Core routines operate on an emission matrix (T, K) plus transition
scores.  Forward-backward and the NLL gradient also take a batch of
sequences packed into one (N, K) matrix plus their lengths, and run the
recursion once for the whole batch over a padded view.  Forward-backward
works in probability space with per-step scaling, so each step is one
small GEMM; its domain is a step that keeps some surviving path within
~700 nats of the largest scores, and it raises ``ValueError`` outside
it.  :func:`viterbi_decode` stays in log space and has no such limit.
:class:`CrfHead` holds the transition, start and stop scores: it is the
CRF layer of the BiLSTM-CRF and of :class:`CrfModel`, which adds a
linear emission map over F-dim input features and is what the fusion +
CRF pipeline trains.
"""

from __future__ import annotations

import numpy as np

from .model_base import ModelBase
from .tensor import RngState, grid_positions, packing
from .training import fit


def sequence_score(emissions, transitions, start, stop, tags, lengths=None,
                   weights=None):
    """Log-score of a tag path: emissions + transitions + start/stop.

    Packed emissions (N, K) and tags (N,) of several sequences, named by
    ``lengths`` as in :func:`forward_backward`, give the summed score,
    each sequence's times its ``weights`` entry (1 when omitted).
    """
    emissions = np.asarray(emissions)
    tags = np.asarray(tags)
    n_rows = emissions.shape[0]
    if tags.shape != (n_rows,):
        raise ValueError("tags length does not match emissions")
    if tags.min() < 0 or tags.max() >= emissions.shape[1]:
        raise IndexError("tag out of range")
    packed = packing(n_rows, lengths)
    _, firsts, lasts, pairs = packed
    w, w_row = _weights(packed, weights)
    score = ((start[tags[firsts]] * w).sum()
             + (emissions[np.arange(n_rows), tags] * w_row).sum()
             + (stop[tags[lasts]] * w).sum()
             + (transitions[tags[pairs], tags[pairs + 1]] * w_row[pairs]).sum())
    return float(score)


def _weights(packed, weights):
    """Each sequence's weight, all ones for ``None``, and each row's."""
    w = (np.ones(packed.lengths.size) if weights is None
         else np.asarray(weights, dtype=np.float64))
    return w, np.repeat(w, packed.lengths)


def forward_backward(emissions, transitions, start, stop, lengths=None,
                     weights=None):
    """Posterior marginals of a batch of sequences, packed.

    ``emissions`` is (N, K): the rows of every sequence concatenated, with
    ``lengths`` giving each sequence's row count (one sequence when it is
    omitted).  Returns the unary marginals (N, K), the expected transition
    counts (K, K) summed over the batch, and the summed log partition,
    each sequence's share times its ``weights`` entry (1 when omitted).

    The recursions are Rabiner's (1989) scaled forward-backward, in
    probability space.  Every score is shifted by its max and
    exponentiated once.  A forward step is one (B, K) @ (K, K) GEMM times
    the step's emissions, divided by its row sum ``c_t``; the backward
    step mirrors it with the same ``c_t``, and log Z is the sum of the
    ``log c_t`` plus the shifts.  Both run once over a left-aligned,
    time-major (T_max, B, K) grid whose padded rows hold no mass and
    have ``c_t = 1``.  The backward recursion is linear in its stop
    message, so a sequence's weight enters there.  The domain is
    float64's ``exp`` range: a step that leaves every surviving path
    more than ~700 nats below the largest scores makes ``c_t`` underflow
    to 0, and ``ValueError`` names the sequence where that happens or
    ``c_t`` is not finite.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions, start, stop = (np.asarray(a, dtype=np.float64)
                                for a in (transitions, start, stop))
    n_rows, k = emissions.shape
    packed = packing(n_rows, lengths)
    w, w_row = _weights(packed, weights)
    (pos,), t_max, n_seq = grid_positions(n_rows, packed)
    em_max = emissions.max(axis=1, keepdims=True)
    tr_max, start_max, stop_max = transitions.max(), start.max(), stop.max()
    exp_tr = np.exp(transitions - tr_max)
    # time-major grids; a padded row has no mass (ex 0) and scale 1 (pad)
    ex = np.zeros((t_max * n_seq, k))
    ex[pos] = np.exp(emissions - em_max)
    ex = ex.reshape(t_max, n_seq, k)
    pad = np.ones(t_max * n_seq)
    pad[pos] = 0.0
    pad = pad.reshape(t_max, n_seq)
    alpha = np.empty_like(ex)
    scale = np.empty_like(pad)
    np.multiply(np.exp(start - start_max), ex[0], out=alpha[0])
    for t in range(t_max):
        if t:
            np.matmul(alpha[t - 1], exp_tr, out=alpha[t])
            alpha[t] *= ex[t]
        np.add(alpha[t].sum(axis=1), pad[t], out=scale[t])
        if not scale[t].min() > 0:  # also when NaN
            raise _scale_error(scale[t], pad[t], f"row {t}")
        alpha[t] /= scale[t, :, None]
    seqs, ends = np.arange(n_seq), packed.lengths - 1
    exp_stop = np.exp(stop - stop_max)
    stop_scale = alpha[ends, seqs] @ exp_stop
    if not stop_scale.min() > 0:
        raise _scale_error(stop_scale, 0.0, "its stop")
    beta = np.zeros_like(ex)
    beta[ends, seqs] = exp_stop / stop_scale[:, None] * w[:, None]
    # msg[t] = ex[t] * beta[t] / c_t, the message step t passes back
    msg = ex / scale[:, :, None]
    for t in range(t_max - 1, 0, -1):
        msg[t] *= beta[t]
        beta[t - 1] += msg[t] @ exp_tr.T
    unary = (alpha * beta).reshape(-1, k)[pos]
    pairwise = exp_tr * np.tensordot(alpha[:-1], msg[1:], axes=([0, 1], [0, 1]))
    log_z = ((np.log(scale) * w).sum() + (np.log(stop_scale) * w).sum()
             + (em_max[:, 0] * w_row).sum() + w.sum() * (start_max + stop_max)
             + (w_row.sum() - w.sum()) * tr_max)
    return unary, pairwise, float(log_z)


def _scale_error(scale, pad, where):
    """A ``ValueError`` naming the first unpadded sequence whose scale is
    0 or not finite."""
    seq = int(np.flatnonzero(~(scale > 0) & (pad == 0))[0])
    return ValueError(
        f"CRF forward-backward: sequence {seq} has scale {scale[seq]} at "
        f"{where}; one step spans more than float64's ~700 nats between "
        "surviving paths, or a score is not finite")


def nll_and_grad(emissions, transitions, start, stop, gold_tags, lengths=None,
                 weights=None):
    """CRF negative log-likelihood and gradients via expected counts.

    Takes packed emissions (N, K) and gold tags (N,) of the sequences
    named by ``lengths``, as :func:`forward_backward` does.  Returns
    (nll, d_emissions, d_transitions, d_start, d_stop), each summed over
    the sequences times their ``weights`` entries (1 when omitted).
    """
    emissions, gold_tags = np.asarray(emissions), np.asarray(gold_tags)
    n_rows = emissions.shape[0]
    packed = packing(n_rows, lengths)
    gold = sequence_score(emissions, transitions, start, stop, gold_tags,
                          packed, weights)
    # each gradient is the expected counts (the marginals) less the gold
    d_em, d_trans, log_z = forward_backward(emissions, transitions, start,
                                            stop, packed, weights)
    _, w_row = _weights(packed, weights)
    d_em[np.arange(n_rows), gold_tags] -= w_row
    pairs = packed.pairs
    np.subtract.at(d_trans, (gold_tags[pairs], gold_tags[pairs + 1]),
                   w_row[pairs])
    # a sequence's start (stop) gradient is its first (last) emission's
    d_start = d_em[packed.firsts].sum(axis=0)
    d_stop = d_em[packed.lasts].sum(axis=0)
    return log_z - gold, d_em, d_trans, d_start, d_stop


def viterbi_decode(emissions, transitions, start, stop):
    """Exact argmax path; ties resolve to the lowest tag index."""
    emissions = np.asarray(emissions)
    t_len, k = emissions.shape
    delta = start + emissions[0]
    back = np.empty((t_len, k), dtype=np.int64)
    for t in range(1, t_len):
        cand = delta[:, None] + transitions
        back[t] = cand.argmax(axis=0)  # first (lowest) index on ties
        delta = emissions[t] + cand[back[t], np.arange(k)]
    final = delta + stop
    path = np.empty(t_len, dtype=np.int64)
    path[-1] = int(final.argmax())
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path.tolist(), float(final.max())


class CrfHead(ModelBase):
    """A linear-chain CRF's transition, start and stop scores (float64)
    as a layer."""

    def __init__(self, n_tags):
        super().__init__()
        self._add_param("transitions", np.zeros((n_tags, n_tags)))
        self._add_param("start", np.zeros(n_tags))
        self._add_param("stop", np.zeros(n_tags))

    def nll_and_backward(self, emissions, tags, lengths=None, weights=None):
        """:func:`nll_and_grad` over the head's scores: adds their gradients
        to ``grads`` and returns (nll, d_emissions)."""
        nll, d_em, *d_head = nll_and_grad(emissions, *self.params.values(),
                                          tags, lengths, weights)
        for g, d in zip(self.grads.values(), d_head):
            g += d
        return nll, d_em

    def decode(self, emissions):
        """Viterbi (path, score) of one sequence's (T, K) emissions."""
        return viterbi_decode(emissions, *self.params.values())


class CrfModel(ModelBase):
    """A :class:`CrfHead` over a per-tag linear emission map of features.

    It registers the head's arrays as its own, not as a child's, so its
    parameters have flat names: the head's ``transitions``, ``start``
    and ``stop``, then ``emit_w`` (F, K) and ``emit_b`` (K).
    """

    def __init__(self, n_tags, n_features):
        super().__init__()
        self.n_tags = n_tags
        self.n_features = n_features
        self.head = CrfHead(n_tags)
        for name, value in self.head.params.items():
            self._add_param(name, value, self.head.grads[name])
        self._add_param("emit_w", np.zeros((n_features, n_tags)))
        self._add_param("emit_b", np.zeros(n_tags))

    def emissions(self, features):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"expected features (T, {self.n_features}), got {features.shape}")
        return features @ self.params["emit_w"] + self.params["emit_b"]

    def nll_and_grad(self, features, gold_tags, lengths=None):
        """The NLL and ``grads``, which it overwrites with the NLL's.

        ``features`` (N, F) and ``gold_tags`` (N,) may pack several
        sequences, with ``lengths`` as in :func:`forward_backward`; the
        NLL and grads are then summed over the sequences.
        """
        features = np.asarray(features, dtype=np.float64)
        self.zero_grads()
        nll, d_em = self.head.nll_and_backward(self.emissions(features),
                                               gold_tags, lengths)
        self.grads["emit_w"][...] = features.T @ d_em
        self.grads["emit_b"][...] = d_em.sum(axis=0)
        return nll, self.grads

    def decode(self, features):
        return self.head.decode(self.emissions(features))


def train_crf(sequences, n_tags, epochs, lr, l2, batch_size, seed=0,
              **fit_kw):
    """Adam at the constant rate ``lr`` on the summed NLL of whole
    sequences plus L2, by :func:`training.fit` with ``fit_kw``.

    ``sequences`` is an iterable of (features (T, F), gold tag ids), all
    of one width F, the model's feature width.  A step packs up to
    ``batch_size`` sequences in their order in ``sequences``; ``seed``
    shuffles them into steps.  Returns (model, log).
    """
    sequences = [(np.asarray(f, dtype=np.float64), np.asarray(t)) for f, t in sequences]
    if not sequences:
        raise ValueError("no training sequences")
    first = sequences[0][0]
    for i, (feats, tags) in enumerate(sequences):
        if feats.ndim != 2 or feats.shape[1:] != first.shape[1:]:
            raise ValueError(f"sequence {i}: features of shape {feats.shape}; "
                             "each must be (T, F), with sequence 0's F")
        if len(tags) != len(feats):
            raise ValueError(f"sequence {i}: {len(tags)} tags for "
                             f"{len(feats)} feature rows")
    model = CrfModel(n_tags, first.shape[1])

    def loss_fn(idx):
        # in ascending order, a full batch packs the sequences as given,
        # whatever the shuffle, so its sums are those of one packed pass
        batch = [sequences[i] for i in np.sort(idx)]
        total, grads = model.nll_and_grad(
            np.concatenate([f for f, _ in batch]),
            np.concatenate([t for _, t in batch]), [len(t) for _, t in batch])
        for name, p in model.params.items():
            grads[name] += 2.0 * l2 * p
            total += l2 * float((p ** 2).sum())
        return total

    n = len(sequences)
    return model, fit(model, n, loss_fn,
                      RngState(seed).consumer("crf-shuffle"), epochs,
                      batch_size, lr, name="crf", one_cycle=False, **fit_kw)
