"""Linear-chain conditional random field over per-page feature vectors.

Core routines operate on an emission matrix (T, K) plus transition
scores.  Forward-backward and the NLL gradient also take a batch of
sequences packed into one (N, K) matrix plus their lengths, and run the
recursion once for the whole batch over a padded view.
:class:`CrfModel` adds a linear emission map over F-dim input features
and is what the fusion + CRF pipeline trains.  Brute-force
counterparts (exhaustive path enumeration) are provided for small K, T
and are used as oracles by the test suite.
"""

from __future__ import annotations

import itertools

import numpy as np

from .optim import Adam
from .tensor import log_sum_exp, packing, softmax


def sequence_score(emissions, transitions, start, stop, tags, lengths=None):
    """Log-score of a tag path: emissions + transitions + start/stop.

    Packed emissions (N, K) and tags (N,) of several sequences, named by
    ``lengths`` as in :func:`forward_backward`, give the summed score.
    """
    emissions = np.asarray(emissions)
    tags = np.asarray(tags)
    n_rows = emissions.shape[0]
    if tags.shape != (n_rows,):
        raise ValueError("tags length does not match emissions")
    if tags.min() < 0 or tags.max() >= emissions.shape[1]:
        raise IndexError("tag out of range")
    _, firsts, lasts, pairs = packing(n_rows, lengths)
    score = (start[tags[firsts]].sum() + emissions[np.arange(n_rows), tags].sum()
             + stop[tags[lasts]].sum() + transitions[tags[pairs], tags[pairs + 1]].sum())
    return float(score)


def forward_log_partition(emissions, transitions, start, stop):
    """log sum over all K^T paths of exp(score), by the forward recursion."""
    emissions = np.asarray(emissions)
    alpha = start + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha = emissions[t] + log_sum_exp(alpha[:, None] + transitions, axis=0)
    return float(log_sum_exp(alpha + stop))


def forward_backward(emissions, transitions, start, stop, lengths=None):
    """Posterior marginals of a batch of sequences, packed.

    ``emissions`` is (N, K): the rows of every sequence concatenated, with
    ``lengths`` giving each sequence's row count (one sequence when it is
    omitted).  The recursions run once over a padded (B, T_max, K) view;
    rows past a sequence's end are computed but never read.  Returns the
    unary marginals (N, K), the expected transition counts (K, K) summed
    over the batch, and the summed log partition.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n_rows, k = emissions.shape
    lengths, _, _, pairs = packing(n_rows, lengths)
    n_seq, t_max = lengths.size, int(lengths.max())
    valid = np.arange(t_max) < lengths[:, None]
    em = np.zeros((n_seq, t_max, k), dtype=np.float64)
    em[valid] = emissions
    alphas = np.empty_like(em)
    alphas[:, 0] = start + em[:, 0]
    for t in range(1, t_max):
        alphas[:, t] = em[:, t] + log_sum_exp(
            alphas[:, t - 1, :, None] + transitions, axis=1)
    # betas[:, t] is the recursion's value, except at each sequence's last row
    betas = np.empty_like(em)
    betas[:, -1] = stop
    ends = lengths - 1
    for t in range(t_max - 2, -1, -1):
        betas[:, t] = log_sum_exp(
            transitions + (em[:, t + 1] + betas[:, t + 1])[:, None, :], axis=2)
        betas[ends == t, t] = stop
    log_z = log_sum_exp(alphas[np.arange(n_seq), ends] + stop, axis=1)
    row_log_z = np.repeat(log_z, lengths)[:, None]
    alphas, betas = alphas[valid], betas[valid]
    unary = np.exp(alphas + betas - row_log_z)
    joint = (alphas[pairs, :, None] + transitions
             + (emissions[pairs + 1] + betas[pairs + 1])[:, None, :])
    pairwise = np.exp(joint - row_log_z[pairs, :, None]).sum(axis=0)
    return unary, pairwise, float(log_z.sum())


def nll_and_grad(emissions, transitions, start, stop, gold_tags, lengths=None):
    """CRF negative log-likelihood and gradients via expected counts.

    Takes packed emissions (N, K) and gold tags (N,) of the sequences
    named by ``lengths``, as :func:`forward_backward` does.  Returns
    (nll, d_emissions, d_transitions, d_start, d_stop), each summed over
    the sequences.
    """
    emissions, gold_tags = np.asarray(emissions), np.asarray(gold_tags)
    n_rows = emissions.shape[0]
    packed = packing(n_rows, lengths)
    gold = sequence_score(emissions, transitions, start, stop, gold_tags, packed)
    unary, pairwise, log_z = forward_backward(emissions, transitions, start,
                                              stop, packed)
    d_em = unary
    d_em[np.arange(n_rows), gold_tags] -= 1.0
    d_trans = pairwise
    pairs = packed.pairs
    np.subtract.at(d_trans, (gold_tags[pairs], gold_tags[pairs + 1]), 1.0)
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


def brute_force_log_partition(emissions, transitions, start, stop):
    """Exhaustive enumeration over all K^T paths; oracle for small instances."""
    scores = _all_path_scores(emissions, transitions, start, stop)
    return float(log_sum_exp(np.array(scores)))


def brute_force_decode(emissions, transitions, start, stop):
    """Exhaustive argmax; returns (best path, best score).

    Paths are enumerated in lexicographic order, so on exact ties the
    lexicographically smallest optimal path is returned.
    """
    emissions = np.asarray(emissions)
    t_len, k = emissions.shape
    best_path, best_score = None, -np.inf
    for tags in itertools.product(range(k), repeat=t_len):
        s = sequence_score(emissions, transitions, start, stop, np.array(tags))
        if s > best_score:
            best_score, best_path = s, list(tags)
    return best_path, float(best_score)


def brute_force_marginals(emissions, transitions, start, stop):
    """Posterior unary marginals by direct enumeration."""
    emissions = np.asarray(emissions)
    t_len, k = emissions.shape
    scores = []
    paths = list(itertools.product(range(k), repeat=t_len))
    for tags in paths:
        scores.append(sequence_score(emissions, transitions, start, stop, np.array(tags)))
    probs = softmax(np.array(scores))
    unary = np.zeros((t_len, k))
    for p, tags in zip(probs, paths):
        for t, tag in enumerate(tags):
            unary[t, tag] += p
    return unary


def _all_path_scores(emissions, transitions, start, stop):
    emissions = np.asarray(emissions)
    t_len, k = emissions.shape
    return [
        sequence_score(emissions, transitions, start, stop, np.array(tags))
        for tags in itertools.product(range(k), repeat=t_len)
    ]


class CrfModel:
    """Transitions plus a per-tag linear emission map over input features."""

    def __init__(self, n_tags, n_features, dtype=np.float64):
        self.n_tags = n_tags
        self.n_features = n_features
        self.params = {
            "transitions": np.zeros((n_tags, n_tags), dtype=dtype),
            "start": np.zeros(n_tags, dtype=dtype),
            "stop": np.zeros(n_tags, dtype=dtype),
            "emit_w": np.zeros((n_features, n_tags), dtype=dtype),
            "emit_b": np.zeros(n_tags, dtype=dtype),
        }

    def state_dict(self):
        return self.params

    def emissions(self, features):
        features = np.asarray(features, dtype=self.params["emit_w"].dtype)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"expected features (T, {self.n_features}), got {features.shape}")
        return features @ self.params["emit_w"] + self.params["emit_b"]

    def sequence_score(self, features, tags):
        p = self.params
        return sequence_score(self.emissions(features), p["transitions"],
                              p["start"], p["stop"], tags)

    def log_partition(self, features):
        p = self.params
        return forward_log_partition(self.emissions(features), p["transitions"],
                                     p["start"], p["stop"])

    def nll_and_grad(self, features, gold_tags, lengths=None):
        """NLL plus grads for every parameter and the input features.

        ``features`` (N, F) and ``gold_tags`` (N,) may pack several
        sequences, with ``lengths`` as in :func:`forward_backward`; the
        NLL and parameter grads are then summed over the sequences.
        """
        features = np.asarray(features, dtype=self.params["emit_w"].dtype)
        p = self.params
        em = self.emissions(features)
        nll, d_em, d_trans, d_start, d_stop = nll_and_grad(
            em, p["transitions"], p["start"], p["stop"], gold_tags, lengths)
        grads = {
            "transitions": d_trans,
            "start": d_start,
            "stop": d_stop,
            "emit_w": features.T @ d_em,
            "emit_b": d_em.sum(axis=0),
        }
        d_features = d_em @ p["emit_w"].T
        return nll, grads, d_features

    def decode(self, features):
        p = self.params
        return viterbi_decode(self.emissions(features), p["transitions"],
                              p["start"], p["stop"])


def train_crf(sequences, n_tags, n_features, epochs=50, lr=0.05,
              l2=1e-4, verbose=False):
    """Full-batch Adam on the summed NLL of whole sequences plus L2.

    ``sequences`` is an iterable of (features (T, F), gold tag ids).
    """
    sequences = [(np.asarray(f, dtype=np.float64), np.asarray(t)) for f, t in sequences]
    if not sequences:
        raise ValueError("no training sequences")
    for feats, tags in sequences:
        if feats.shape[0] == 0:
            raise ValueError("empty sequence")
        if feats.shape[1] != n_features:
            raise ValueError(f"feature dim {feats.shape[1]} != {n_features}")
        if len(tags) != feats.shape[0]:
            raise ValueError("tags length mismatch")
    # one packed batch: an epoch is one emission GEMM and one forward-backward
    features = np.concatenate([f for f, _ in sequences])
    tags = np.concatenate([t for _, t in sequences])
    lengths = [len(t) for _, t in sequences]
    model = CrfModel(n_tags, n_features)
    opt = Adam(model.params)
    history = []
    for _ in range(epochs):
        total, grads, _ = model.nll_and_grad(features, tags, lengths)
        for k in grads:
            grads[k] += 2.0 * l2 * model.params[k]
            total += l2 * float((model.params[k] ** 2).sum())
        opt.step(grads, lr)
        history.append(total)
        if verbose:
            print(f"crf loss {total:.4f}")
    return model, history
