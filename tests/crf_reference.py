"""CRF oracles: exhaustive path enumeration, and the forward recursion
and the forward-backward in log space.

The brute-force routines enumerate all K^T tag paths, so they serve
only small K and T.  :func:`forward_log_partition` is the textbook
forward recursion over one sequence, with no length limit.

``crf.forward_backward`` used to run both recursions in log space over
the padded (B, T_max, K) grid: one ``log_sum_exp`` over a (B, K, K)
cube per step and direction, and the expected transition counts from a
(P, K, K) cube of pair log-scores.  That code is kept here, unchanged,
as an oracle for the scaled recursion in probability space.  It has no
dynamic-range limit, so it also shows where the scaled one must agree.
``log_sum_exp``, which only these oracles use, is kept here with them.
"""

import itertools

import numpy as np

from pageseq.crf import sequence_score
from pageseq.tensor import packing, softmax


def log_sum_exp(x, axis=-1):
    """log(sum(exp(x))) with max-subtraction stabilization.

    Works on the given axis; a 1-d input with the default axis returns a
    scalar.  Empty inputs are a domain error.
    """
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("log_sum_exp of empty input")
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def forward_backward(emissions, transitions, start, stop, lengths=None):
    """Unary marginals (N, K), summed expected transition counts (K, K)
    and the summed log partition of packed sequences."""
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


def forward_log_partition(emissions, transitions, start, stop):
    """log sum over all K^T paths of exp(score), by the forward recursion
    in log space, for one (T, K) sequence."""
    emissions = np.asarray(emissions)
    alpha = start + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha = emissions[t] + log_sum_exp(alpha[:, None] + transitions, axis=0)
    return float(log_sum_exp(alpha + stop))


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
