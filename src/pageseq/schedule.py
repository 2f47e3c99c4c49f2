"""Learning-rate schedules: one-cycle with cosine segments, and the
range test for picking a maximum learning rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

# one-cycle (Smith 2018): the share of the steps that warms up, and the
# divisors of max_lr at the first and the last step
WARMUP_FRACTION, START_DIV, FINAL_DIV = 0.3, 25.0, 1e4
SMOOTH_BETA, DIVERGE_FACTOR = 0.98, 4.0  # range test, see lr_range_test


@dataclass
class OneCycleSchedule:
    """Cosine warmup to max_lr, then cosine annealing.

    Anchors: lr(0) = max_lr/START_DIV, lr(peak) = max_lr,
    lr(total_steps-1) = max_lr/FINAL_DIV.
    """

    total_steps: int
    max_lr: float

    def __post_init__(self):
        if self.total_steps < 2:
            raise ValueError("one-cycle schedule needs at least 2 steps")
        self.peak_step = max(1, round(WARMUP_FRACTION * (self.total_steps - 1)))

    def lr(self, step: int) -> float:
        if not 0 <= step < self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps})")
        lo = self.max_lr / START_DIV
        if step <= self.peak_step:
            frac = step / self.peak_step
            return lo + (self.max_lr - lo) * 0.5 * (1 - math.cos(math.pi * frac))
        end = self.max_lr / FINAL_DIV
        frac = (step - self.peak_step) / (self.total_steps - 1 - self.peak_step)
        return end + (self.max_lr - end) * 0.5 * (1 + math.cos(math.pi * frac))


@dataclass
class RangeTestResult:
    lrs: list
    smoothed_losses: list
    raw_losses: list
    suggested_lr: float


def lr_range_test(loss_step, batches, lr_min, lr_max, steps) -> RangeTestResult:
    """Short training run with geometrically increasing learning rate.

    ``loss_step(batch, lr)`` performs one mini-batch update at the given
    rate and returns the batch loss.  Stops early once the smoothed loss
    exceeds ``DIVERGE_FACTOR`` times the best one seen; the smoothing is an
    exponential average with weight ``SMOOTH_BETA``, bias-corrected.  The
    suggested lr is the one at the steepest descent of the smoothed
    loss curve.
    """
    if lr_min >= lr_max:
        raise ValueError("lr_min must be < lr_max")
    if steps < 2:
        raise ValueError("range test needs at least 2 steps")
    ratio = (lr_max / lr_min) ** (1.0 / (steps - 1))
    lrs, smoothed, raw = [], [], []
    avg = 0.0
    best = math.inf
    it = iter(batches)
    for i in range(steps):
        try:
            batch = next(it)
        except StopIteration:
            break
        lr = lr_min * ratio ** i
        loss = float(loss_step(batch, lr))
        avg = SMOOTH_BETA * avg + (1 - SMOOTH_BETA) * loss
        s = avg / (1 - SMOOTH_BETA ** (i + 1))
        lrs.append(lr)
        raw.append(loss)
        smoothed.append(s)
        best = min(best, s)
        if s > DIVERGE_FACTOR * best:
            break
    if len(lrs) < 2:
        raise ValueError("range test produced fewer than 2 points")
    # steepest descent of smoothed loss per log-lr step
    drops = [smoothed[i + 1] - smoothed[i] for i in range(len(smoothed) - 1)]
    suggested = lrs[min(range(len(drops)), key=drops.__getitem__)]
    return RangeTestResult(lrs, smoothed, raw, suggested)
