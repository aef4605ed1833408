"""The scalar trial loop that the columnar kernel replaced, kept as its oracle.

`sample_trials` and `uniform_grid` are the loop every sampled path drew
through before `sampling._trial_columns`: one `trial_stream` Generator per
trial, the caller's pre-draws, `sample_branch_index` (loss, then cell), then
one polarizer draw on a kept trial that is checked. `scalar_columns` reads
that loop out in the kernel's column protocol, so a test can put it in the
kernel's place and compare what the callers make of the two.
"""

import math
from typing import Callable, Iterator

import numpy as np

from teleoptics.sampling import (
    DetectorModel,
    _snap,
    _whole,
    sample_branch_index,
    trial_stream,
)


def sample_trials(seed: int, n_trials: int, detector: DetectorModel,
                  setup: Callable, check: Callable | None = None) -> Iterator[tuple]:
    """The trial loop; yields (trial, context, branch index or None if lost,
    passed or None if unchecked).

    `setup(rng)` makes the caller's pre-draws and returns (context, branch
    pmf); `check(context, index)` gives a kept trial's pass probability, or
    None for no check.
    """
    n_trials = _whole("n_trials", n_trials, 1)
    for trial in range(n_trials):
        rng = trial_stream(seed, trial)
        context, probabilities = setup(rng)
        index = sample_branch_index(probabilities, detector, rng)
        passed = None
        if index is not None and check is not None:
            p = check(context, index)
            if p is not None:
                passed = bool(rng.random() < _snap(p))
        yield trial, context, index, passed


def uniform_grid(pmfs) -> Callable:
    """A setup drawing a row, then a column, uniformly from a grid of pmfs;
    the context is (row, column)."""
    def setup(rng: np.random.Generator):
        i = int(rng.integers(len(pmfs)))
        j = int(rng.integers(len(pmfs[i])))
        return (i, j), pmfs[i][j]
    return setup


def scalar_columns(seed: int, n_trials: int, detector: DetectorModel,
                   pmfs=None, lead=()) -> Iterator[tuple]:
    """`sampling._trial_columns` computed by the scalar loop, as one chunk.

    A callable `lead` is the per-trial setup; a 3-axis `pmfs` is a grid
    drawn by `uniform_grid`, as `chsh_scan` drew it; otherwise each span in
    `lead` is one `integers(span)` pre-draw that indexes no pmf. The
    polarizer draw is taken inside the loop, where the loop takes it for a
    checked trial; it is NaN on a lost trial.
    """
    if callable(lead):
        setup = lead
    elif np.ndim(pmfs) == 3:
        setup = uniform_grid(np.asarray(pmfs, dtype=float).tolist())
    else:
        def setup(rng: np.random.Generator):
            return tuple(int(rng.integers(span)) for span in lead), pmfs

    def staged(rng: np.random.Generator):
        context, probabilities = setup(rng)
        return [context, rng, math.nan], probabilities

    def check(stage, index: int) -> None:
        stage[2] = stage[1].random()
        return None

    stages, index = [], []
    for _, stage, i, _ in sample_trials(seed, n_trials, detector, staged, check):
        stages.append(stage)
        index.append(-1 if i is None else i)
    contexts = [context for context, _, _ in stages]
    if callable(lead):
        columns = (contexts,)
    else:
        columns = tuple(np.array(column, dtype=np.intp) for column in zip(*contexts))
    yield 0, columns, np.array(index), np.array([u for _, _, u in stages])
