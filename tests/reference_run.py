"""The per-trial trial loop, kept as a test oracle.

`run` draws and scores one trial at a time with the property's single
margin, keeps the first worst trial and skips a trial whose sample
Sinkhorn cannot biregularize. It is the straightforward form of what
`sidlab.testers._run` computes in one batched pass; installed in its
place, every tester reports through it.
"""

from __future__ import annotations

from sidlab import testers


def run(name, sample, trials, seed, tol):
    margin = testers.PROPERTIES[name].margin
    worst = None
    tried = skipped = 0
    for trial in range(trials):
        try:
            instance = sample(testers._trial_rng(seed, trial))
        except testers.SinkhornError:
            skipped += 1
            continue
        m = margin(*instance)
        tried += 1
        if worst is None or m < worst[0]:
            worst = (m, trial, instance)
    if worst is None:
        return testers.TestReport(name, testers.HOLDS, 0, 0.0, None, seed, tol, skipped)
    m, trial, instance = worst
    return testers._report(name, m, instance, tried, seed, tol, skipped, trial=trial)
