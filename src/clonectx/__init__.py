"""Workbench for the contextuality analysis of state-dependent quantum cloning.

Modules by concern; ``cloner``, ``ontic`` and ``scan`` import only ``bounds``,
``quantum`` only ``bounds`` and ``cloner``.  Every module computes on
Python floats, with :mod:`math`; no module imports numpy, and every
record is a named tuple:

* :mod:`clonectx.bounds`  -- closed-form fidelities, noncontextual ceilings,
  depolarizing-noise error budgets and observed confusabilities, and the
  names of the experiment's preparations, tests and mixing equivalences.
* :mod:`clonectx.cloner`  -- the two-copy frame and the independent search
  for the optimal clone outputs.
* :mod:`clonectx.quantum` -- finite-dimensional simulation of the noisy
  cloning experiment (density operators, channels, Born rule, the closed-form
  clone outputs as real kets).
* :mod:`clonectx.ontic`   -- ontological models on a partition into cells,
  the bound-saturating model, sandwich residuals and margins.
* :mod:`clonectx.scan`    -- parameter sweeps, violation intervals and
  figure-data series writers.
* :mod:`clonectx.cli`     -- command-line front end.
"""

__version__ = "0.1.0"
