"""repro.kernels — NumPy-vectorized solver kernels.

The inner solvers of :mod:`repro.core` were written as literal,
per-miner transcriptions of the paper's KKT systems: readable,
bit-stable, and the reference oracle for every golden test — but each
best-response sweep costs ``n`` scalar best responses plus ``O(n)``
aggregate re-summation per miner.  This package provides drop-in
vectorized kernels behind the same APIs:

* :func:`batched_best_response` — all ``n`` miners' exact best
  responses in one shot: the closed-form Eq. (14) candidates, the
  edge-only marginal equation, and the complementary-slackness budget
  multiplier (Eq. 15) are all evaluated as array programs. The
  multiplier of a mixed response is Eq. (15) in closed form; only
  corner-bound lanes and the two-pool edge marginal fall back to
  vectorized monotone bisection.
* :func:`jacobi_sweep` — one simultaneous (Jacobi) best-response sweep
  built on the batched kernel: ``O(n)`` aggregate computation plus one
  batched solve, replacing ``n`` scalar solves.
* :func:`gauss_seidel_sweep_running` — the paper's asynchronous
  (Gauss–Seidel) sweep with running aggregates ``E``, ``S`` maintained
  incrementally: ``O(n)`` per sweep instead of the reference path's
  ``O(n^2)`` re-summation.  Within 1 ulp of — but not bit-identical
  to — the reference arithmetic (see ``docs/PERFORMANCE.md``).

Solvers select a kernel via their ``kernel=`` parameter
(:func:`repro.core.nep.solve_connected_equilibrium`,
:func:`repro.core.gnep.solve_standalone_equilibrium`, ...); the scalar
reference path remains the default everywhere except the serving
engine, and the equivalence suite in ``tests/kernels/`` pins the two
to each other within ``1e-9``.

:mod:`repro.kernels.typespace` extends the aggregate kernel to
**million-miner** populations: heterogeneous budgets are quantile-
compressed into ``k`` weighted types
(:mod:`repro.population.compress`), the type-space equilibrium is
solved at ``O(k)`` per consistency evaluation, and a certified
per-coordinate approximation bound is computed from bucket widths
(``docs/SCALING.md``); solvers opt in via ``n_types=``.

:mod:`repro.kernels.multiscenario` batches across the *scenario* axis:
``B`` independent games (a price sweep, a budget sweep, a serving
batch) are solved in one ``(B, n)`` array program with per-scenario
convergence masking, bit-identical to ``B`` separate
``kernel="vectorized"`` solves (``docs/PERFORMANCE.md``).  The solo
vectorized kernel is its ``B = 1`` special case, and the serving
engine's ``batch_mode="multiscenario"`` groups compatible cache misses
into these batched calls.
"""

from .batched_br import (BatchedBestResponse, batched_best_response,
                         gauss_seidel_sweep_running, jacobi_sweep)
from .bench import (BenchCaseResult, BenchReport, compare_reports,
                    load_report, run_bench, write_report)
from .multiscenario import (MULTISCENARIO_MAX_N, BatchAggregateSolution,
                            solve_aggregate_batch,
                            solve_connected_multiscenario)
from .typespace import TypeSpaceSolution, solve_connected_typespace

__all__ = [
    "BatchedBestResponse",
    "batched_best_response",
    "jacobi_sweep",
    "gauss_seidel_sweep_running",
    "TypeSpaceSolution",
    "solve_connected_typespace",
    "BatchAggregateSolution",
    "MULTISCENARIO_MAX_N",
    "solve_aggregate_batch",
    "solve_connected_multiscenario",
    "BenchCaseResult",
    "BenchReport",
    "run_bench",
    "compare_reports",
    "load_report",
    "write_report",
]
