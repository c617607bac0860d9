"""Cross-scenario batched aggregate kernel for the connected-mode NEP.

The paper's headline figures are *sweeps*: the same miner game solved at
dozens of nearby ``(price, fork-rate, budget)`` points.  The aggregate
kernel of :mod:`repro.kernels.aggregate` already makes one solve
``O(n)`` per consistency evaluation, but a sweep still pays the full
root-finding iteration count ``B`` times over — and at small ``n`` the
per-evaluation work is far too little to amortize Python dispatch, which
is exactly why ``BENCH_solvers.json`` shows the vectorized kernel losing
to the scalar sweeps at ``n = 8``.

This module batches the *scenario* axis instead.  ``B`` independent
games are stacked into ``(B, n)`` arrays (types become ``(B, k)`` via
the same ``weights`` hook as the type-space kernel) and every stage of
the aggregate solve runs across all scenarios at once:

* the two consistency roots are found by a **vectorized masked ITP
  iteration** (interpolate–truncate–project: superlinear like Brent on
  the well-behaved excess curves, with bisection's worst-case guarantee)
  whose active set shrinks as scenarios converge;
* the per-miner budget multipliers of *all* scenarios' over-budget lanes
  are resolved in one flattened bracket-and-bisect pass;
* every bracketing, bisection, and ITP update is **per-lane frozen**: a
  converged lane's state is never rewritten by the extra iterations its
  batch neighbors need.  Batch composition therefore cannot perturb a
  scenario's result — solving ``[A, B, C]`` together is bit-identical
  to solving each alone, and :mod:`repro.kernels.aggregate` delegates
  its single-scenario path to this kernel with ``B = 1`` so
  ``kernel="vectorized"`` *is* the batch-of-one special case.

Per-scenario failure stays per-scenario: a diverging budget-multiplier
bracket marks that scenario ``failed`` instead of aborting the batch
(the ``B = 1`` wrapper re-raises it as the usual
:class:`~repro.exceptions.ConvergenceError`).

:func:`solve_connected_multiscenario` is the solver-level entry point:
it answers mixed-region scenarios from the certified closed form
(:func:`repro.core.nep.separable_equilibrium`), batches the aggregate
solves of the rest, then certifies each of those with the same exact
Jacobi best-response sweep as
:func:`repro.core.nep.solve_connected_equilibrium`'s vectorized path,
returning ``None`` for any scenario whose verification residual misses
tolerance (callers fall back to the per-scenario solver, so batching
never degrades accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BatchAggregateSolution", "MULTISCENARIO_MAX_N",
           "solve_aggregate_batch", "solve_connected_multiscenario"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.nep import MinerEquilibrium
    from ..core.params import GameParameters, Prices

#: Largest miner count at which cross-scenario batching is a measured
#: win.  Batching amortizes per-solve dispatch, which dominates at
#: small ``n``; by ``n ~ 768`` a solo ``(n,)`` aggregate solve is
#: already bandwidth-efficient and the lockstep ``(B, n)`` iteration
#: (converged lanes ride along until the active set drops them) turns
#: into pure overhead — ~3.6x faster at ``n=256``, ~1.15x at ``n=512``,
#: ~0.8x (slower) at ``n=768`` on the 64-scenario bench grid.  Both
#: kernels stay bit-identical at every ``n``; auto-batching callers
#: (the serving engine, the bench twins) respect this bound, direct
#: calls may exceed it.
MULTISCENARIO_MAX_N = 512

#: Budget slack below which the constraint is treated as free (the
#: scalar kernel's ``_TOL``).
_TOL = 1e-13

#: Bisection sweeps for the per-miner budget multipliers.
_LAM_SWEEPS = 110

#: Hard cap on masked ITP iterations.  ITP's worst case is plain
#: bisection — ~60 halvings to collapse any double-precision bracket —
#: so this is a generous safety margin, not a tuning knob.
_ITP_MAX_ITERS = 220

#: ITP truncation gain ``kappa_1 = 0.2 / (b0 - a0)`` (the reference
#: parameterization of Oliveira & Takahashi 2020), ``kappa_2 = 2``.
_ITP_K1_SCALE = 0.2

# A callback evaluating the (per-lane decreasing) excess function at
# compressed points ``x`` for the active lanes ``act`` (indices into
# the root-finder's lane axis).
_ExcessFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _wsum_rows(values: np.ndarray,
               weights: Optional[np.ndarray]) -> np.ndarray:
    """Row-wise ``Σ values`` (unweighted) or ``Σ w · values``.

    ``np.sum(..., axis=1)`` on a ``(m, n)`` stack performs the same
    pairwise reduction per row as the 1-D sum the solo kernel takes, so
    the batched totals are bit-identical to the per-scenario ones.
    """
    if weights is None:
        return np.sum(values, axis=1)
    return np.sum(weights * values, axis=1)


def _itp_root(f: _ExcessFn, lo: np.ndarray, hi: np.ndarray,
              f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Vectorized masked ITP root-finding on per-lane brackets.

    Finds the root of a per-lane *decreasing* function ``f`` inside
    ``[lo, hi]`` (``f_lo > 0 > f_hi``) for every lane simultaneously.
    Each iteration evaluates ``f`` once on the shrinking active set;
    converged lanes are frozen, so a lane's trajectory — and hence its
    root bits — is independent of what else shares the batch.

    Convergence is "exact" in the brentq ``xtol=1e-30`` sense: a lane
    finishes when its bracket midpoint collides with an endpoint, i.e.
    the bracket has collapsed to adjacent doubles (or an evaluation
    hits 0 exactly).
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    fa = np.array(f_lo, dtype=float, copy=True)
    fb = np.array(f_hi, dtype=float, copy=True)
    lanes = a.shape[0]
    if lanes == 1:
        # Scalar fast path: every float64 operation below corresponds
        # 1:1 to an elementwise operation of the array path, so the
        # root bits are identical — this only strips numpy dispatch
        # overhead from single-lane (B = 1 / deep-nested) brackets.
        return np.array([_itp_root_scalar(f, float(a[0]), float(b[0]),
                                          float(fa[0]), float(fb[0]))])
    width0 = b - a
    k1 = _ITP_K1_SCALE / width0
    eps_x = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    # Iterations a pure bisection would need to reach ~eps_x brackets;
    # ITP is guaranteed to do no worse than nmax = nbisect + n0 (n0=1).
    # Computed through math.log2 (not np.log2, whose SIMD path may
    # round differently) so the scalar fast path below sees the exact
    # same projection radii as this array path.
    n_max = np.array([
        math.ceil(math.log2(max(w / (2.0 * ex), 1.0))) + 1.0
        for w, ex in zip(width0.tolist(), eps_x.tolist())])
    root = 0.5 * (a + b)
    done = np.zeros(lanes, dtype=bool)
    for j in range(_ITP_MAX_ITERS):
        mid = 0.5 * (a + b)
        exhausted = ~done & ((mid <= a) | (mid >= b))
        root = np.where(exhausted, mid, root)
        done |= exhausted
        act = np.nonzero(~done)[0]
        if act.size == 0:
            break
        if act.size == lanes:
            aa, bb, mm, faa, fbb = a, b, mid, fa, fb
            k1a, epsa, nma = k1, eps_x, n_max
        else:
            aa = a[act]
            bb = b[act]
            mm = mid[act]
            faa = fa[act]
            fbb = fb[act]
            k1a = k1[act]
            epsa = eps_x[act]
            nma = n_max[act]
        # Interpolate (regula falsi), truncate toward the midpoint,
        # project into the bisection-guarantee interval of radius r.
        xf = (bb * faa - aa * fbb) / (faa - fbb)
        sigma = np.sign(mm - xf)
        delta = k1a * (bb - aa) * (bb - aa)
        xt = np.where(delta <= np.abs(mm - xf), xf + sigma * delta, mm)
        r = (epsa * np.exp2(np.minimum(
            np.maximum(nma - j, 0.0), 1023.0)) - 0.5 * (bb - aa))
        r = np.maximum(r, 0.0)
        x = np.where(np.abs(xt - mm) <= r, xt, mm - sigma * r)
        x = np.minimum(np.maximum(x, np.nextafter(aa, bb)),
                       np.nextafter(bb, aa))
        fx = f(x, act)
        neg = fx < 0.0
        pos = fx > 0.0
        hit = ~neg & ~pos  # exact zero (or a non-finite lane: freeze it)
        b[act[neg]] = x[neg]
        fb[act[neg]] = fx[neg]
        a[act[pos]] = x[pos]
        fa[act[pos]] = fx[pos]
        if hit.any():
            root[act[hit]] = x[hit]
            done[act[hit]] = True
    return np.where(done, root, 0.5 * (a + b))


#: Cached single-lane index for the scalar ITP fast path.
_LANE0 = np.arange(1)


def _itp_root_scalar(f: _ExcessFn, a: float, b: float,
                     fa: float, fb: float) -> float:
    """Single-lane ITP in pure Python floats (see :func:`_itp_root`).

    Bit-identical to the array path: ``math.ulp``/``math.nextafter``
    match ``np.spacing``/``np.nextafter`` on finite positives, exact
    powers of two are exact in both ``2.0 ** k`` and ``np.exp2``, and
    every other operation is the same IEEE-754 double arithmetic.
    """
    width0 = b - a
    k1 = _ITP_K1_SCALE / width0
    eps_x = math.ulp(max(abs(a), abs(b)))
    n_max = math.ceil(math.log2(max(width0 / (2.0 * eps_x), 1.0))) + 1.0
    for j in range(_ITP_MAX_ITERS):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return mid
        xf = (b * fa - a * fb) / (fa - fb)
        dm = mid - xf
        sigma = 1.0 if dm > 0.0 else (-1.0 if dm < 0.0 else 0.0)
        delta = k1 * (b - a) * (b - a)
        xt = xf + sigma * delta if delta <= abs(dm) else mid
        r = eps_x * 2.0 ** min(max(n_max - j, 0.0), 1023.0) \
            - 0.5 * (b - a)
        r = max(r, 0.0)
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        x = min(max(x, math.nextafter(a, b)), math.nextafter(b, a))
        fx = float(f(np.array([x]), _LANE0)[0])
        if fx < 0.0:
            b, fb = x, fx
        elif fx > 0.0:
            a, fa = x, fx
        else:
            return x
    return 0.5 * (a + b)


def _lane_responses(S: np.ndarray, E: np.ndarray, lam: np.ndarray,
                    a_e0: np.ndarray, a_c0: np.ndarray,
                    p_e: np.ndarray, p_c: np.ndarray,
                    A: np.ndarray, Bm: np.ndarray,
                    AB: np.ndarray, ASBE: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-miner KKT responses at totals ``(S, E)``, multipliers ``λ``.

    Shape-generic: callers pass ``(m, 1)`` per-scenario columns against
    ``(m, n)`` lane arrays, or flat per-lane vectors — every operation
    is elementwise, which is what makes the batch bit-identical to the
    scenario-at-a-time evaluation.  The coefficients that depend only
    on the totals — ``A = ks/S²``, ``Bm = kg/E²``, ``AB = A + Bm``,
    ``ASBE = A·S + Bm·E`` — are hoisted to the caller because the
    budget-multiplier search evaluates this function dozens of times at
    fixed ``(S, E)``.

    Mirrors the scalar ``_candidate`` branch order: a non-positive
    effective premium forces edge-only; otherwise the interior linear
    system is tried and negative coordinates drop to the cloud-only or
    edge-only corner (``e < 0`` checked before ``c < 0``).
    """
    a_c = a_c0 + lam * p_c
    a_e = a_e0 + lam * p_e
    da = a_e - a_c
    s_int = S - a_c / A
    e_int = E - da / Bm
    c_int = s_int - e_int
    cloud = (da > 0.0) & (e_int < 0.0)
    edge = (da <= 0.0) | ((da > 0.0) & (e_int >= 0.0) & (c_int < 0.0))
    e = np.where(cloud | edge, 0.0, np.maximum(e_int, 0.0))
    c = np.where(cloud, np.maximum(s_int, 0.0),
                 np.where(edge, 0.0, np.maximum(c_int, 0.0)))
    if edge.any():
        e_eo = (ASBE - a_e) / AB
        e = np.where(edge, np.maximum(e_eo, 0.0), e)
    return e, c


def _lane_responses_scalar(S: float, E: float, a_e0: float, a_c0: float,
                           A: float, Bm: float, AB: float, ASBE: float
                           ) -> Tuple[float, float]:
    """Zero-``λ`` KKT response in pure Python floats.

    At ``λ = 0`` every miner faces identical effective prices, so the
    response is one scalar computation; this mirrors
    :func:`_lane_responses` branch for branch (no NaN can reach the
    ``max``/``np.maximum`` seam: all inputs are finite and the
    coefficients positive), making it bit-identical to evaluating the
    array path and reading any one lane.
    """
    da = a_e0 - a_c0
    s_int = S - a_c0 / A
    e_int = E - da / Bm
    c_int = s_int - e_int
    cloud = da > 0.0 and e_int < 0.0
    edge = da <= 0.0 or (da > 0.0 and e_int >= 0.0 and c_int < 0.0)
    if edge:
        return max((ASBE - a_e0) / AB, 0.0), 0.0
    if cloud:
        return 0.0, max(s_int, 0.0)
    return max(e_int, 0.0), max(c_int, 0.0)


def _budget_responses_single(S: np.ndarray, E: np.ndarray,
                             budgets: np.ndarray, q_e: np.ndarray,
                             q_c: np.ndarray, ks: np.ndarray,
                             kg: np.ndarray, p_e: np.ndarray,
                             p_c: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        Optional[np.ndarray]]:
    """Single-scenario specialization of :func:`_budget_responses`.

    The batched path broadcasts ``(m, 1)`` scenario columns against
    ``(m, n)`` lane arrays; at ``m = 1`` those columns are scalars and
    the zero-``λ`` pass collapses to one float computation (miners
    differ only through their budget multipliers).  Scalar-vs-column
    broadcasting performs the same IEEE-754 operations, so this path is
    bit-identical to the general one — it exists purely to strip numpy
    dispatch overhead from solo (``B = 1``) solves and from batches
    whose active set has shrunk to one scenario.
    """
    s = float(S[0])
    ev = float(E[0])
    A = float(ks[0]) / (s * s)
    Bm = float(kg[0]) / (ev * ev)
    AB = A + Bm
    ASBE = A * s + Bm * ev
    qe = float(q_e[0])
    qc = float(q_c[0])
    pe = float(p_e[0])
    pc = float(p_c[0])
    e0, c0 = _lane_responses_scalar(s, ev, qe, qc, A, Bm, AB, ASBE)
    spend0 = pe * e0 + pc * c0
    b = budgets[0]
    over = spend0 > b + _TOL
    e = np.full(b.shape, e0)
    c = np.full(b.shape, c0)
    if not over.any():
        return e[None, :], c[None, :], None
    bb = b[over]

    def lane_spend(lam: np.ndarray) -> np.ndarray:
        es, cs = _lane_responses(s, ev, lam, qe, qc, pe, pc,
                                 A, Bm, AB, ASBE)
        return pe * es + pc * cs

    lo = np.zeros_like(bb)
    hi = np.ones_like(bb)
    dead = np.zeros(bb.shape, dtype=bool)
    broke = False
    for _ in range(70):
        grow = (lane_spend(hi) > bb) & ~dead
        if not grow.any():
            broke = True
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
        blown = hi > 1e18
        if blown.any():
            dead |= blown
            hi = np.where(blown, 1e18, hi)
    if not broke:
        dead |= (lane_spend(hi) > bb)
    done = dead.copy()
    for _ in range(_LAM_SWEEPS):
        mid = 0.5 * (lo + hi)
        done |= (mid <= lo) | (mid >= hi)
        if done.all():
            break
        act = ~done
        high = act & (lane_spend(mid) > bb)
        lo = np.where(high, mid, lo)
        hi = np.where(act & ~high, mid, hi)
    es, cs = _lane_responses(s, ev, 0.5 * (lo + hi), qe, qc, pe, pc,
                             A, Bm, AB, ASBE)
    e[over] = es
    c[over] = cs
    if dead.any():
        return e[None, :], c[None, :], np.array([True])
    return e[None, :], c[None, :], None


def _budget_responses(S: np.ndarray, E: np.ndarray, budgets: np.ndarray,
                      q_e: np.ndarray, q_c: np.ndarray,
                      ks: np.ndarray, kg: np.ndarray,
                      p_e: np.ndarray, p_c: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray,
                                 Optional[np.ndarray]]:
    """Responses at totals ``(S, E)`` with budget multipliers resolved.

    All scenarios' over-budget lanes are flattened into one vector and
    share the bracket-doubling + bisection passes; both loops freeze a
    lane the moment it stops moving, so each lane's multiplier bits
    match the lane-alone computation regardless of batch company.

    Returns ``(e, c, bad)`` where ``bad`` (or ``None``) flags scenarios
    whose multiplier bracket diverged — the per-scenario analogue of
    the solo kernel's :class:`ConvergenceError`.
    """
    if S.shape[0] == 1:
        return _budget_responses_single(S, E, budgets, q_e, q_c, ks, kg,
                                        p_e, p_c)
    zero = np.zeros_like(budgets)
    col = (slice(None), None)
    Sc = S[col]
    Ec = E[col]
    A = ks[col] / (Sc * Sc)
    Bm = kg[col] / (Ec * Ec)
    AB = A + Bm
    ASBE = A * Sc + Bm * Ec
    e, c = _lane_responses(Sc, Ec, zero, q_e[col], q_c[col],
                           p_e[col], p_c[col], A, Bm, AB, ASBE)
    spend = p_e[col] * e + p_c[col] * c
    over = spend > budgets + _TOL
    if not over.any():
        return e, c, None
    si, _ = np.nonzero(over)
    bb = budgets[over]
    Sl = S[si]
    El = E[si]
    qel = q_e[si]
    qcl = q_c[si]
    pel = p_e[si]
    pcl = p_c[si]
    Al = A[si, 0]
    Bml = Bm[si, 0]
    ABl = AB[si, 0]
    ASBEl = ASBE[si, 0]

    def lane_spend(lam: np.ndarray) -> np.ndarray:
        es, cs = _lane_responses(Sl, El, lam, qel, qcl, pel, pcl,
                                 Al, Bml, ABl, ASBEl)
        return pel * es + pcl * cs

    lo = np.zeros_like(bb)
    hi = np.ones_like(bb)
    dead = np.zeros(bb.shape, dtype=bool)
    broke = False
    for _ in range(70):
        grow = (lane_spend(hi) > bb) & ~dead
        if not grow.any():
            broke = True
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
        blown = hi > 1e18
        if blown.any():
            dead |= blown
            hi = np.where(blown, 1e18, hi)
    if not broke:
        dead |= (lane_spend(hi) > bb)
    done = dead.copy()
    for _ in range(_LAM_SWEEPS):
        mid = 0.5 * (lo + hi)
        done |= (mid <= lo) | (mid >= hi)
        if done.all():
            break
        act = ~done
        high = act & (lane_spend(mid) > bb)
        lo = np.where(high, mid, lo)
        hi = np.where(act & ~high, mid, hi)
    es, cs = _lane_responses(Sl, El, 0.5 * (lo + hi), qel, qcl,
                             pel, pcl, Al, Bml, ABl, ASBEl)
    e[over] = es
    c[over] = cs
    if dead.any():
        bad = np.zeros(S.shape[0], dtype=bool)
        bad[si[dead]] = True
        return e, c, bad
    return e, c, None


def _single_pool_batch(gi: np.ndarray, k_tot: np.ndarray, a: np.ndarray,
                       caps: np.ndarray, weights: Optional[np.ndarray],
                       evals: np.ndarray) -> np.ndarray:
    """Consistency roots of a batch of one-pool aggregative games.

    Every miner plays ``s_i(T) = clip(T - a T²/k_tot, 0, cap_i)``
    against its scenario's total ``T``; returns the profiles at the
    totals solving ``Σ s_i(T) = T`` per scenario (``Σ s_i(T)/T`` is
    decreasing in ``T``, so each excess response is single-crossing).
    ``gi`` maps the local batch rows to global scenario indices for
    evaluation counting.
    """
    t_hi = k_tot / a
    m = k_tot.shape[0]

    def excess(tv: np.ndarray, sub: np.ndarray) -> np.ndarray:
        # Full-set fast path: fancy indexing with the identity subset
        # is a bit-identical no-op, so skip the copies it would make.
        if sub.size == m:
            a_s, k_s, caps_s, w = a, k_tot, caps, weights
            evals[gi] += 1
        else:
            a_s, k_s, caps_s = a[sub], k_tot[sub], caps[sub]
            w = None if weights is None else weights[sub]
            evals[gi[sub]] += 1
        tt = tv[:, None]
        pr = np.clip(tt - a_s[:, None] * tt * tt / k_s[:, None],
                     0.0, caps_s)
        return _wsum_rows(pr, w) - tv

    t_lo = t_hi * 1e-15
    f_lo = excess(t_lo, np.arange(m))
    out = np.zeros_like(caps)
    live = f_lo > 0.0
    if live.any():
        li = np.nonzero(live)[0]
        f_hi = excess(t_hi[li], li)
        t_star = _itp_root(lambda xv, act: excess(xv, li[act]),
                           t_lo[li], t_hi[li], f_lo[li], f_hi[li])
        tt = t_star[:, None]
        out[li] = np.clip(
            tt - a[li, None] * tt * tt / k_tot[li, None], 0.0, caps[li])
    return out


def _two_pool_batch(gi: np.ndarray, budgets: np.ndarray,
                    weights: Optional[np.ndarray], ks: np.ndarray,
                    kg: np.ndarray, q_e: np.ndarray, q_c: np.ndarray,
                    p_e: np.ndarray, p_c: np.ndarray,
                    e_out: np.ndarray, c_out: np.ndarray,
                    evals: np.ndarray, failed: np.ndarray) -> None:
    """General two-pool case: nested consistency roots, batched.

    The outer root is edge-total consistency ``Σ e_i(S(E), E) = E``;
    every outer evaluation solves the inner total-spending root
    ``Σ s_i(S, E) = S`` for its scenarios.  Both levels run the masked
    ITP iteration over whatever subset of scenarios is still active.
    Results are scattered into ``e_out``/``c_out`` at rows ``gi``.
    """
    m, _ = budgets.shape
    dq = q_e - q_c

    def totals_at(S: np.ndarray, E: np.ndarray, sub: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]:
        # Full-set fast path: fancy indexing with the identity subset
        # is a bit-identical no-op, so skip the copies it would make.
        if sub.size == m:
            b_s, qe_s, qc_s, ks_s, kg_s, pe_s, pc_s, w = (
                budgets, q_e, q_c, ks, kg, p_e, p_c, weights)
            evals[gi] += 1
        else:
            b_s, qe_s, qc_s, ks_s, kg_s, pe_s, pc_s = (
                budgets[sub], q_e[sub], q_c[sub], ks[sub], kg[sub],
                p_e[sub], p_c[sub])
            w = None if weights is None else weights[sub]
            evals[gi[sub]] += 1
        e, c, bad = _budget_responses(S, E, b_s, qe_s, qc_s, ks_s,
                                      kg_s, pe_s, pc_s)
        if bad is not None:
            failed[gi[sub[bad]]] = True
        e_tot = _wsum_rows(e, w)
        return e_tot, e_tot + _wsum_rows(c, w), e, c

    def inner_S(E: np.ndarray, sub: np.ndarray) -> np.ndarray:
        """Total-spending consistency roots ``S(E)`` (0 if none)."""
        p = sub.size
        hi = ks[sub] / q_c[sub]
        f_hi = np.empty(p)
        growing = np.ones(p, dtype=bool)
        for _ in range(200):
            g = np.nonzero(growing)[0]
            if g.size == 0:
                break
            _, s_tot, _, _ = totals_at(hi[g], E[g], sub[g])
            ex = s_tot - hi[g]
            stop = ex < 0.0
            f_hi[g[stop]] = ex[stop]
            growing[g[stop]] = False
            hi[g[~stop]] *= 2.0
        if growing.any():
            # Could not bracket total demand — per-scenario failure.
            failed[gi[sub[growing]]] = True
        lo = (ks[sub] / q_c[sub]) * 1e-15
        _, s_tot, _, _ = totals_at(lo, E, sub)
        f_lo = s_tot - lo
        s_root = np.zeros(p)
        live = (f_lo > 0.0) & ~growing
        if live.any():
            li = np.nonzero(live)[0]
            s_root[li] = _itp_root(
                lambda xv, act: (
                    totals_at(xv, E[li[act]], sub[li[act]])[1] - xv),
                lo[li], hi[li], f_lo[li], f_hi[li])
        return s_root

    def e_excess(E: np.ndarray, sub: np.ndarray) -> np.ndarray:
        S = inner_S(E, sub)
        out = np.empty(sub.size)
        nz = S > 0.0
        out[~nz] = -E[~nz]
        if nz.any():
            e_tot, _, _, _ = totals_at(S[nz], E[nz], sub[nz])
            out[nz] = e_tot - E[nz]
        return out

    e_hi = kg / dq
    f_ehi = np.empty(m)
    growing = np.ones(m, dtype=bool)
    for _ in range(200):
        g = np.nonzero(growing)[0]
        if g.size == 0:
            break
        ex = e_excess(e_hi[g], g)
        stop = ex < 0.0
        f_ehi[g[stop]] = ex[stop]
        growing[g[stop]] = False
        e_hi[g[~stop]] *= 2.0
    if growing.any():
        # Could not bracket edge demand — per-scenario failure.
        failed[gi[growing]] = True
    e_lo = (kg / dq) * 1e-15
    f_elo = e_excess(e_lo, np.arange(m))
    empty = (f_elo <= 0.0) & ~growing
    if empty.any():
        # Edge pool empty at equilibrium (possible only through budget
        # degeneracies); the cloud-only game remains one-dimensional.
        ei = np.nonzero(empty)[0]
        w = None if weights is None else weights[ei]
        c_out[gi[ei]] = _single_pool_batch(
            gi[ei], ks[ei], q_c[ei], budgets[ei] / p_c[ei, None], w,
            evals)
    live = ~empty & ~growing
    if not live.any():
        return
    li = np.nonzero(live)[0]
    e_star = _itp_root(lambda xv, act: e_excess(xv, li[act]),
                       e_lo[li], e_hi[li], f_elo[li], f_ehi[li])
    s_star = inner_S(e_star, li)
    _, _, e_fin, c_fin = totals_at(s_star, e_star, li)
    e_out[gi[li]] = e_fin
    c_out[gi[li]] = c_fin


@dataclass(frozen=True)
class BatchAggregateSolution:
    """Batched aggregate solve: per-scenario profiles and diagnostics.

    Attributes:
        e: ESP requests, shape ``(B, n)``.
        c: CSP requests, shape ``(B, n)``.
        evals: Consistency-function evaluations per scenario, ``(B,)``.
        failed: Per-scenario divergence flags, ``(B,)`` — a failed row's
            profile is meaningless and must not be consumed.
    """

    e: np.ndarray
    c: np.ndarray
    evals: np.ndarray
    failed: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.e.shape[0])

    @property
    def active_set_fraction(self) -> float:
        """Mean lockstep utilization: ``mean(evals) / max(evals)``.

        1.0 means every scenario stayed active for the whole batched
        iteration; small values mean a few stragglers dominated.
        """
        top = int(np.max(self.evals)) if self.evals.size else 0
        if top <= 0:
            return 1.0
        return float(np.mean(self.evals) / top)


def solve_aggregate_batch(budgets: np.ndarray,
                          weights: Optional[np.ndarray],
                          reward: np.ndarray, beta: np.ndarray,
                          gamma: np.ndarray, p_e: np.ndarray,
                          p_c: np.ndarray, nu: np.ndarray
                          ) -> BatchAggregateSolution:
    """Solve ``B`` connected-mode aggregate games in one array program.

    Args:
        budgets: Per-miner budgets, shape ``(B, n)`` (rows are
            scenarios; with ``weights``, rows are budget types).
        weights: Optional per-row miner multiplicities, shape
            ``(B, n)`` — the type-space hook of
            :func:`repro.kernels.aggregate.solve_weighted_connected_aggregate`.
        reward, beta, gamma, p_e, p_c, nu: Per-scenario scalars, shape
            ``(B,)`` — mining reward ``R``, fork rate ``β``, edge-bonus
            coefficient ``βh``, unit prices, and the shared-capacity
            multiplier (perceived edge price mark-up).

    Returns:
        :class:`BatchAggregateSolution`.  Scenario ``i`` of the result
        is bit-identical to ``solve_aggregate_batch`` called on
        scenario ``i`` alone (and hence to ``kernel="vectorized"``,
        which is the ``B = 1`` delegation).
    """
    budgets = np.asarray(budgets, dtype=float)
    if budgets.ndim != 2:
        raise ValueError(
            f"budgets must have shape (B, n), got {budgets.shape}")
    n_scen, n = budgets.shape
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != budgets.shape:
            raise ValueError(
                f"weights shape {weights.shape} must match budgets "
                f"shape {budgets.shape}")
    scalars = []
    for name, arr in (("reward", reward), ("beta", beta),
                      ("gamma", gamma), ("p_e", p_e), ("p_c", p_c),
                      ("nu", nu)):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (n_scen,):
            raise ValueError(
                f"{name} must have shape ({n_scen},), got {arr.shape}")
        scalars.append(arr)
    reward, beta, gamma, p_e, p_c, nu = scalars

    q_e = p_e + nu
    q_c = p_c
    ks = reward * (1.0 - beta)
    kg = reward * gamma

    e = np.zeros((n_scen, n))
    c = np.zeros((n_scen, n))
    evals = np.zeros(n_scen, dtype=np.int64)
    failed = np.zeros(n_scen, dtype=bool)

    if weights is None:
        n_eff = np.full(n_scen, float(n))
    else:
        n_eff = np.sum(weights, axis=1)

    def wsub(gi: np.ndarray) -> Optional[np.ndarray]:
        return None if weights is None else weights[gi]

    # A lone miner earns the whole (1-β) share regardless of effort
    # (and the ē=0 model discontinuity zeroes the edge bonus), so its
    # exact best response to empty opposition is inactivity — the same
    # fixed point the sweeping solvers reach.
    trivial = (n_eff < 2.0) | (ks <= 0.0)

    # No edge bonus: one pool at the cheaper objective price (the
    # scalar kernel's a_e < a_c tie-break sends ties to the cloud).
    nobonus = ~trivial & (kg <= 0.0)
    grp = nobonus & (q_e < q_c)
    if grp.any():
        gi = np.nonzero(grp)[0]
        e[gi] = _single_pool_batch(gi, ks[gi], q_e[gi],
                                   budgets[gi] / p_e[gi, None],
                                   wsub(gi), evals)
    grp = nobonus & ~(q_e < q_c)
    if grp.any():
        gi = np.nonzero(grp)[0]
        c[gi] = _single_pool_batch(gi, ks[gi], q_c[gi],
                                   budgets[gi] / p_c[gi, None],
                                   wsub(gi), evals)

    # Edge no pricier but strictly more valuable: cloud dominated,
    # single pool with stacked marginal value ks + kg at price q_e.
    dominated = ~trivial & ~nobonus & (q_e <= q_c)
    if dominated.any():
        gi = np.nonzero(dominated)[0]
        e[gi] = _single_pool_batch(gi, ks[gi] + kg[gi], q_e[gi],
                                   budgets[gi] / p_e[gi, None],
                                   wsub(gi), evals)

    general = ~trivial & ~nobonus & ~dominated
    if general.any():
        gi = np.nonzero(general)[0]
        _two_pool_batch(gi, budgets[gi], wsub(gi), ks[gi], kg[gi],
                        q_e[gi], q_c[gi], p_e[gi], p_c[gi],
                        e, c, evals, failed)
    return BatchAggregateSolution(e=e, c=c, evals=evals, failed=failed)


def solve_connected_multiscenario(
        scenarios: Sequence[Tuple["GameParameters", "Prices"]],
        tol: float = 1e-9,
        nus: Optional[Sequence[float]] = None,
        ) -> List[Optional["MinerEquilibrium"]]:
    """Solve a batch of connected-mode scenarios in one kernel call.

    Every scenario must be connected-mode with the same miner count
    ``n`` (heterogeneous rewards, fork rates, prices, and budgets are
    fine — that is the point).  Each returned equilibrium is
    bit-identical to what ``solve_connected_equilibrium(params, prices,
    tol=tol, kernel="vectorized")`` produces for that scenario: lanes
    the certified closed form covers
    (:func:`~repro.core.nep.separable_applies`) are answered by it
    exactly as the solo solve answers them, and only the rest enter the
    batched aggregate kernel, with the same Jacobi-sweep verification.
    Scenarios whose residual misses ``tol`` (or whose aggregate solve
    diverged) come back as ``None`` so the caller can fall back to the
    per-scenario solver.

    Args:
        scenarios: ``(params, prices)`` pairs.
        tol: Verification tolerance (the vectorized kernel's ``tol``).
        nus: Optional per-scenario shared-capacity multipliers
            (defaults to 0 everywhere, the connected-mode value).

    Returns:
        One ``Optional[MinerEquilibrium]`` per scenario, input order.
    """
    from ..core.nep import (MinerEquilibrium, separable_applies,
                            separable_equilibrium)
    from ..game.diagnostics import ConvergenceReport
    from ..telemetry import TELEMETRY as _TEL
    from .batched_br import certify_sweep

    if not scenarios:
        return []
    n = scenarios[0][0].n
    for params, _ in scenarios:
        if params.n != n:
            raise ValueError(
                "multiscenario batches require a uniform miner count; "
                f"got n={params.n} alongside n={n}")
    n_scen = len(scenarios)
    if nus is None:
        nu_arr = np.zeros(n_scen)
    else:
        nu_arr = np.asarray(list(nus), dtype=float)
        if nu_arr.shape != (n_scen,):
            raise ValueError(
                f"nus must provide one multiplier per scenario "
                f"({n_scen}), got shape {nu_arr.shape}")

    results: List[Optional["MinerEquilibrium"]] = [None] * n_scen
    # Lanes the closed form covers are answered as a solo vectorized
    # solve answers them; a missed certification falls back to the
    # aggregate kernel there too, so such a lane joins the batch.
    lanes: List[int] = []
    for i, (params, prices) in enumerate(scenarios):
        nu_i = float(nu_arr[i])
        if separable_applies(params, prices, nu_i):
            results[i] = separable_equilibrium(params, prices, tol)
        if results[i] is None:
            lanes.append(i)
    if not lanes:
        return results
    batch = [scenarios[i] for i in lanes]
    budgets = np.stack([np.asarray(p.budget_array, dtype=float)
                        for p, _ in batch])
    reward = np.array([float(p.reward) for p, _ in batch])
    beta = np.array([float(p.fork_rate) for p, _ in batch])
    gamma = np.array([float(p.fork_rate) * float(p.effective_h)
                      for p, _ in batch])
    pe_arr = np.array([float(pr.p_e) for _, pr in batch])
    pc_arr = np.array([float(pr.p_c) for _, pr in batch])

    sol = solve_aggregate_batch(budgets, None, reward, beta, gamma,
                                pe_arr, pc_arr, nu_arr[lanes])
    if _TEL.enabled:
        _TEL.metrics.histogram(
            "multiscenario_batch_size",
            "Scenarios per batched aggregate solve",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                     256.0, 512.0)).observe(float(len(lanes)))
        _TEL.metrics.gauge(
            "multiscenario_active_set_fraction",
            "mean(evals)/max(evals) of the last batched solve — 1.0 "
            "when every scenario stays active the whole iteration"
            ).set(sol.active_set_fraction)

    for j, i in enumerate(lanes):
        if sol.failed[j]:
            continue
        params, prices = scenarios[i]
        nu_i = float(nu_arr[i])
        # Identical certification to nep._solve_vectorized: one exact
        # batched best-response sweep; the returned profile is the
        # *sweep output* (BR(x*) = x* at the true equilibrium).
        e_br, c_br, residual = certify_sweep(sol.e[j], sol.c[j], params,
                                             prices, nu=nu_i)
        if not residual < tol:
            continue
        report = ConvergenceReport(
            converged=True, iterations=int(sol.evals[j]),
            residual=residual, tolerance=tol, history=[residual],
            message="aggregate kernel (iterations = consistency evals)")
        results[i] = MinerEquilibrium(
            e=np.asarray(e_br, dtype=float),
            c=np.asarray(c_br, dtype=float), params=params,
            prices=prices, report=report, nu=nu_i)
    return results
