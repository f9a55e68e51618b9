"""Time integration and equilibrium solvers.

All solvers advance M q'' + f_int(q) = f_ext with prescribed DoFs eliminated
from the solved system and driven directly by the load program; reactions
are recovered on the eliminated rows.  The implicit solver is the
generalized-alpha family (HHT and Newmark as special cases) with modified
Newton iterations on the initial elastic stiffness, factorized once per
simulation.  The static solver is the same driver without inertia, which
skips the solve on the steps it proves linear.  A solver sees the facets
only through `internal_forces(q, ops, states) -> (f_int, trial)` and
commits the trial states it accepts; the law mode lives on the
`SystemOperators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# `spla.splu` is the patch point of perfbench's probe, which times the
# factorization and the solves of the factor it returns
from . import banded as spla
from . import diagnostics
from .assembly import AssemblyError, SystemOperators, facet_tractions, \
    internal_forces
from .material import FacetStateArray


class DivergenceError(Exception):
    """Non-finite state (explicit) or residual (implicit) detected."""

    def __init__(self, step, message="non-finite state"):
        super().__init__(f"step {step}: {message}")
        self.step = step


class NonConvergenceError(Exception):
    def __init__(self, step, iterations):
        super().__init__(f"step {step}: no convergence in {iterations} iterations")
        self.step = step
        self.iterations = iterations


@dataclass(frozen=True)
class GenAlphaParams:
    alpha_m: float
    alpha_f: float
    gamma: float
    beta: float


def genalpha_from_rho(rho_inf: float) -> GenAlphaParams:
    """Spectral-radius parameterization giving second-order accuracy with
    high-frequency damping controlled by rho_inf."""
    if not 0.0 <= rho_inf <= 1.0:
        raise ValueError("rho_inf must lie in [0, 1]")
    a_m = (2.0 * rho_inf - 1.0) / (rho_inf + 1.0)
    a_f = rho_inf / (rho_inf + 1.0)
    gamma = 0.5 - a_m + a_f
    beta = ((1.0 - a_m + a_f) / 2.0) ** 2
    return GenAlphaParams(a_m, a_f, gamma, beta)


def hht_params(alpha: float) -> GenAlphaParams:
    """HHT alpha-method: alpha_m = 0, alpha_f = -alpha, gamma = 1/2 - alpha,
    beta = (1 - alpha)^2 / 4."""
    if not -1.0 / 3.0 - 1e-12 <= alpha <= 0.0:
        raise ValueError("HHT alpha must lie in [-1/3, 0]")
    return GenAlphaParams(0.0, -alpha, 0.5 - alpha, 0.25 * (1.0 - alpha) ** 2)


def newmark_params() -> GenAlphaParams:
    """Newmark's trapezoidal rule: gamma = 1/2, beta = 1/4."""
    return GenAlphaParams(0.0, 0.0, 0.5, 0.25)


@dataclass(frozen=True)
class ConvergenceSpec:
    criteria: tuple = ("residual", "increment", "energy")
    tolerance: float = 1e-4
    r_tol: float = 1e-4           # wrms relative weight
    a_tol: float = 1e-6           # wrms absolute weight
    max_iter: int = 100
    on_fail: str = "accept"       # accept | abort

    def __post_init__(self):
        if not self.criteria:
            raise ValueError("at least one convergence criterion required")
        bad = set(self.criteria) - {"residual", "increment", "energy", "wrms"}
        if bad:
            raise ValueError(f"unknown criteria {sorted(bad)}")
        if self.tolerance <= 0 or self.r_tol <= 0 or self.a_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.on_fail not in ("accept", "abort"):
            raise ValueError("on_fail must be accept or abort")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def check_convergence(residual, dq, q, f_ext, f_int, f_inertia,
                      energy_ref, spec: ConvergenceSpec):
    """Disjunctive convergence test: the step passes when ANY selected
    criterion is below its tolerance.  A criterion whose normalizer is zero
    is skipped (flagged in the values) unless its numerator is zero too.

    `residual`, `dq`, `q`, `f_ext` and `f_inertia` are the free DoFs'
    entries; `f_int` is the internal force on every DoF.  The `residual`
    criterion divides |residual| by max(|f_ext|, |f_int|, |f_inertia|): on
    the prescribed DoFs f_int holds the reactions, so the scale sees the
    load path of a displacement-driven run, where f_int on the free DoFs
    is the residual itself (Crisfield, Non-linear Finite Element Analysis
    of Solids and Structures, vol. 1, 1991, ch. 9).  `increment` divides
    |dq| by |q|, `energy` |dq . residual| by `energy_ref`, and `wrms` is
    the root mean square of dq weighted by 1 / (r_tol |q| + a_tol), which
    passes below 1.  These three would pass on any state at dq = 0, so a
    state that no pass produced is given as `dq` None and judged on
    `residual` alone.
    """
    values = {}
    passed = False

    def norm(v):
        return float(np.linalg.norm(v))

    def judge(name, num, den, tol):
        nonlocal passed
        if den == 0.0:
            if num == 0.0:
                values[name] = 0.0
                passed = True
            else:
                values[name] = float("nan")  # skipped: zero normalizer
            return
        values[name] = num / den
        if values[name] < tol:
            passed = True

    if "residual" in spec.criteria:
        judge("residual", norm(residual),
              max(norm(f_ext), norm(f_int), norm(f_inertia)), spec.tolerance)
    if dq is None:
        return passed, values
    if "increment" in spec.criteria:
        judge("increment", norm(dq), norm(q), spec.tolerance)
    if "energy" in spec.criteria:
        judge("energy", abs(float(np.dot(dq, residual))), energy_ref,
              spec.tolerance)
    if "wrms" in spec.criteria:
        w = 1.0 / (spec.r_tol * np.abs(q) + spec.a_tol)
        val = float(np.sqrt(np.mean((np.asarray(dq) * w) ** 2))) if len(q) \
            else 0.0
        values["wrms"] = val
        if val < 1.0:
            passed = True
    return passed, values


@dataclass
class StepReport:
    time: float
    iterations: int
    converged: bool
    criteria: dict = field(default_factory=dict)


class LoadProgram:
    """Compiled loading: prescribed displacement/velocity/acceleration
    histories and piecewise-linear force histories, all as functions of
    time.

    `kinematic` maps each prescribed DoF (6 node + component) to its
    (velocity, t_ramp): the velocity is reached by a linear ramp over
    t_ramp and held, and (0, 0) fixes the DoF.  `forces` lists (dof,
    ((t, f), ...)) pairs, summed in list order; a force may act on a
    prescribed DoF.

    Once every ramp has ended, the prescribed velocities and accelerations
    are constant, and so is the external force after the last point of
    every force history.  Those values are computed once, at
    construction; the velocity and acceleration are then returned as
    shared read-only arrays, and so is the displacement when every
    prescribed velocity is +0.
    """

    def __init__(self, n_dofs: int, kinematic: dict, forces=()):
        self.n_dofs = n_dofs
        dofs = sorted(kinematic)
        self.prescribed = np.array(dofs, dtype=int)
        self._vel = np.array([kinematic[d][0] for d in dofs], float)
        self._ramp = np.array([kinematic[d][1] for d in dofs], float)
        self._ramped = self._ramp > 0
        self._ramp_div = np.where(self._ramped, self._ramp, 1.0)
        # for t past _ramp_end every DoF follows u = v (t - t_ramp / 2),
        # v and 0; t_ramp = 0 on an unramped DoF makes that u = v t exactly
        self._ramp_end = self._ramp.max() if self._ramped.any() else -np.inf
        self._half_ramp = self._ramp / 2.0
        self._vel.flags.writeable = False
        self._zeros = np.zeros(len(self._vel))
        self._zeros.flags.writeable = False
        # with every velocity +0 the displacement past the ramps is +0 too
        self._moving = bool(np.any(self._vel != 0.0)
                            or np.any(np.signbit(self._vel)))
        free = np.ones(n_dofs, dtype=bool)
        free[self.prescribed] = False
        self.free = np.nonzero(free)[0]
        # loaded set: DoFs with nonzero target velocity, else all prescribed
        driven = self.prescribed[self._vel != 0.0]
        self.driven = driven if len(driven) else self.prescribed
        # the translational driven DoFs and their axes, summed by
        # reaction_sum in this order
        self.reaction_dofs = self.driven[self.driven % 6 < 3]
        self.reaction_axes = self.reaction_dofs % 6
        self._forces = [(dof, np.array(hist, float).reshape(-1, 2))
                        for dof, hist in forces]
        # np.interp returns a history's last value past its last point
        self._force_end = max((h[-1, 0] for _, h in self._forces),
                              default=-np.inf)
        self._f_end = self._force_at(np.inf)

    def displacement(self, t: float) -> np.ndarray:
        if t > self._ramp_end:
            if not self._moving:
                return self._zeros
            return self._vel * (t - self._half_ramp)
        return np.where(self._ramped & (t <= self._ramp),
                        self._vel * t * t / (2.0 * self._ramp_div),
                        self._vel * (t - self._half_ramp))

    def velocity(self, t: float) -> np.ndarray:
        if t > self._ramp_end:
            return self._vel
        return np.where(self._ramped & (t <= self._ramp),
                        self._vel * t / self._ramp_div, self._vel)

    def acceleration(self, t: float) -> np.ndarray:
        if t > self._ramp_end:
            return self._zeros
        return np.where(self._ramped & (t <= self._ramp),
                        self._vel / self._ramp_div, 0.0)

    def external_force(self, t: float) -> np.ndarray:
        if t > self._force_end:
            return self._f_end.copy()
        return self._force_at(t)

    def _force_at(self, t: float) -> np.ndarray:
        f = np.zeros(self.n_dofs)
        for dof, hist in self._forces:
            f[dof] += np.interp(t, hist[:, 0], hist[:, 1])
        return f

    def apply(self, q, v, a, t) -> None:
        q[self.prescribed] = self.displacement(t)
        v[self.prescribed] = self.velocity(t)
        a[self.prescribed] = self.acceleration(t)


def perturb(q, free_idx, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Add an independent uniform(-eta/2, eta/2) draw to every free DoF."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    out = np.array(q, float, copy=True)
    if eta > 0:
        out[free_idx] += rng.uniform(-eta / 2.0, eta / 2.0, size=len(free_idx))
    return out


class _SolverBase:
    """State shared by all solvers: DoF vectors, facet history, load
    program, the last committed evaluation (internal forces, external
    forces f_ext and f_ext_total = f_ext + reactions, and reactions) and
    the energy `ledger` that step() and perturb() book their work in; its
    W_kin is left to the caller.  `mass` is the per-DoF diagonal mass,
    None for the quasi-static solver."""

    def __init__(self, ops: SystemOperators, program: LoadProgram,
                 mass: np.ndarray | None):
        self.ops = ops
        self.program = program
        self.mass = mass
        n = ops.mesh.n_dofs
        self.t = 0.0
        self.step_index = 0
        self.q = np.zeros(n)
        self.v = np.zeros(n)
        self.a = np.zeros(n)
        self.states = FacetStateArray.virgin(ops.mesh.n_facets)
        self.f_int = np.zeros(n)
        self.reaction_forces = np.zeros(n)
        self.ledger = diagnostics.EnergyLedger()
        self._held = None
        # m a on the prescribed DoFs and the acceleration it is of (`_commit`)
        self._accel_p = self._inertia_p = None
        # commit t = 0, its reactions included; f_int is 0 at q = 0 on
        # virgin states, so no facet is evaluated
        self._commit(self.f_int, self.states, program.external_force(self.t))

    @property
    def strains(self) -> np.ndarray:
        """(nf, 3) facet strains at the committed q."""
        return self.ops.strains(self.q)

    @property
    def tractions(self) -> np.ndarray:
        """(nf, 3) committed facet tractions (`assembly.facet_tractions`):
        those of the committed states on the facets the last evaluation
        ran the law on, the elastic law of `strains` on the facets it
        proved linear, and on elastic operators everywhere."""
        return facet_tractions(self.q, self.ops, self.states)

    def _commit(self, f_int, trial, f_ext) -> None:
        """Commit one evaluation at the current (t, q, a) and f_ext = the
        external force at t, and recover the reactions (m a + f_int) - f_ext
        on the prescribed DoFs, where a is the load program's (the other
        entries of reaction_forces stay zero)."""
        self.states, self.f_int, self.f_ext = trial, f_int, f_ext
        pres = self.program.prescribed
        if self.mass is None:
            f = f_int[pres]
        else:
            accel = self.program.acceleration(self.t)
            if accel is not self._accel_p:
                self._accel_p, self._inertia_p = accel, self.mass[pres] * accel
            f = self._inertia_p + f_int[pres]
        self.reaction_forces[pres] = f - f_ext[pres]
        self.f_ext_total = self.reaction_forces + f_ext

    def _book_step(self, q0, f_int0, f_ext0, dq=None, out=None) -> None:
        """Book the work from a step's start arrays q0, f_int0, f_ext0 (the
        step binds new ones) to its commit, then release a held force.
        `dq` and `out`, when given, are n-arrays that take the step's
        increment and the force sums of the work."""
        dq = np.subtract(self.q, q0, out=dq)
        diagnostics.accumulate_work(self.ledger, f_ext0, self.f_ext_total,
                                    f_int0, self.f_int, dq, out=out)
        if self._held is not None:
            diagnostics.book_release(self.ledger, self._held, dq)
            self._held = None

    def perturb(self, eta: float, rng: np.random.Generator) -> None:
        """Add a uniform(-eta/2, eta/2) draw to every free DoF, then
        evaluate and commit forces, facet states and reactions there.  Books
        the work over the jump; the out-of-balance force left, inertia
        included, is held until the next step releases it.  The next step
        extrapolates no increment from before the jump."""
        q0, f_int0 = self.q, self.f_int
        self.q = perturb(self.q, self.program.free, eta, rng)
        self._refresh()
        diagnostics.book_perturbation(self.ledger, f_int0, self.f_int,
                                      self.q - q0)
        self._held = self.f_int - self.f_ext_total
        if self.mass is not None:
            self._held += self.mass * self.a

    def kinetic_energy(self) -> float:
        """1/2 v^T M v at the committed state; 0 without inertia."""
        return 0.0 if self.mass is None \
            else diagnostics.kinetic_energy(self.v, self.mass)

    def reaction_sum(self) -> np.ndarray:
        """Resultant of reactions over the driven translational DoFs,
        reported per global axis and summed in DoF order."""
        p = self.program
        return np.bincount(p.reaction_axes,
                           weights=self.reaction_forces[p.reaction_dofs],
                           minlength=3)


class ExplicitIntegrator(_SolverBase):
    """Central difference with half-stepped velocities and a diagonal mass
    matrix; facet states commit every step.  After every step() the public
    state (q, v, a, forces, reactions) is consistent at the current time.

    Every step binds new arrays to q, a, f_int, f_ext and f_ext_total, so an
    array read before a step keeps its values; reaction_forces is updated
    in place.  v is formed when it is first read after a step, from the
    half-step velocity and a, so steps that nobody reads it at skip it.
    """

    def __init__(self, ops, program, mass: np.ndarray, dt: float):
        super().__init__(ops, program, mass)
        free = program.free
        bad = np.unique(free[mass[free] <= 0.0] // 6)
        if len(bad):
            raise AssemblyError(f"zero mass on unconstrained DoFs of nodes "
                                f"{bad.tolist()[:10]}; explicit integration "
                                "impossible")
        self.dt = dt
        n = ops.mesh.n_dofs
        self._minv = np.zeros(n)
        self._minv[free] = 1.0 / mass[free]
        # scratch of step(): the products with dt and the work's force sums,
        # and the increment dq
        self._tmp, self._dq = np.empty(n), np.empty(n)
        self.program.apply(self.q, self.v, self.a, 0.0)
        self._refresh()
        # second-order startup: v_{+1/2} = v_0 + dt/2 a_0
        self._v_half = self.v + 0.5 * dt * self.a

    @property
    def v(self) -> np.ndarray:
        """Velocity at the current step: v_{+1/2} + dt/2 a, and the load
        program's on the prescribed DoFs, formed at the first read."""
        if self._v_at != self.step_index:
            p = self.program
            v = self._v_half + 0.5 * self.dt * self.a
            v[p.prescribed] = p.velocity(self.t)
            self._v, self._v_at = v, self.step_index
        return self._v

    @v.setter
    def v(self, value) -> None:
        self._v, self._v_at = value, self.step_index

    def perturb(self, eta: float, rng: np.random.Generator) -> None:
        # v is formed before the jump replaces the acceleration of its step
        self.v = self.v
        super().perturb(eta, rng)

    def _refresh(self):
        """Evaluate and commit forces, acceleration and reactions at (t, q)."""
        p, t = self.program, self.t
        f_int, trial = internal_forces(self.q, self.ops, self.states)
        f_ext = p.external_force(t)
        a = np.subtract(f_ext, f_int)
        a *= self._minv
        a[p.prescribed] = p.acceleration(t)
        self.a = a
        self._commit(f_int, trial, f_ext)

    def step(self) -> StepReport:
        p, dt, tmp = self.program, self.dt, self._tmp
        q0, f_int0, f_ext0 = self.q, self.f_int, self.f_ext_total
        v_half = self._v_half
        if self.step_index:
            v_half += np.multiply(self.a, dt, out=tmp)
        q = q0 + np.multiply(v_half, dt, out=tmp)
        # the facet law needs finite strains; K q is scanned with q below
        if not self.ops.elastic_only and not np.all(np.isfinite(q)):
            raise DivergenceError(self.step_index)
        self.t += dt
        q[p.prescribed] = p.displacement(self.t)
        self.q = q
        self._refresh()
        # one scan of q and f_int: an entry that is not finite in either
        # makes their dot product non-finite
        if not math.isfinite(q.dot(self.f_int)):
            raise DivergenceError(self.step_index)
        self.step_index += 1
        self._book_step(q0, f_int0, f_ext0, self._dq, tmp)
        return StepReport(self.t, 0, True)


# the rounding tolerance, in eps, of the parallel test of
# `GeneralizedAlphaIntegrator._predict`
PARALLEL = 64


class GeneralizedAlphaIntegrator(_SolverBase):
    """Implicit generalized-alpha with modified Newton on the initial
    elastic stiffness; the effective matrix is factorized once.

    With `mass` None the driver is quasi-static: the residual is
    f_int - f_ext, the factorized matrix is the elastic stiffness, and
    velocities and accelerations stay zero.  A quasi-static step after a
    linear one may start from the extrapolated state of `_predict`; when
    the evaluation there runs the law on no facet and passes the
    `residual` criterion, the state is committed without a solve, with 0
    iterations.
    """

    def __init__(self, ops, program, mass: np.ndarray | None,
                 ga: GenAlphaParams, dt: float, conv: ConvergenceSpec):
        super().__init__(ops, program, mass)
        self.ga = ga
        self.conv = conv
        self.dt = dt
        free = program.free
        self._predicts = mass is None and "residual" in conv.criteria
        # the last step's increment while `_predict` may extrapolate it,
        # else None
        self._predictor = None
        # K is finite (`assemble_stiffness`); the band is scattered from
        # K_eff's entries, and factored unchecked
        K_eff = ops.K
        if mass is not None:
            b_dt2 = ga.beta * dt * dt
            if b_dt2 == 0.0:
                raise np.linalg.LinAlgError(
                    f"effective matrix not finite: beta dt^2 is 0 at dt={dt}")
            c_m = (1.0 - ga.alpha_m) / b_dt2
            with np.errstate(over="ignore", invalid="ignore"):
                K_eff = (1.0 - ga.alpha_f) * K_eff + sp.diags(c_m * mass)
            if not np.isfinite(K_eff.data).all():
                raise np.linalg.LinAlgError("effective matrix not finite")
        try:
            pairs = ops.pairs
            self._factor = spla.splu(K_eff, spla.node_order(
                pairs.lo, pairs.hi, ops.mesh.n_nodes, free), free)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"singular effective matrix: {exc}")

    def _newmark(self, q_new, t1):
        """End-of-step velocity and acceleration of q_new; the prescribed
        DoFs follow the load program at t1."""
        dt, ga, p = self.dt, self.ga, self.program
        b, g = ga.beta, ga.gamma
        q0, v0, a0 = self.q, self.v, self.a
        a_new = (q_new - q0) / (b * dt * dt) - v0 / (b * dt) \
            - (0.5 / b - 1.0) * a0
        v_new = v0 + dt * ((1.0 - g) * a0 + g * a_new)
        v_new[p.prescribed] = p.velocity(t1)
        a_new[p.prescribed] = p.acceleration(t1)
        return v_new, a_new

    def _refresh(self):
        """Evaluate and commit forces/reactions at (t, q)."""
        self._commit(*internal_forces(self.q, self.ops, self.states),
                     self.program.external_force(self.t))

    @property
    def energy_ref(self) -> float:
        """Energy-criterion scale: |W_ext| plus the kinetic energy."""
        return abs(self.ledger.w_ext) + self.kinetic_energy()

    def _predict(self, q_new, f_ext) -> bool:
        """Move the free DoFs of the step's start `q_new` (the committed q,
        the prescribed DoFs at t1) to q0 + c dq0, Crisfield's extrapolated
        predictor (vol. 1, 1991, ch. 9), and return True; or leave `q_new`
        and return False.

        dq0 is the last step's free increment and c = (dp1 . dp0) / (dp0 .
        dp0), dp the increments of the prescribed DoFs.  The driver predicts
        only without inertia and with `residual` among the criteria.  The
        last step must have evaluated no facet at its end, with the
        external force unchanged over it and no `perturb` before or after
        it (a step after a jump also relaxes the jump).  Then the force at
        t1 must still be the committed one, dp0 != 0 and dp1 parallel to
        dp0 to rounding.  `step` judges the prediction by its one
        evaluation: one that evaluated no facet has proven every facet
        virgin and linear there (`internal_forces`), so f_int = K q,
        equilibrium is linear in the prescribed displacements, and the
        prediction is the solution to rounding.

        Parallel to rounding: |dp1 - c dp0|_inf <= `PARALLEL` eps (1 + |c|)
        P, where P = max(|p0|_inf, |p1|_inf) + |dp0|_inf bounds the
        prescribed displacements at the three instants; each computed
        increment misses its exact value by a few eps of the two
        displacements it is the difference of.
        """
        dq0 = self._predictor
        if dq0 is None or self._held is not None \
                or not np.array_equal(f_ext, self.f_ext):
            return False
        p = self.program
        p0, p1, dp0 = self.q[p.prescribed], q_new[p.prescribed], \
            dq0[p.prescribed]
        dp1 = p1 - p0
        dd = float(dp0.dot(dp0))
        if dd == 0.0:
            return False
        c = float(dp1.dot(dp0)) / dd
        size = max(np.abs(p0).max(), np.abs(p1).max()) + np.abs(dp0).max()
        if not np.abs(dp1 - c * dp0).max() \
                <= PARALLEL * np.finfo(float).eps * (1.0 + abs(c)) * size:
            return False
        free = p.free
        q_new[free] += c * dq0[free]
        return True

    def step(self) -> StepReport:
        p, ga, dt, mass = self.program, self.ga, self.dt, self.mass
        af, am = ga.alpha_f, ga.alpha_m
        free = p.free
        q0, a0, f_int0, f_ext0 = self.q, self.a, self.f_int, self.f_ext_total
        energy_ref = self.energy_ref
        t1 = self.t + dt

        q_new = q0.copy()
        q_new[p.prescribed] = p.displacement(t1)
        v_new, a_new = self.v, a0
        f_ext = p.external_force(t1)
        f_ext_mid = f_ext
        if mass is not None:
            v_new, a_new = self._newmark(q_new, t1)
            f_ext_mid = (1.0 - af) * f_ext + af * self.f_ext
        zeros = np.zeros_like(q0)

        def residual(qn, an):
            """(residual, inertia force, evaluation) for the end-of-step qn,
            an; the facets see the alpha_f mid-point, qn when alpha_f = 0."""
            q_mid = qn if af == 0.0 else (1.0 - af) * qn + af * q0
            out = internal_forces(q_mid, self.ops, self.states)
            if mass is None:
                r, f_inertia = out[0] - f_ext_mid, zeros
            else:
                f_inertia = mass * ((1.0 - am) * an + am * a0)
                r = f_inertia + out[0] - f_ext_mid
            if not np.all(np.isfinite(r)):
                raise DivergenceError(self.step_index, "non-finite residual")
            return r, f_inertia, out

        predicted = self._predict(q_new, f_ext)
        r_full, f_inertia, last = residual(q_new, a_new)
        iterations, converged, values = 0, False, {}
        # a predicted state at which no facet was evaluated is linear
        if predicted and last[1] is self.states:
            converged, values = check_convergence(
                r_full[free], None, q_new[free], f_ext_mid[free], last[0],
                f_inertia[free], energy_ref, self.conv)
        while not converged and iterations < self.conv.max_iter:
            dq = np.zeros_like(q_new)
            dq[free] = self._factor.solve(-r_full[free])
            q_new += dq
            e_ref = energy_ref
            if mass is not None:
                v_new, a_new = self._newmark(q_new, t1)
                e_ref = max(e_ref, diagnostics.kinetic_energy(v_new, mass))
            iterations += 1
            # one set of facet arrays at a time keeps the peak memory down
            del last
            r_full, f_inertia, last = residual(q_new, a_new)
            converged, values = check_convergence(
                r_full[free], dq[free], q_new[free], f_ext_mid[free],
                last[0], f_inertia[free], e_ref, self.conv)
        if not converged and self.conv.on_fail == "abort":
            raise NonConvergenceError(self.step_index, iterations)

        # commit at the end-of-step configuration; with alpha_f = 0 the last
        # residual already evaluated the facets there against the committed
        # history
        if af != 0.0:
            del last
            last = internal_forces(q_new, self.ops, self.states)
        self.q, self.v, self.a, self.t = q_new, v_new, a_new, t1
        # the next step extrapolates a step that evaluated no facet at its
        # end and neither relaxed the jump of a perturbation nor moved the
        # external force
        linear = self._predicts and self._held is None \
            and np.array_equal(f_ext, self.f_ext) and last[1] is self.states
        self._commit(*last, f_ext)
        dq = np.empty_like(q0)
        self._book_step(q0, f_int0, f_ext0, dq)
        self._predictor = dq if linear else None
        self.step_index += 1
        return StepReport(self.t, iterations, converged, values)


class StaticSolver(GeneralizedAlphaIntegrator):
    """Displacement-controlled Newton equilibrium on the factorized elastic
    stiffness: the generalized-alpha driver without inertia.  The
    pseudo-time step only advances the load program."""

    def __init__(self, ops, program, dt: float, conv: ConvergenceSpec):
        super().__init__(ops, program, None, newmark_params(), dt, conv)
