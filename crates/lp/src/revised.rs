//! Sparse revised simplex with a warm-started dual phase.
//!
//! The dense tableau in [`crate::simplex`] is the right tool for a few
//! dozen principals, but it stores every row against every column and
//! slack: the community window LP has about `4n` rows, so at n = 1024 the
//! tableau holds tens of millions of entries and each pivot touches all of
//! them. This module is the large-`n` engine behind `Problem::solve_warm`:
//!
//! - **Sparse problem columns.** Each window-LP column (one per
//!   agreement-backed pair) meets a handful of rows, so constraint columns
//!   are stored once per prepared shape in compressed sparse column form.
//!   Slack columns are implicit unit columns. Variables fixed at zero (a
//!   zero-width box, such as a multi-resource pair with an empty queue)
//!   never enter pricing: the solver iterates an *active* column list.
//! - **Product-form basis inverse.** The basis inverse is an eta file
//!   (elementary column transforms) grown by one eta per pivot and rebuilt
//!   from the identity slack basis every `refactor_after` pivots — the
//!   classic refactorize-every-k discipline. Replacing a single basic
//!   column (the θ coefficient changes with every window's queue lengths)
//!   is a rank-one update: one FTRAN plus one appended eta.
//! - **Warm-started dual simplex.** Consecutive windows differ only in
//!   queue-derived right-hand sides and bounds, so the previous window's
//!   optimal basis stays *dual* feasible. [`WarmBasis`] persists the basis,
//!   bound statuses, and eta file across solves; `solve_warm` repairs
//!   primal feasibility with dual simplex pivots — typically a handful —
//!   instead of re-solving from scratch. A cold solve is the same dual
//!   simplex started from the all-slack basis (trivially dual feasible for
//!   the scheduler LPs, whose positive-cost variables are all boxed).
//!
//! The engine refuses problems it cannot start dual-feasible (a variable
//! with positive cost and no upper bound) or that misbehave numerically,
//! returning [`WarmOutcome::Unsuitable`]; callers fall back to the dense
//! solver. Every optimal claim is verified against the problem's own
//! feasibility checker before being returned.

use crate::{Problem, Relation};

/// Dual-feasibility tolerance on reduced costs.
const DTOL: f64 = 1e-7;
/// Primal-feasibility tolerance on basic-variable bound violations.
const PTOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIV_TOL: f64 = 1e-8;
/// Entries below this are dropped when storing an eta column.
const ETA_DROP: f64 = 1e-12;
/// Tolerance used when verifying a claimed optimum against the problem.
const VERIFY_TOL: f64 = 1e-5;
/// Consecutive degenerate (no dual-objective progress) pivots before the
/// anti-cycling rule (smallest-index leaving row and entering column)
/// engages; any strict progress resets both the streak and the rule.
const BLAND_AFTER: usize = 24;
/// A true-objective reduced cost below this is treated as exactly zero
/// when walking the optimal face: the column is free to enter without
/// moving the objective. Sits well above BTRAN noise (~1e-13) and well
/// below genuinely binding reduced costs (≥ DTOL).
const FACE_TOL: f64 = 1e-9;
/// Minimum tie-break-objective improvement worth a canonicalization pivot.
const WTOL: f64 = 1e-9;

/// Result of a warm (or cold) revised-simplex solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// A verified finite optimum; read it from [`WarmBasis::x`] and
    /// [`WarmBasis::objective_value`].
    Optimal,
    /// No point satisfies the constraints (confirmed by a cold restart).
    Infeasible,
    /// The engine cannot handle this problem (dual-infeasible start,
    /// singular basis, or persistent numerical trouble): the caller should
    /// use the dense solver.
    Unsuitable,
}

/// Lifetime counters of one [`WarmBasis`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Total solves routed through this handle.
    pub solves: u64,
    /// Solves that reused the previous optimal basis (warm starts).
    pub warm_solves: u64,
    /// Solves that restarted from the all-slack basis (first solve, shape
    /// change, or recovery from numerical trouble).
    pub cold_starts: u64,
    /// Dual simplex pivots performed.
    pub pivots: u64,
    /// Basis rebuilds (scheduled refactorizations plus recoveries).
    pub refactorizations: u64,
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Fixed (equal bounds — zero-width box); never enters.
    Fixed,
}

const NOT_BASIC: u32 = u32::MAX;

/// Persistent warm-start state for one prepared problem shape: the sparse
/// column store, the current basis with its eta-file inverse, and per-column
/// bound statuses. Create once per prepared skeleton and pass to
/// [`Problem::solve_warm`] every window; the handle detects shape changes
/// and rebuilds itself (a cold start) automatically.
#[derive(Debug, Clone, Default)]
pub struct WarmBasis {
    // ---- shape ----
    /// Structural variable count of the bound shape.
    n_vars: usize,
    /// Constraint rows of the bound shape.
    m: usize,
    /// Pattern fingerprint of the bound shape (0 = unbound).
    shape: u64,

    // ---- sparse column store (structural columns; slacks implicit) ----
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    col_val: Vec<f64>,
    /// Maps the problem's sequential (row, coefficient-slot) order to the
    /// CSC value slot, so per-window value sync is one linear pass.
    fill_perm: Vec<usize>,

    // ---- per-column data (structural then slacks) ----
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    status: Vec<CStat>,
    /// Non-fixed columns — the only ones pricing ever visits.
    active: Vec<u32>,
    /// Reduced costs (maintained for active columns).
    d: Vec<f64>,

    // ---- basis ----
    basis: Vec<u32>,
    pos_in_basis: Vec<u32>,
    x_basic: Vec<f64>,
    rhs: Vec<f64>,

    // ---- eta file (product-form inverse) ----
    eta_slot: Vec<u32>,
    eta_pivot: Vec<f64>,
    eta_start: Vec<usize>,
    eta_row: Vec<u32>,
    eta_val: Vec<f64>,
    refactor_after: usize,
    /// Eta-file length right after the last rebuild: a refactorization
    /// seeds one eta per structural basic, so the every-k cadence must
    /// count only etas appended *since* then — comparing the raw length
    /// against `refactor_after` would re-trigger immediately whenever the
    /// basis holds more structurals than the cadence allows.
    eta_baseline: usize,

    // ---- scratch ----
    work: Vec<f64>,
    rho: Vec<f64>,
    rho2: Vec<f64>,
    alpha: Vec<f64>,
    /// Basis slots whose column values changed in the last value sync.
    changed_slots: Vec<u32>,
    x_out: Vec<f64>,
    objective: f64,

    // ---- counters ----
    stats: WarmStats,
}

enum LoopResult {
    Optimal,
    Infeasible,
    Trouble,
}

impl WarmBasis {
    /// An unbound handle; the first [`Problem::solve_warm`] binds it to the
    /// problem's shape with a cold start.
    pub fn new() -> Self {
        Self::default()
    }

    /// Structural-variable values of the last optimal solve.
    pub fn x(&self) -> &[f64] {
        &self.x_out
    }

    /// Objective value of the last optimal solve.
    pub fn objective_value(&self) -> f64 {
        self.objective
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// True when the handle currently holds a reusable basis for the last
    /// bound shape.
    pub fn is_warm(&self) -> bool {
        self.shape != 0 && !self.basis.is_empty()
    }

    fn slack_col(&self, row: usize) -> usize {
        self.n_vars + row
    }

    fn ncols(&self) -> usize {
        self.n_vars + self.m
    }

    /// Builds the CSC store and per-column tables for a new shape.
    fn rebuild_store(&mut self, problem: &Problem) {
        let n = problem.n_vars();
        let m = problem.n_constraints();
        self.n_vars = n;
        self.m = m;
        let ncols = n + m;

        // Column counts, then prefix sums.
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        for c in problem.constraints() {
            for &(j, _) in &c.coeffs {
                self.col_ptr[j + 1] += 1;
            }
        }
        for j in 0..n {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        let nnz = self.col_ptr[n];
        self.row_idx.clear();
        self.row_idx.resize(nnz, 0);
        self.col_val.clear();
        self.col_val.resize(nnz, 0.0);
        self.fill_perm.clear();
        self.fill_perm.resize(nnz, 0);
        let mut cursor: Vec<usize> = self.col_ptr[..n].to_vec();
        let mut seq = 0usize;
        for (i, c) in problem.constraints().iter().enumerate() {
            for &(j, v) in &c.coeffs {
                let at = cursor[j];
                cursor[j] += 1;
                self.row_idx[at] = i as u32;
                self.col_val[at] = v;
                self.fill_perm[seq] = at;
                seq += 1;
            }
        }

        self.lower.clear();
        self.lower.resize(ncols, 0.0);
        self.upper.clear();
        self.upper.resize(ncols, f64::INFINITY);
        self.cost.clear();
        self.cost.resize(ncols, 0.0);
        self.status.clear();
        self.status.resize(ncols, CStat::AtLower);
        self.d.clear();
        self.d.resize(ncols, 0.0);
        self.pos_in_basis.clear();
        self.pos_in_basis.resize(ncols, NOT_BASIC);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        for (i, c) in problem.constraints().iter().enumerate() {
            let s = self.slack_col(i);
            match c.rel {
                Relation::Le => {
                    self.lower[s] = 0.0;
                    self.upper[s] = f64::INFINITY;
                }
                Relation::Ge => {
                    self.lower[s] = f64::NEG_INFINITY;
                    self.upper[s] = 0.0;
                }
                Relation::Eq => {
                    self.lower[s] = 0.0;
                    self.upper[s] = 0.0;
                }
            }
        }
        self.work.clear();
        self.work.resize(m, 0.0);
        self.rho.clear();
        self.rho.resize(m, 0.0);
        self.rho2.clear();
        self.rho2.resize(m, 0.0);
        self.alpha.clear();
        self.alpha.resize(ncols, 0.0);
        self.basis.clear();
        self.x_basic.clear();
        self.eta_clear();
        // Refactorization cadence: often enough that FTRAN/BTRAN stay
        // cheap, rarely enough that rebuild cost amortizes.
        self.refactor_after = 96 + m / 8;
        self.shape = problem.pattern_fingerprint();
    }

    /// Syncs mutable problem data (coefficient values, bounds, rhs,
    /// objective) into the store, collecting into `changed_slots` the
    /// basis slots whose columns changed value.
    fn sync_values(&mut self, problem: &Problem) {
        let mut changed_slots = std::mem::take(&mut self.changed_slots);
        changed_slots.clear();
        let mut seq = 0usize;
        for c in problem.constraints() {
            for &(j, v) in &c.coeffs {
                let at = self.fill_perm[seq];
                seq += 1;
                if self.col_val[at].to_bits() != v.to_bits() {
                    self.col_val[at] = v;
                    let p = self.pos_in_basis[j];
                    if p != NOT_BASIC && !changed_slots.contains(&p) {
                        changed_slots.push(p);
                    }
                }
            }
        }
        for (i, c) in problem.constraints().iter().enumerate() {
            self.rhs[i] = c.rhs;
        }
        for (j, ub) in problem.upper_bounds().iter().enumerate() {
            self.upper[j] = match ub {
                Some(u) => u.max(0.0),
                None => f64::INFINITY,
            };
        }
        for (j, &c) in problem.objective().iter().enumerate() {
            self.cost[j] = c;
        }
        self.changed_slots = changed_slots;
    }

    /// Rebuilds the active-column list (everything not fixed to a
    /// zero-width box).
    fn rebuild_active(&mut self) {
        self.active.clear();
        for j in 0..self.ncols() {
            if self.upper[j] - self.lower[j] > PTOL {
                self.active.push(j as u32);
            } else if self.pos_in_basis[j] == NOT_BASIC {
                self.status[j] = CStat::Fixed;
            }
        }
    }

    // ---- eta file ----

    fn eta_clear(&mut self) {
        self.eta_baseline = 0;
        self.eta_slot.clear();
        self.eta_pivot.clear();
        self.eta_start.clear();
        self.eta_start.push(0);
        self.eta_row.clear();
        self.eta_val.clear();
    }

    fn eta_count(&self) -> usize {
        self.eta_slot.len()
    }

    /// Appends the eta for pivoting column `w` (dense, length m) into slot
    /// `p`. `w[p]` is the pivot element.
    fn eta_push(&mut self, p: usize, w: &[f64]) {
        self.eta_slot.push(p as u32);
        self.eta_pivot.push(w[p]);
        for (i, &v) in w.iter().enumerate() {
            if i != p && v.abs() > ETA_DROP {
                self.eta_row.push(i as u32);
                self.eta_val.push(v);
            }
        }
        self.eta_start.push(self.eta_row.len());
    }

    /// Applies the basis inverse: `v ← B⁻¹ v` (forward transform).
    fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.eta_count() {
            let p = self.eta_slot[k] as usize;
            let t = v[p] / self.eta_pivot[k];
            // Exact-zero skip of an untouched pivot entry, not a tolerance.
            if t != 0.0 { // covenant: allow(float-eq)
                for at in self.eta_start[k]..self.eta_start[k + 1] {
                    v[self.eta_row[at] as usize] -= self.eta_val[at] * t;
                }
            }
            v[p] = t;
        }
    }

    /// Applies the transposed inverse: `v ← B⁻ᵀ v` (backward transform).
    fn btran(&self, v: &mut [f64]) {
        for k in (0..self.eta_count()).rev() {
            let p = self.eta_slot[k] as usize;
            let mut s = v[p];
            for at in self.eta_start[k]..self.eta_start[k + 1] {
                s -= self.eta_val[at] * v[self.eta_row[at] as usize];
            }
            v[p] = s / self.eta_pivot[k];
        }
    }

    /// Scatters column `j` (structural or slack) into dense `out`
    /// (zeroed first).
    fn scatter_column(&self, j: usize, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = 0.0;
        }
        if j < self.n_vars {
            for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                out[self.row_idx[at] as usize] += self.col_val[at];
            }
        } else {
            out[j - self.n_vars] = 1.0;
        }
    }

    /// `ρ · A_j` without materializing the column.
    fn dot_column(&self, j: usize, rho: &[f64]) -> f64 {
        if j < self.n_vars {
            let mut s = 0.0;
            for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                s += self.col_val[at] * rho[self.row_idx[at] as usize];
            }
            s
        } else {
            rho[j - self.n_vars]
        }
    }

    /// Rebuilds the eta file from the identity (slack) basis by pivoting in
    /// every non-slack basic column. Fails on a (numerically) singular
    /// basis.
    fn refactorize(&mut self) -> Result<(), ()> {
        self.stats.refactorizations += 1;
        self.eta_clear();
        let m = self.m;
        // Slot assignment restarts: basic slacks claim their own rows; the
        // remaining rows are free for the structural basics.
        let mut free: Vec<bool> = vec![true; m];
        let mut cols: Vec<u32> = Vec::new();
        for &c in &self.basis {
            let j = c as usize;
            if j >= self.n_vars {
                free[j - self.n_vars] = false;
            } else {
                cols.push(c);
            }
        }
        // Sparsest columns first keeps eta fill-in low.
        cols.sort_by_key(|&c| {
            let j = c as usize;
            (self.col_ptr[j + 1] - self.col_ptr[j], c)
        });
        let mut new_basis: Vec<u32> = (0..m).map(|r| self.slack_col(r) as u32).collect();
        for &c in &cols {
            let j = c as usize;
            let mut w = std::mem::take(&mut self.work);
            self.scatter_column(j, &mut w);
            self.ftran(&mut w);
            let mut best = usize::MAX;
            let mut best_abs = PIV_TOL;
            for (r, ok) in free.iter().enumerate() {
                if *ok && w[r].abs() > best_abs {
                    best_abs = w[r].abs();
                    best = r;
                }
            }
            if best == usize::MAX {
                self.work = w;
                return Err(());
            }
            self.eta_push(best, &w);
            free[best] = false;
            new_basis[best] = c;
            self.work = w;
        }
        self.basis = new_basis;
        for p in self.pos_in_basis.iter_mut() {
            *p = NOT_BASIC;
        }
        for (r, &c) in self.basis.iter().enumerate() {
            self.pos_in_basis[c as usize] = r as u32;
        }
        self.eta_baseline = self.eta_count();
        Ok(())
    }

    /// The value a nonbasic column currently sits at.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            CStat::AtUpper => self.upper[j],
            CStat::Basic => unreachable!("nonbasic_value on basic column"),
            _ => {
                if self.lower[j].is_finite() {
                    self.lower[j]
                } else {
                    0.0
                }
            }
        }
    }

    /// Recomputes basic values `x_B = B⁻¹ (b − N x_N)`.
    fn compute_x_basic(&mut self) {
        let mut w = std::mem::take(&mut self.work);
        w.copy_from_slice(&self.rhs);
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                continue;
            }
            let v = self.nonbasic_value(j);
            // Exact-zero value skip (most nonbasics sit at zero).
            if v != 0.0 { // covenant: allow(float-eq)
                if j < self.n_vars {
                    for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                        w[self.row_idx[at] as usize] -= self.col_val[at] * v;
                    }
                } else {
                    w[j - self.n_vars] -= v;
                }
            }
        }
        self.ftran(&mut w);
        self.x_basic.clear();
        self.x_basic.extend_from_slice(&w);
        self.work = w;
    }

    /// Recomputes reduced costs `d_j = c_j − y·A_j`, `y = B⁻ᵀ c_B`, for
    /// every active column.
    fn compute_reduced_costs(&mut self) {
        let mut y = std::mem::take(&mut self.rho);
        for (r, v) in y.iter_mut().enumerate() {
            *v = self.cost[self.basis[r] as usize];
        }
        self.btran(&mut y);
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            self.d[j] = if self.pos_in_basis[j] != NOT_BASIC {
                0.0
            } else {
                self.cost[j] - self.dot_column(j, &y)
            };
        }
        self.rho = y;
    }

    /// Makes every nonbasic active column dual feasible, flipping to the
    /// opposite bound where the reduced-cost sign demands it. Fails when a
    /// flip target is unbounded (the dense solver must take over).
    fn repair_statuses(&mut self) -> Result<(), ()> {
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                self.status[j] = CStat::Basic;
                continue;
            }
            // A previously fixed column whose box re-opened re-enters the
            // nonbasic pool at a bound chosen by its reduced cost below.
            let mut st = self.status[j];
            if st == CStat::Basic || st == CStat::Fixed {
                st = CStat::AtLower;
            }
            // Never park on an infinite bound.
            if st == CStat::AtUpper && !self.upper[j].is_finite() {
                st = CStat::AtLower;
            }
            if st == CStat::AtLower && !self.lower[j].is_finite() {
                st = CStat::AtUpper;
            }
            let d = self.d[j];
            if st == CStat::AtLower && d > DTOL {
                if self.upper[j].is_finite() {
                    st = CStat::AtUpper;
                } else {
                    return Err(());
                }
            } else if st == CStat::AtUpper && d < -DTOL {
                if self.lower[j].is_finite() {
                    st = CStat::AtLower;
                } else {
                    return Err(());
                }
            }
            if !(match st {
                CStat::AtLower => self.lower[j].is_finite(),
                CStat::AtUpper => self.upper[j].is_finite(),
                _ => true,
            }) {
                return Err(());
            }
            self.status[j] = st;
        }
        Ok(())
    }

    /// Resets to the all-slack basis with statuses chosen by cost sign.
    fn reset_to_slack_basis(&mut self) -> Result<(), ()> {
        self.stats.cold_starts += 1;
        self.eta_clear();
        self.basis.clear();
        for r in 0..self.m {
            self.basis.push(self.slack_col(r) as u32);
        }
        for p in self.pos_in_basis.iter_mut() {
            *p = NOT_BASIC;
        }
        for (r, &c) in self.basis.iter().enumerate() {
            self.pos_in_basis[c as usize] = r as u32;
        }
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                self.status[j] = CStat::Basic;
                continue;
            }
            // y = 0 ⇒ d_j = c_j: positive costs must start at a finite
            // upper bound, everything else at the (finite) lower bound.
            self.status[j] = if self.cost[j] > DTOL {
                if !self.upper[j].is_finite() {
                    return Err(());
                }
                CStat::AtUpper
            } else if self.lower[j].is_finite() {
                CStat::AtLower
            } else if self.upper[j].is_finite() {
                CStat::AtUpper
            } else {
                return Err(());
            };
            self.d[j] = self.cost[j];
        }
        Ok(())
    }

    /// The dual simplex loop: repair primal feasibility while preserving
    /// dual feasibility. Assumes `x_basic` and `d` are current.
    fn dual_simplex(&mut self) -> LoopResult {
        let m = self.m;
        let max_iters = 200 + 12 * (m + self.active.len());
        let mut streak = 0usize;
        let mut refactored_here = false;
        for _ in 0..max_iters {
            if self.eta_count() > self.eta_baseline + self.refactor_after {
                if self.refactorize().is_err() {
                    return LoopResult::Trouble;
                }
                self.compute_x_basic();
            }
            let bland = streak >= BLAND_AFTER;
            // Leaving row: worst bound violation (Bland: first violation).
            let mut r = usize::MAX;
            let mut worst = PTOL;
            for (i, &x) in self.x_basic.iter().enumerate() {
                let b = self.basis[i] as usize;
                let viol = (self.lower[b] - x).max(x - self.upper[b]);
                if viol > worst {
                    r = i;
                    worst = viol;
                    if bland {
                        break;
                    }
                }
            }
            if r == usize::MAX {
                return LoopResult::Optimal;
            }
            let leaving = self.basis[r] as usize;
            // σ = +1: too high, must decrease; σ = −1: too low, must rise.
            let sigma = if self.x_basic[r] > self.upper[leaving] { 1.0 } else { -1.0 };

            // ρ = B⁻ᵀ e_r, then α_j = ρ·A_j for the active nonbasics.
            let mut rho = std::mem::take(&mut self.rho);
            for v in rho.iter_mut() {
                *v = 0.0;
            }
            rho[r] = 1.0;
            self.btran(&mut rho);

            // Dual ratio test over eligible columns: min |d_j/α_j|, larger
            // |α| on ties (Bland: smallest eligible column id wins ties).
            let mut q = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_abs = 0.0;
            for k in 0..self.active.len() {
                let j = self.active[k] as usize;
                let st = self.status[j];
                if st != CStat::AtLower && st != CStat::AtUpper {
                    self.alpha[j] = 0.0;
                    continue;
                }
                let a = self.dot_column(j, &rho);
                self.alpha[j] = a;
                let eligible = match st {
                    CStat::AtLower => sigma * a > PIV_TOL,
                    CStat::AtUpper => sigma * a < -PIV_TOL,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                let ratio = (self.d[j] / a).abs();
                let better = if bland {
                    ratio < best_ratio - 1e-12 || (ratio < best_ratio + 1e-12 && j < q)
                } else {
                    ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12 && a.abs() > best_abs)
                };
                if better {
                    q = j;
                    best_ratio = ratio;
                    best_abs = a.abs();
                }
            }
            self.rho = rho;
            if q == usize::MAX {
                // A violated row no entering column can fix: primal empty.
                return LoopResult::Infeasible;
            }

            // w = B⁻¹ A_q; its r-th entry is the pivot.
            let mut w = std::mem::take(&mut self.work);
            self.scatter_column(q, &mut w);
            self.ftran(&mut w);
            if w[r].abs() < PIV_TOL {
                // FTRAN disagrees with BTRAN pricing: factorization has
                // drifted. Rebuild once and retry; twice is fatal.
                if refactored_here || self.refactorize().is_err() {
                    self.work = w;
                    return LoopResult::Trouble;
                }
                refactored_here = true;
                self.compute_x_basic();
                self.compute_reduced_costs();
                self.work = w;
                continue;
            }
            refactored_here = false;

            // Step: drive the leaving variable exactly to its violated
            // bound; the entering variable absorbs the difference.
            let target = if sigma > 0.0 { self.upper[leaving] } else { self.lower[leaving] };
            let delta = (self.x_basic[r] - target) / w[r];
            for (i, x) in self.x_basic.iter_mut().enumerate() {
                if i != r {
                    *x -= w[i] * delta;
                }
            }
            self.x_basic[r] = self.nonbasic_value(q) + delta;

            // Dual step γ zeroes the entering reduced cost.
            let gamma = self.d[q] / self.alpha[q];
            for k in 0..self.active.len() {
                let j = self.active[k] as usize;
                let st = self.status[j];
                if st == CStat::AtLower || st == CStat::AtUpper {
                    self.d[j] -= gamma * self.alpha[j];
                }
            }
            self.d[q] = 0.0;
            self.d[leaving] = -gamma;

            self.status[leaving] = if self.upper[leaving] - self.lower[leaving] <= PTOL {
                CStat::Fixed
            } else if sigma > 0.0 {
                CStat::AtUpper
            } else {
                CStat::AtLower
            };
            self.status[q] = CStat::Basic;
            self.pos_in_basis[leaving] = NOT_BASIC;
            self.pos_in_basis[q] = r as u32;
            self.basis[r] = q as u32;
            self.eta_push(r, &w);
            self.work = w;
            self.stats.pivots += 1;

            // Degeneracy streak: the dual objective moves by |γ|·|violation|.
            if gamma.abs() * worst > 1e-12 {
                streak = 0;
            } else {
                streak = streak.saturating_add(1);
            }
        }
        LoopResult::Trouble
    }

    /// Deterministic tie-break weight of column `j`: positive, strictly
    /// decreasing in the column id, generic enough that the weighted
    /// optimum over an optimal face is (generically) unique. Slack columns
    /// carry no weight — canonicalization orients *structural* variables.
    fn tiebreak_weight(&self, j: usize) -> f64 {
        if j < self.n_vars {
            1.0 / (j as f64 + 2.0)
        } else {
            0.0
        }
    }

    /// Walks the optimal face to its canonical vertex.
    ///
    /// The dual phase stops at *some* vertex of the optimal face, and
    /// which one depends on the starting basis — i.e. on solve history.
    /// Distributed enforcement needs the plan to be a function of the
    /// problem alone: every redirector solves the same global window LP
    /// and releases its own share of the plan, so two redirectors whose
    /// warm bases evolved differently must not land on different
    /// (mirror-image) optimal assignments, or their combined releases
    /// overload one server while another idles. The cold dense solver had
    /// this history independence for free; this pass restores it for the
    /// warm engine. Holding the true objective at its optimum — only
    /// columns whose true reduced cost is zero may enter, so every step
    /// stays on the optimal face — it maximizes a fixed generic secondary
    /// weight with primal simplex steps. The endpoint, the weight-maximal
    /// vertex of the face, is unique for generic weights and therefore
    /// independent of whichever optimal basis the dual phase reached.
    ///
    /// Errors only when a refactorization fails (basis left unusable; the
    /// caller must fall back). Hitting the iteration cap exits cleanly:
    /// the point is still optimal and feasible, merely not canonical.
    fn canonicalize(&mut self) -> Result<(), ()> {
        let m = self.m;
        let max_iters = 100 + 4 * (m + self.active.len());
        let mut streak = 0usize;
        for _ in 0..max_iters {
            if self.eta_count() > self.eta_baseline + self.refactor_after {
                self.refactorize()?;
                self.compute_x_basic();
            }
            // Fresh duals for both objectives at the current basis:
            // yc = B⁻ᵀ c_B gates face membership, yw = B⁻ᵀ w_B prices the
            // tie-break. Both are recomputed per pivot — canonicalization
            // takes few steps, and exact face membership matters more than
            // incremental-update speed.
            let mut yc = std::mem::take(&mut self.rho);
            let mut yw = std::mem::take(&mut self.rho2);
            for r in 0..m {
                let b = self.basis[r] as usize;
                yc[r] = self.cost[b];
                yw[r] = self.tiebreak_weight(b);
            }
            self.btran(&mut yc);
            self.btran(&mut yw);

            // Entering column: largest tie-break improvement among
            // zero-true-reduced-cost nonbasics (Bland: smallest id — the
            // active list is ascending, so "first eligible" is exactly
            // that; strict `>` keeps the smallest id on Dantzig ties too).
            let bland = streak >= BLAND_AFTER;
            let mut q = usize::MAX;
            let mut q_dw = 0.0;
            let mut best = WTOL;
            for k in 0..self.active.len() {
                let j = self.active[k] as usize;
                let st = self.status[j];
                if st != CStat::AtLower && st != CStat::AtUpper {
                    continue;
                }
                let dc = self.cost[j] - self.dot_column(j, &yc);
                if dc.abs() > FACE_TOL {
                    continue;
                }
                let dw = self.tiebreak_weight(j) - self.dot_column(j, &yw);
                let improving = match st {
                    CStat::AtLower => dw > WTOL,
                    _ => dw < -WTOL,
                };
                if !improving {
                    continue;
                }
                if bland {
                    q = j;
                    q_dw = dw;
                    break;
                }
                if dw.abs() > best {
                    q = j;
                    q_dw = dw;
                    best = dw.abs();
                }
            }
            self.rho = yc;
            self.rho2 = yw;
            if q == usize::MAX {
                return Ok(());
            }
            // Direction sign: entering rises off its lower bound or falls
            // off its upper bound.
            let s = if self.status[q] == CStat::AtLower { 1.0 } else { -1.0 };

            let mut w = std::mem::take(&mut self.work);
            self.scatter_column(q, &mut w);
            self.ftran(&mut w);

            // Bounded ratio test: the entering column moves by t ≥ 0,
            // basic i by −s·w[i]·t; the first bound hit wins (larger
            // pivot magnitude on ties, then smaller row — deterministic).
            let mut t = self.upper[q] - self.lower[q]; // own bound flip
            let mut leave = usize::MAX;
            let mut leave_up = false;
            let mut best_piv = 0.0;
            for (i, &wi) in w.iter().enumerate() {
                let step = s * wi;
                let b = self.basis[i] as usize;
                let (limit, up) = if step > PIV_TOL && self.lower[b].is_finite() {
                    ((self.x_basic[i] - self.lower[b]) / step, false)
                } else if step < -PIV_TOL && self.upper[b].is_finite() {
                    ((self.upper[b] - self.x_basic[i]) / (-step), true)
                } else {
                    continue;
                };
                let limit = limit.max(0.0);
                if limit < t - 1e-12
                    || (limit < t + 1e-12 && leave != usize::MAX && wi.abs() > best_piv)
                {
                    t = limit;
                    leave = i;
                    leave_up = up;
                    best_piv = wi.abs();
                }
            }
            if !t.is_finite() {
                // Numerically unbounded tie-break direction (cannot happen
                // with boxed structural columns): stop with the current
                // optimal point rather than guessing a step.
                self.work = w;
                return Ok(());
            }

            if leave == usize::MAX {
                // Bound flip: the entering column crosses its own box; the
                // basis is unchanged.
                for (i, &wi) in w.iter().enumerate() {
                    self.x_basic[i] -= s * wi * t;
                }
                self.status[q] = if s > 0.0 { CStat::AtUpper } else { CStat::AtLower };
            } else {
                if w[leave].abs() < PIV_TOL {
                    self.work = w;
                    self.refactorize()?;
                    self.compute_x_basic();
                    continue;
                }
                let leaving = self.basis[leave] as usize;
                for (i, x) in self.x_basic.iter_mut().enumerate() {
                    if i != leave {
                        *x -= s * w[i] * t;
                    }
                }
                self.x_basic[leave] = self.nonbasic_value(q) + s * t;
                self.status[leaving] = if self.upper[leaving] - self.lower[leaving] <= PTOL {
                    CStat::Fixed
                } else if leave_up {
                    CStat::AtUpper
                } else {
                    CStat::AtLower
                };
                self.status[q] = CStat::Basic;
                self.pos_in_basis[leaving] = NOT_BASIC;
                self.pos_in_basis[q] = leave as u32;
                self.basis[leave] = q as u32;
                self.eta_push(leave, &w);
                self.stats.pivots += 1;
            }
            self.work = w;

            // Progress is tie-break-objective gain; degenerate steps feed
            // the anti-cycling streak.
            if q_dw.abs() * t > 1e-12 {
                streak = 0;
            } else {
                streak = streak.saturating_add(1);
            }
        }
        Ok(())
    }

    /// Extracts the structural solution and objective.
    fn extract(&mut self, problem: &Problem) {
        self.x_out.clear();
        self.x_out.resize(self.n_vars, 0.0);
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if j >= self.n_vars {
                continue;
            }
            let p = self.pos_in_basis[j];
            let v = if p != NOT_BASIC {
                self.x_basic[p as usize]
            } else {
                self.nonbasic_value(j)
            };
            self.x_out[j] = v.max(0.0);
        }
        self.objective = problem.objective_at(&self.x_out);
    }

    /// One full attempt from the current basis. `x_basic` and `d` must not
    /// be assumed current; they are recomputed here.
    fn attempt(&mut self, problem: &Problem) -> LoopResult {
        self.compute_reduced_costs();
        if self.repair_statuses().is_err() {
            return LoopResult::Trouble;
        }
        self.compute_x_basic();
        let out = self.dual_simplex();
        if let LoopResult::Optimal = out {
            if self.canonicalize().is_err() {
                return LoopResult::Trouble;
            }
            self.extract(problem);
            if !problem.is_feasible(&self.x_out, VERIFY_TOL) {
                return LoopResult::Trouble;
            }
        }
        out
    }

    /// Cold path: rebuild nothing but the basis — reset to slacks and solve.
    fn cold_attempt(&mut self, problem: &Problem) -> WarmOutcome {
        if self.reset_to_slack_basis().is_err() {
            self.shape = 0; // force rebuild next time
            return WarmOutcome::Unsuitable;
        }
        match self.attempt(problem) {
            LoopResult::Optimal => WarmOutcome::Optimal,
            LoopResult::Infeasible => WarmOutcome::Infeasible,
            LoopResult::Trouble => {
                self.shape = 0;
                WarmOutcome::Unsuitable
            }
        }
    }

    /// Solves `problem` through this handle. See [`Problem::solve_warm`].
    pub(crate) fn solve(&mut self, problem: &Problem) -> WarmOutcome {
        self.stats.solves += 1;
        let same_shape = self.shape != 0 && self.shape == problem.pattern_fingerprint();
        if !same_shape {
            self.rebuild_store(problem);
            self.sync_values(problem);
            self.rebuild_active();
            return self.cold_attempt(problem);
        }

        self.sync_values(problem);
        self.rebuild_active();
        if self.basis.is_empty() {
            return self.cold_attempt(problem);
        }

        // Rank-one basis updates for changed basic columns (the θ column,
        // most windows); a near-singular replacement forces a rebuild.
        let mut need_refactor = false;
        let changed_slots = std::mem::take(&mut self.changed_slots);
        for &p in &changed_slots {
            let p = p as usize;
            let mut w = std::mem::take(&mut self.work);
            self.scatter_column(self.basis[p] as usize, &mut w);
            self.ftran(&mut w);
            if w[p].abs() < PIV_TOL {
                need_refactor = true;
                self.work = w;
                break;
            }
            self.eta_push(p, &w);
            self.work = w;
        }
        self.changed_slots = changed_slots;
        if need_refactor && self.refactorize().is_err() {
            return self.cold_attempt(problem);
        }

        self.stats.warm_solves += 1;
        match self.attempt(problem) {
            LoopResult::Optimal => WarmOutcome::Optimal,
            // Dual-simplex infeasibility proofs are exact in exact
            // arithmetic but tolerance-based here; confirm from a clean
            // start before reporting an empty feasible region.
            LoopResult::Infeasible => self.cold_attempt(problem),
            LoopResult::Trouble => self.cold_attempt(problem),
        }
    }
}

impl Problem {
    /// Solves through a persistent [`WarmBasis`]: a warm-started dual
    /// simplex over sparse columns when the handle already holds this
    /// problem shape's basis, a cold (all-slack-basis) dual simplex
    /// otherwise. On [`WarmOutcome::Optimal`] the solution is read from
    /// [`WarmBasis::x`] / [`WarmBasis::objective_value`] without
    /// allocating. [`WarmOutcome::Unsuitable`] means this engine cannot
    /// solve the problem (e.g. a positive-cost variable with no upper
    /// bound makes the slack basis dual infeasible) — use
    /// [`Problem::solve_in_place`] instead.
    pub fn solve_warm(&self, warm: &mut WarmBasis) -> WarmOutcome {
        warm.solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpOutcome, Relation};

    fn assert_matches_reference(p: &Problem, warm: &mut WarmBasis) {
        let out = p.solve_warm(warm);
        match p.solve_reference() {
            LpOutcome::Optimal(s) => {
                assert_eq!(out, WarmOutcome::Optimal, "reference optimal {}", s.objective);
                assert!(
                    (warm.objective_value() - s.objective).abs() < 1e-6,
                    "warm {} vs reference {}",
                    warm.objective_value(),
                    s.objective
                );
                assert!(p.is_feasible(warm.x(), 1e-6));
            }
            LpOutcome::Infeasible => assert_eq!(out, WarmOutcome::Infeasible),
            other => panic!("reference returned {other:?}"),
        }
    }

    #[test]
    fn basic_two_var_max() {
        let mut p = Problem::new(2);
        p.set_objective(vec![3.0, 2.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        p.set_upper_bound(0, 10.0);
        p.set_upper_bound(1, 10.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() - 12.0).abs() < 1e-9);
        assert!((warm.x()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ge_and_eq_constraints() {
        let mut p = Problem::new(2);
        p.set_objective(vec![-1.0, -1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() + 2.0).abs() < 1e-9);
        assert!((warm.x()[0] - 0.5).abs() < 1e-9);
        assert!((warm.x()[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_no_normalization_needed() {
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, -1.0);
        p.set_upper_bound(0, 50.0);
        p.set_upper_bound(1, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.x()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.solve_warm(&mut WarmBasis::new()), WarmOutcome::Infeasible);
    }

    #[test]
    fn unbounded_is_unsuitable() {
        // max x with x free above: the slack basis cannot be made dual
        // feasible, so the engine hands off to the dense solver.
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve_warm(&mut WarmBasis::new()), WarmOutcome::Unsuitable);
    }

    #[test]
    fn bounded_by_upper_bounds_only() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 2.0, 3.0]);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 2.0);
        p.set_upper_bound(2, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.x(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_variable_problems() {
        let p = Problem::new(0);
        let mut warm = WarmBasis::new();
        assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal);
        assert_eq!(warm.objective_value(), 0.0);
        let mut p = Problem::new(0);
        p.add_constraint(vec![], Relation::Ge, 1.0);
        assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Infeasible);
    }

    #[test]
    fn community_theta_shape() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 0.0, 0.0]);
        p.set_upper_bound(0, 1.0);
        p.add_constraint(vec![(1, 1.0), (0, -40.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(2, 1.0), (0, -20.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
        p.set_upper_bound(1, 40.0);
        p.set_upper_bound(2, 20.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.x()[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warm_resolve_after_rhs_change_reuses_basis() {
        // A θ-style program whose rhs and θ-coefficients drift per window.
        let build = |q: [f64; 2]| {
            let mut p = Problem::new(3);
            p.set_objective(vec![1.0, 0.0, 0.0]);
            p.set_upper_bound(0, 1.0);
            p.add_constraint(vec![(0, -q[0]), (1, 1.0)], Relation::Ge, 0.0);
            p.add_constraint(vec![(0, -q[1]), (2, 1.0)], Relation::Ge, 0.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
            p.add_constraint(vec![(1, 1.0)], Relation::Le, q[0]);
            p.add_constraint(vec![(2, 1.0)], Relation::Le, q[1]);
            p.set_upper_bound(1, 40.0);
            p.set_upper_bound(2, 20.0);
            p
        };
        let mut warm = WarmBasis::new();
        let windows = [[40.0, 20.0], [41.0, 19.5], [39.0, 21.0], [45.0, 18.0], [40.0, 20.0]];
        for q in windows {
            assert_matches_reference(&build(q), &mut warm);
        }
        let stats = warm.stats();
        assert_eq!(stats.solves, 5);
        assert!(stats.warm_solves >= 4, "stats {stats:?}");
        assert_eq!(stats.cold_starts, 1);
    }

    #[test]
    fn value_updates_stay_warm_and_added_rows_cold_start() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 0.0, 0.0]);
        p.set_upper_bound(0, 1.0);
        p.add_constraint(vec![(0, -40.0), (1, 1.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(0, -20.0), (2, 1.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
        p.set_upper_bound(1, 40.0);
        p.set_upper_bound(2, 20.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.stats().cold_starts, 1);
        // Every kind of value update: rhs, coefficient, bound, objective.
        p.set_constraint_rhs(2, 27.0);
        p.set_constraint_coeff(0, 0, -44.0);
        p.set_upper_bound_exact(2, 18.0);
        p.set_objective(vec![1.0, 0.0, 0.001]);
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.stats().cold_starts, 1, "value updates must keep the basis");
        assert_eq!(warm.stats().warm_solves, 1);
        // One added row is a new shape: the handle must rebind cold.
        let mut grown = p.clone();
        grown.add_constraint(vec![(1, 1.0)], Relation::Le, 10.0);
        assert_matches_reference(&grown, &mut warm);
        assert_eq!(warm.stats().cold_starts, 2, "an added row must cold-start");
    }

    #[test]
    fn optimal_vertex_is_history_independent() {
        // A mirror-symmetric window LP: two principals, two equal servers,
        // pure-θ objective. The optimal face is fat (any split of each
        // principal across the servers achieves θ*), so without the
        // canonicalization pass the returned vertex depends on the basis
        // the dual phase started from. Distributed enforcement requires
        // the plan to be a function of the problem alone: handles with
        // different solve histories must agree on the same vertex.
        // Columns: θ, x_A1, x_A2, x_B1, x_B2.
        let build = |q: [f64; 2]| {
            let mut p = Problem::new(5);
            p.set_objective(vec![1.0, 0.0, 0.0, 0.0, 0.0]);
            p.set_upper_bound(0, 1.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0), (0, -q[0])], Relation::Ge, 0.0);
            p.add_constraint(vec![(3, 1.0), (4, 1.0), (0, -q[1])], Relation::Ge, 0.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, q[0]);
            p.add_constraint(vec![(3, 1.0), (4, 1.0)], Relation::Le, q[1]);
            p.add_constraint(vec![(1, 1.0), (3, 1.0)], Relation::Le, 16.0);
            p.add_constraint(vec![(2, 1.0), (4, 1.0)], Relation::Le, 16.0);
            for j in 1..5 {
                p.set_upper_bound(j, 16.0);
            }
            p
        };
        // Two handles with deliberately different warm histories.
        let mut warm_a = WarmBasis::new();
        let mut warm_b = WarmBasis::new();
        for q in [[90.0, 84.0], [94.75, 84.0], [89.5, 90.5]] {
            assert_eq!(build(q).solve_warm(&mut warm_a), WarmOutcome::Optimal);
        }
        for q in [[30.0, 69.0], [70.0, 84.0], [89.5, 69.0], [70.0, 30.0]] {
            assert_eq!(build(q).solve_warm(&mut warm_b), WarmOutcome::Optimal);
        }
        let p = build([90.0, 90.0]);
        assert_eq!(p.solve_warm(&mut warm_a), WarmOutcome::Optimal);
        assert_eq!(p.solve_warm(&mut warm_b), WarmOutcome::Optimal);
        for j in 0..5 {
            assert!(
                (warm_a.x()[j] - warm_b.x()[j]).abs() < 1e-8,
                "histories disagree at {j}: {:?} vs {:?}",
                warm_a.x(),
                warm_b.x()
            );
        }
        // Re-solving the identical problem must be a fixpoint: same
        // vertex, and no pivots at all (the canonical vertex prices out).
        let x_prev = warm_a.x().to_vec();
        let pivots_prev = warm_a.stats().pivots;
        assert_eq!(p.solve_warm(&mut warm_a), WarmOutcome::Optimal);
        assert_eq!(warm_a.x(), &x_prev[..]);
        assert_eq!(warm_a.stats().pivots, pivots_prev);
    }

    #[test]
    fn shape_change_triggers_cold_restart() {
        let mut p1 = Problem::new(2);
        p1.set_objective(vec![1.0, 1.0]);
        p1.set_upper_bound(0, 5.0);
        p1.set_upper_bound(1, 5.0);
        p1.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        let mut p2 = Problem::new(3);
        p2.set_objective(vec![1.0, 1.0, 1.0]);
        for j in 0..3 {
            p2.set_upper_bound(j, 5.0);
        }
        p2.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 6.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p1, &mut warm);
        assert_matches_reference(&p2, &mut warm);
        assert_matches_reference(&p1, &mut warm);
        assert_eq!(warm.stats().cold_starts, 3);
        assert_eq!(warm.stats().warm_solves, 0);
    }

    #[test]
    fn fixed_columns_stay_out_of_the_basis() {
        // Middle variable boxed to zero: it must never enter.
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 5.0, 1.0]);
        p.set_upper_bound(0, 2.0);
        p.set_upper_bound(1, 0.0);
        p.set_upper_bound(2, 2.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.x()[1], 0.0);
        assert!((warm.objective_value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bound_widening_reactivates_fixed_columns() {
        // Provider-style: a queue going 0 → positive re-opens the box.
        let build = |q: f64| {
            let mut p = Problem::new(2);
            p.set_objective(vec![2.0, 1.0]);
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 10.0);
            p.set_upper_bound_exact(0, 8.0);
            p.set_upper_bound_exact(1, q);
            p
        };
        let mut warm = WarmBasis::new();
        for q in [0.0, 0.0, 6.0, 3.0, 0.0, 6.0] {
            assert_matches_reference(&build(q), &mut warm);
        }
    }

    #[test]
    fn degenerate_beale_with_boxes() {
        // Beale's cycling example, boxed so the dual engine can start.
        let mut p = Problem::new(4);
        p.set_objective(vec![0.75, -150.0, 0.02, -6.0]);
        for j in 0..4 {
            p.set_upper_bound(j, 100.0);
        }
        p.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], Relation::Le, 0.0);
        p.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], Relation::Le, 0.0);
        p.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn many_windows_force_refactorization() {
        // Enough drifting windows to exceed the eta budget several times.
        let build = |t: f64| {
            let mut p = Problem::new(4);
            p.set_objective(vec![1.0, 2.0, 3.0, 4.0]);
            for j in 0..4 {
                p.set_upper_bound(j, 5.0 + (j as f64));
            }
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0 + t);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 5.0 - t * 0.5);
            p.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Le, 6.0 + t * 0.25);
            p.add_constraint(vec![(0, 1.0), (3, 1.0)], Relation::Ge, 1.0 + t * 0.1);
            p
        };
        let mut warm = WarmBasis::new();
        for w in 0..400 {
            let t = (w % 7) as f64 * 0.37;
            assert_matches_reference(&build(t), &mut warm);
        }
        assert!(warm.stats().warm_solves > 300);
    }
}
