//! Warm-solver smoke gate for tier-1: steady-state window solves at
//! n = 256 principals must stay far inside the paper's 100 ms window
//! budget, the window LP must have one column per agreement-backed pair
//! (507 here, not 1 + 256²), and the warm engine must never hand a window
//! of this shape to the dense fallback.
//!
//! The run primes a prepared community skeleton with one cold window,
//! then solves a sequence of rhs-perturbed windows through the persistent
//! warm basis — the exact steady-state path `WindowScheduler` drives every
//! scheduling window — and fails loudly (nonzero exit) if any warm window
//! exceeds a conservative fraction of the budget.

use covenant_bench::bipartite_graph;
use covenant_lp::SimplexWorkspace;
use covenant_sched::PreparedCommunity;
use std::time::Instant;

/// Principal count of the gated workload.
const N: usize = 256;
/// Perturbed steady-state windows to drive.
const WINDOWS: usize = 24;
/// LP columns of the gated workload: θ plus its 506 agreement-backed pairs.
const COLUMNS: usize = 507;
/// Per-window warm-solve budget: a twentieth of the paper's 100 ms window
/// and about ten times the worst warm window measured on a 2-vCPU host.
const BUDGET_MS: f64 = 5.0;

fn main() {
    // Two-tier provider/consumer community: keeps the exact path closure
    // linear so the gate times the LP, not workload construction.
    let g = bipartite_graph(N, 42);
    let levels = g.access_levels().scaled(0.1);
    let mut prepared = PreparedCommunity::new(&levels, None);
    let mut ws = SimplexWorkspace::new();

    let base: Vec<f64> = (0..N).map(|i| 10.0 + (i as f64) * 3.0).collect();
    let columns = prepared.window_problem(&base).n_vars();
    assert_eq!(columns, COLUMNS, "window LP must be sized by its agreements");
    let cold_start = Instant::now();
    let plan = prepared.plan_with(&mut ws, &base);
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    assert!(plan.theta.unwrap_or(0.0) > 0.0, "cold window produced an empty plan");

    let mut worst_ms: f64 = 0.0;
    for w in 0..WINDOWS {
        // Window-to-window queue drift: a few percent, like the EWMA
        // estimator produces in the figure scenarios' steady phases.
        let queues: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, q)| q * (1.0 + 0.03 * (((w + i) % 7) as f64 - 3.0) / 3.0))
            .collect();
        let start = Instant::now();
        let plan = prepared.plan_with(&mut ws, &queues);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        worst_ms = worst_ms.max(ms);
        assert!(plan.theta.unwrap_or(0.0) > 0.0, "window {w} produced an empty plan");
        assert!(
            ms < BUDGET_MS,
            "warm window {w} took {ms:.2} ms (budget {BUDGET_MS} ms)"
        );
    }

    let stats = prepared.warm_stats();
    assert_eq!(
        prepared.dense_fallbacks(),
        0,
        "warm engine refused a steady-state window"
    );
    assert!(
        stats.warm_solves >= WINDOWS as u64,
        "expected ≥{WINDOWS} warm solves, got {stats:?}"
    );
    println!(
        "lp smoke: n={N} ({columns} columns) cold {cold_ms:.2} ms, {WINDOWS} warm windows worst \
         {worst_ms:.2} ms (budget {BUDGET_MS} ms), {} pivots total, \
         {} refactorizations, 0 dense fallbacks",
        stats.pivots, stats.refactorizations
    );
}
