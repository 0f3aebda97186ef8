//! Single-owner per-shard admission state for reactor data planes.

use crate::{Coordinator, TreeCoordination};
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_enforce::{ArrivalOutcome, EnforcementCore, EnforcementCounters, QueueMode};
use covenant_sched::{Request, SchedulerConfig};

/// The admission state machine one reactor shard owns *exclusively*.
///
/// A thin shell around the shared [`EnforcementCore`] — the same state
/// machine the simulator runs — coordinating through the [`Coordinator`]
/// tree. A shard's event loop is single-threaded, so the verdict path
/// takes no locks at all: the entire batch of arrivals harvested from one
/// readiness wake runs straight through the enforcement core. Shards meet
/// each other only inside the shared tree (each shard is one more leaf
/// node), and only at window boundaries via [`Self::roll_window_at`] — the
/// paper's point that redirectors need window-granularity coordination,
/// applied at core granularity.
///
/// The core runs in credit mode: transports that park out-of-quota work
/// (L4 parked connections) hold it *outside* the core, report its depth
/// via the roll's backlog hint, and drain it through [`Self::readmit_at`].
///
/// Every entry point takes an explicit `now` so the same machine serves
/// both live loops (passing `Coordinator::now()` sampled once per wake)
/// and virtual-time replays — the sim↔live differential test replays a
/// simulator trace through it decision for decision.
pub struct ShardCore {
    node: usize,
    coordinator: Coordinator,
    next_request_id: u64,
    core: EnforcementCore<TreeCoordination>,
    released: Vec<(Request, usize)>,
}

impl ShardCore {
    /// Builds the shard core joining the tree as leaf `node`.
    pub fn new(
        node: usize,
        levels: &AccessLevels,
        cfg: SchedulerConfig,
        coordinator: Coordinator,
    ) -> ShardCore {
        let core = EnforcementCore::new(
            levels,
            cfg,
            // Reactor transports answer out-of-quota work themselves
            // (self-redirect, external parking) — the core never holds
            // requests internally.
            QueueMode::CreditRetry { retry_delay: 0.0 },
            TreeCoordination::new(coordinator.clone(), node),
        );
        ShardCore { node, coordinator, next_request_id: 0, core, released: Vec::new() }
    }

    /// The tree node this shard publishes demand as.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The scheduling window length, seconds.
    pub fn window_secs(&self) -> f64 {
        self.core.window_secs()
    }

    /// The shared coordinator (the shard loop's clock source).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Attempts to admit one unit-cost request for `principal` at time
    /// `now`, preferring `preferred` when it still has allocation.
    /// Returns the assigned server on success.
    pub fn try_admit_at(
        &mut self,
        principal: PrincipalId,
        preferred: Option<usize>,
        now: f64,
    ) -> Option<usize> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let req = Request::unit(id, principal, now);
        match self.core.on_arrival_preferring(req, preferred) {
            ArrivalOutcome::Forward { server } => Some(server),
            ArrivalOutcome::Defer | ArrivalOutcome::Queued => None,
        }
    }

    /// Like [`Self::try_admit_at`] but for parked work being reinjected:
    /// already counted as an arrival, so it must not inflate the demand
    /// estimate again.
    pub fn readmit_at(
        &mut self,
        principal: PrincipalId,
        preferred: Option<usize>,
        now: f64,
    ) -> Option<usize> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let req = Request::unit(id, principal, now);
        self.core.readmit(&req, preferred)
    }

    /// Rolls one scheduling window at time `now` — the shard loop calls
    /// this at each elapsed `k·w` boundary. Folds the arrivals just
    /// observed into the demand estimator, *reads* the lagged global view,
    /// solves the LP, *publishes* local demand (estimates plus any
    /// data-plane `backlog`, e.g. L4 parked connections) into the tree, and
    /// installs fresh credits. Read-before-publish makes the view one
    /// window stale — identical to the simulator's staleness, which is
    /// what the sim↔live differential test relies on.
    pub fn roll_window_at(&mut self, backlog: Option<&[f64]>, now: f64) {
        self.released.clear();
        self.core.on_window_tick(now, backlog, &mut self.released);
        debug_assert!(self.released.is_empty(), "credit mode never holds requests");
    }

    /// A full counter snapshot for the sharded observability payload.
    pub fn counters(&self) -> EnforcementCounters {
        self.core.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;
    use covenant_tree::Topology;

    /// Server 100 req/s, A [0.2,1], B [0.8,1]: per 100 ms window the
    /// capacity is 10, A's mandatory share 2 and B's 8.
    fn levels() -> AccessLevels {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        let b = g.add_principal("B", 0.0);
        g.add_agreement(s, a, 0.2, 1.0).unwrap();
        g.add_agreement(s, b, 0.8, 1.0).unwrap();
        g.access_levels()
    }

    fn core() -> ShardCore {
        ShardCore::new(
            0,
            &levels(),
            SchedulerConfig::community_default(),
            Coordinator::new(Topology::star(1, 0.0), 0.0),
        )
    }

    /// Admissions out of `n` arrivals of `p` at time `now`.
    fn admits(core: &mut ShardCore, p: PrincipalId, n: usize, now: f64) -> usize {
        (0..n).filter(|_| core.try_admit_at(p, None, now).is_some()).count()
    }

    #[test]
    fn cold_start_defers_then_admits() {
        let mut core = core();
        let a = PrincipalId(1);
        // No window rolled yet: everything defers.
        assert_eq!(admits(&mut core, a, 2, 0.05), 0);
        // First roll plans conservatively (read happens before this
        // round's publish, so the view is still empty): half of A's
        // mandatory 2/window, capped by the observed demand 2 → 1 admit.
        core.roll_window_at(None, 0.1);
        assert_eq!(admits(&mut core, a, 2, 0.15), 1);
        // Second roll sees the first round's published demand: the
        // informed plan covers the full ~2/window estimate.
        core.roll_window_at(None, 0.2);
        assert_eq!(admits(&mut core, a, 2, 0.25), 2);
        let c = core.counters();
        assert_eq!((c.admitted, c.deferred), (3, 3));
    }

    #[test]
    fn quota_respects_agreement_share() {
        let mut core = core();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        // Saturate both principals for a few windows to prime estimates.
        for w in 1..=6u32 {
            let t = f64::from(w) * 0.1;
            admits(&mut core, a, 30, t - 0.05);
            admits(&mut core, b, 30, t - 0.05);
            core.roll_window_at(None, t);
        }
        // One more saturated window: B is entitled to 8, A to 2 (with ±1
        // tolerance for credit carry-over).
        let got_a = admits(&mut core, a, 30, 0.65);
        let got_b = admits(&mut core, b, 30, 0.65);
        assert!(got_b.abs_diff(8) <= 1, "B got {got_b}");
        assert!(got_a.abs_diff(2) <= 1, "A got {got_a}");
    }

    #[test]
    fn backlog_hint_raises_demand() {
        let b = PrincipalId(2);
        // Without arrivals or a hint, B has no demand and no quota.
        let mut idle = core();
        idle.roll_window_at(None, 0.1);
        assert_eq!(admits(&mut idle, b, 5, 0.15), 0);
        // A parked backlog of 5 for B, still no arrivals. The first roll is
        // conservative (empty view): half of B's mandatory 8 = 4.
        let mut core = core();
        let backlog = [0.0, 0.0, 5.0];
        core.roll_window_at(Some(&backlog), 0.1);
        assert_eq!(admits(&mut core, b, 5, 0.15), 4);
        // The next roll sees the published backlog and grants all 5.
        core.roll_window_at(Some(&backlog), 0.2);
        assert_eq!(admits(&mut core, b, 5, 0.25), 5);
    }

    #[test]
    fn virtual_time_rolls_are_deterministic() {
        // Replaying an identical arrival/roll sequence must reproduce
        // identical decisions — the property the sim↔live differential
        // test builds on.
        let run = || {
            let mut core = core();
            let b = PrincipalId(2);
            let mut got = Vec::new();
            for w in 1..=5u32 {
                let t = f64::from(w) * 0.1;
                got.push(admits(&mut core, b, 12, t - 0.05));
                core.roll_window_at(None, t);
            }
            got
        };
        let first = run();
        assert_eq!(first, run());
        // The quota ramps up from the conservative cold start instead of
        // jumping straight to steady state.
        assert_eq!(first[0], 0, "cold window admitted {first:?}");
        assert!(first.last().copied().unwrap() > 0, "never admitted {first:?}");
    }

    #[test]
    fn shard_cores_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardCore>();
    }
}
