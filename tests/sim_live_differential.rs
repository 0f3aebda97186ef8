//! Simulator-vs-live differential test: the tentpole claim of the shared
//! enforcement core is that the live control plane and a simulation of the
//! same scenario make *identical* per-window admission decisions.
//!
//! The simulator runs a Figure-6-style two-redirector overload scenario
//! with per-arrival decision recording on. The recorded arrival sequence is
//! then replayed in virtual time against two [`ShardCore`]s — the
//! lock-free state machines the live reactor shards own, one per thread —
//! joined to one combining tree, either in-process or over the loopback
//! wire transport. The topology, levels, and scheduler configuration are
//! the simulator's. Every decision must match the recorded one exactly
//! (admit/defer *and* assigned server), with tolerance zero.
//!
//! Replay ordering mirrors the engine's event tie-break (window ticks sort
//! before same-time arrivals): before feeding an arrival at time `t`, every
//! window boundary `k·w ≤ t` is rolled on all nodes, in node order — the
//! same lock-step order the engine uses. Boundary times are computed with
//! the engine's exact expression (`k as f64 * window`) so float ties break
//! identically.

use covenant::agreements::AgreementGraph;
use covenant::coord::{Coordinator, ShardCore};
use covenant::enforce::ArrivalOutcome;
use covenant::sched::SchedulerConfig;
use covenant::sim::{ArrivalDecision, QueueMode, SimConfig, Simulation};
use covenant::tree::Topology;
use covenant::workload::{ClientMachine, PhasedLoad};

/// Figure 6's community: one server at 100 req/s, A entitled to
/// [0.2, 1.0], B to [0.8, 1.0].
fn fig6_graph() -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 100.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).unwrap();
    g.add_agreement(s, b, 0.8, 1.0).unwrap();
    g
}

/// Runs the simulator scenario and returns its recorded decision trace.
fn simulate(duration: f64) -> Vec<ArrivalDecision> {
    let g = fig6_graph();
    let a = covenant::agreements::PrincipalId(1);
    let b = covenant::agreements::PrincipalId(2);
    // A overloads redirector 0 for the whole run; B joins at redirector 1
    // after one second — demand shifts mid-run, so the replay exercises
    // cold start, conservative fallback, EWMA tracking, and contention.
    let cfg = SimConfig::new(g, duration)
        .with_tree(Topology::star(2, 0.0), 0.0)
        .with_mode(QueueMode::CreditRetry { retry_delay: 0.05 })
        .client(ClientMachine::uniform(0, a, PhasedLoad::constant(90.0, duration)), 0)
        .client(
            ClientMachine::uniform(1, b, PhasedLoad::new().idle(1.0).then(duration - 1.0, 70.0)),
            1,
        )
        .with_decision_recording();
    Simulation::new(cfg).run().decisions
}

/// Replays the trace in virtual time against one shard core per tree node
/// (node `i` coordinates through `coordinators[i]`) and returns, per
/// decision, what the live control plane decided. `after_roll(k)` runs
/// once every node has rolled boundary `k` (counting from 1).
fn replay(
    decisions: &[ArrivalDecision],
    duration: f64,
    coordinators: Vec<Coordinator>,
    mut after_roll: impl FnMut(u64),
) -> Vec<Option<usize>> {
    let levels = fig6_graph().access_levels();
    let window = SchedulerConfig::community_default().window_secs;
    let mut shards: Vec<_> = coordinators
        .into_iter()
        .enumerate()
        .map(|(node, coordinator)| {
            ShardCore::new(node, &levels, SchedulerConfig::community_default(), coordinator)
        })
        .collect();

    // Next window boundary to roll; index 0 is the engine's priming tick
    // at t = 0 (it observes zero arrivals into the estimator).
    let mut boundary: u64 = 0;
    let mut outcomes = Vec::with_capacity(decisions.len());
    for d in decisions {
        // The engine sorts ticks before same-time arrivals, so a boundary
        // exactly at the arrival time rolls first. Exact float comparison
        // on the engine's own boundary expression keeps ties identical.
        loop {
            let t = boundary as f64 * window;
            if t > d.time || t > duration {
                break;
            }
            for shard in shards.iter_mut() {
                shard.roll_window_at(None, t);
            }
            boundary += 1;
            after_roll(boundary);
        }
        assert_eq!(d.cost, 1.0, "replay assumes unit-cost arrivals");
        outcomes.push(shards[d.redirector].try_admit_at(d.principal, None, d.time));
    }
    outcomes
}

/// Replays the trace through shard cores sharing one in-process tree —
/// joined exactly as the live shards are.
fn replay_in_process(decisions: &[ArrivalDecision], duration: f64) -> Vec<Option<usize>> {
    let coordinator = Coordinator::new(Topology::star(2, 0.0), 0.0);
    replay(decisions, duration, vec![coordinator.clone(), coordinator], |_| {})
}

/// Replays the trace through the *wire* transport: every node is a real
/// socket endpoint with its own epoll runtime thread, connected over
/// loopback TCP, and the shard cores coordinate through `Up`/`Down`
/// frames instead of shared memory. Virtual stamping plus a per-boundary
/// barrier on round completion keeps the replay deterministic: each
/// boundary's global total is on every node before the next read.
fn replay_wire(decisions: &[ArrivalDecision], duration: f64) -> Vec<Option<usize>> {
    use std::time::{Duration, Instant};

    let window = SchedulerConfig::community_default().window_secs;
    let nodes = covenant::wire::spawn_local(
        &[None, Some(0)],
        1,
        covenant::wire::StampMode::Virtual,
        Duration::from_secs_f64(window),
    )
    .expect("spawn loopback wire tree");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();
    let coordinators = transports
        .iter()
        .map(|tp| {
            let transport: std::sync::Arc<dyn covenant::tree::CoordTransport> = tp.clone();
            Coordinator::with_transport(transport, 0.0)
        })
        .collect();
    replay(decisions, duration, coordinators, |boundary| {
        // Barrier: the round published at this boundary must close on
        // every node (its Down must arrive) before anyone reads again.
        let deadline = Instant::now() + Duration::from_secs(10);
        for tp in &transports {
            while tp.completed_rounds() < boundary {
                assert!(Instant::now() < deadline, "wire round {boundary} stalled");
                std::thread::yield_now();
            }
        }
    })
}

/// Asserts the replayed decisions equal the simulator's, tolerance zero.
fn assert_reproduces(decisions: &[ArrivalDecision], live: &[Option<usize>], medium: &str) {
    assert_eq!(live.len(), decisions.len());
    let mut mismatches = 0;
    for (i, (d, got)) in decisions.iter().zip(live).enumerate() {
        let want = match d.outcome {
            ArrivalOutcome::Forward { server } => Some(server),
            ArrivalOutcome::Defer => None,
            ArrivalOutcome::Queued => {
                panic!("credit-retry scenarios never queue internally: decision {i}")
            }
        };
        if *got != want {
            mismatches += 1;
            if mismatches <= 5 {
                eprintln!(
                    "decision {i} at t={:.4} (node {}, principal {:?}): \
                     sim {:?}, {medium} {:?}",
                    d.time, d.redirector, d.principal, want, got
                );
            }
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} of {} decisions diverged between sim and {medium}",
        decisions.len()
    );
}

/// The tentpole acceptance test: every recorded simulator decision —
/// admit/defer and the assigned server — is reproduced by per-shard
/// [`ShardCore`]s (no mutex, one tree leaf per shard), with tolerance
/// zero.
#[test]
fn sharded_cores_reproduce_simulator_decisions_exactly() {
    let duration = 3.0;
    let decisions = simulate(duration);

    // The trace must be substantial and actually exercise contention on
    // both redirectors, otherwise the comparison proves nothing.
    assert!(decisions.len() > 300, "thin trace: {}", decisions.len());
    for r in 0..2 {
        let on_r = decisions.iter().filter(|d| d.redirector == r);
        assert!(on_r.clone().count() > 50, "redirector {r} barely used");
        assert!(
            on_r.clone().any(|d| matches!(d.outcome, ArrivalOutcome::Forward { .. })),
            "redirector {r} admitted nothing"
        );
        assert!(
            on_r.clone().any(|d| d.outcome == ArrivalOutcome::Defer),
            "redirector {r} deferred nothing (no contention exercised)"
        );
    }

    assert_reproduces(&decisions, &replay_in_process(&decisions, duration), "sharded cores");
}

/// The wire transport's acceptance test: the same trace replayed over real
/// loopback sockets — length-prefixed frames, per-node epoll runtimes —
/// still reproduces every simulator decision with zero mismatches. Both
/// transports (in-process, wire) are decision-equivalent; only the medium
/// changes.
#[test]
fn wire_transport_reproduces_simulator_decisions_exactly() {
    let duration = 3.0;
    let decisions = simulate(duration);
    assert!(decisions.len() > 300, "thin trace: {}", decisions.len());
    assert_reproduces(&decisions, &replay_wire(&decisions, duration), "the wire transport");
}

/// The replay itself is deterministic: running it twice against fresh
/// shard cores yields identical decision vectors (guards against hidden
/// wall-clock dependence in the virtual-time path).
#[test]
fn live_replay_is_deterministic() {
    let duration = 1.5;
    let decisions = simulate(duration);
    assert!(!decisions.is_empty());
    assert_eq!(
        replay_in_process(&decisions, duration),
        replay_in_process(&decisions, duration)
    );
}
