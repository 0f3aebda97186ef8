//! `window_roll`: the window path, flat out in virtual time.
//!
//! A 3-node wire tree on loopback (`spawn_local`, virtual stamping): the
//! root publishes a zero heartbeat each round, and each of the two leaves
//! is a `ShardCore` on `Coordinator::with_transport`. The agreement graph
//! is a seeded two-tier community of 64 principals. Between boundaries
//! each leaf admits 200 seeded arrivals whose principal mix drifts every
//! window, so every window's LP restarts warm from a new demand vector
//! and no window repeats a cached plan. No request sockets are involved.
//!
//! One op is one window: from the boundary until both leaves'
//! `roll_window_at` have returned and the round has closed on all nodes.

use crate::report::Outcome;
use crate::stats::{self, Segmented};
use crate::sys;
use crate::trace::Tracer;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{CreditGate, EnforcementCounters, RateEstimator};
use covenant_sched::{SchedulerConfig, WindowScheduler};
use covenant_tree::CoordTransport;
use covenant_wire::{spawn_local, StampMode, WireNode, WireTransport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Principals in the seeded two-tier graph.
const N: usize = 64;
/// Seed of the two-tier agreement graph.
const GRAPH_SEED: u64 = 7;
const ARRIVALS_PER_LEAF: usize = 200;
const PARENTS: [Option<usize>; 3] = [None, Some(0), Some(0)];
const LEAVES: [usize; 2] = [1, 2];
/// Windows run before measuring, so the warm basis exists.
const WARMUP_WINDOWS: u64 = 50;
const SEGMENT_SECS: f64 = 0.5;
/// Set-up calls per timed batch: one call takes under a millisecond, too
/// short to time alone. A batch runs before warm-up and at the end of
/// each measured segment, outside the segment's figures.
const SETUP_PER_BATCH: usize = 10;
/// How often the driving thread checks whether a round has closed. It
/// sleeps in between, so that it neither burns CPU nor takes a CPU from
/// the wire threads it waits for (the host may have only two).
const ROUND_POLL: Duration = Duration::from_micros(10);
/// Smoothing of the enforcement core's demand estimator, mirrored by the
/// traced run's twin estimator.
const DEMAND_EWMA_ALPHA: f64 = 0.5;
/// A round that has not closed by then is a failure.
const ROUND_TIMEOUT: Duration = Duration::from_secs(10);

struct Tree {
    nodes: Vec<WireNode>,
    transports: Vec<Arc<WireTransport>>,
    leaves: Vec<ShardCore>,
    window: f64,
    /// Windows rolled so far (the next boundary is `rolled + 1`).
    rolled: u64,
    /// CPU the driving thread spent waiting for rounds to close, ns.
    wait_cpu_ns: u64,
}

impl Tree {
    fn start(levels: &AccessLevels) -> std::io::Result<Tree> {
        let cfg = SchedulerConfig::community_default();
        let window = cfg.window_secs;
        let nodes = spawn_local(
            &PARENTS,
            1,
            StampMode::Virtual,
            Duration::from_secs_f64(window),
        )?;
        let transports: Vec<Arc<WireTransport>> = nodes.iter().map(|n| n.transport()).collect();
        let leaves = LEAVES
            .iter()
            .map(|&i| {
                let tp: Arc<dyn CoordTransport> = transports[i].clone();
                ShardCore::new(i, levels, cfg.clone(), Coordinator::with_transport(tp, 0.0))
            })
            .collect();
        let mut tree = Tree {
            nodes,
            transports,
            leaves,
            window,
            rolled: 0,
            wait_cpu_ns: 0,
        };
        tree.roll(None)?;
        Ok(tree)
    }

    /// Rolls the next window on every node and waits for its round to
    /// close everywhere. Returns the boundary → closed time.
    fn roll(&mut self, mut tracer: Option<&mut Tracer>) -> std::io::Result<Duration> {
        let k = self.rolled + 1;
        let t = k as f64 * self.window;
        let start = Instant::now();
        let op = tracer
            .as_mut()
            .and_then(|tr| tr.begin("tree.window", None, k));
        for leaf in &mut self.leaves {
            match tracer.as_mut() {
                Some(tr) => tr.wrap("coord.roll", op, k, 1, || leaf.roll_window_at(None, t)),
                None => leaf.roll_window_at(None, t),
            }
        }
        // The span opens before the root's publish: its wake-up may run the
        // whole round before `publish_at` returns.
        let round = tracer.as_mut().and_then(|tr| tr.begin("tree.round", op, k));
        self.transports[0].publish_at(0, vec![0.0; N], t);
        let deadline = start + ROUND_TIMEOUT;
        let cpu0 = sys::thread_cpu_ns();
        while self.transports.iter().any(|tp| tp.completed_rounds() < k) {
            if Instant::now() > deadline {
                return Err(std::io::Error::other(format!("round {k} did not close")));
            }
            std::thread::sleep(ROUND_POLL);
        }
        let elapsed = start.elapsed();
        self.wait_cpu_ns += sys::thread_cpu_ns() - cpu0;
        if let Some(tr) = tracer {
            tr.end(round);
            tr.end(op);
        }
        self.rolled = k;
        Ok(elapsed)
    }

    fn frames_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats().frames_sent()).sum()
    }

    fn forced_rounds(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats().rounds_forced()).sum()
    }

    fn counters(&self) -> EnforcementCounters {
        let mut sum = EnforcementCounters::default();
        for c in self.leaves.iter().map(ShardCore::counters) {
            sum.admitted += c.admitted;
            sum.deferred += c.deferred;
            sum.plan_cache_hits += c.plan_cache_hits;
            sum.plan_cache_misses += c.plan_cache_misses;
            sum.lp_pivots += c.lp_pivots;
            sum.lp_warm_hits += c.lp_warm_hits;
            sum.lp_cold_fallbacks += c.lp_cold_fallbacks;
        }
        sum
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        for n in &mut self.nodes {
            n.shutdown();
        }
    }
}

/// One leaf's seeded arrival stream. Principal `i`'s weight swings by a
/// factor of e around 1 on a 64-window cycle from a fixed phase, so the
/// mix changes every window; the seed draws the arrivals from the
/// weights. Seeded phases were tried: some phase sets make every LP
/// harder and moved the latency by a fifth between seeds.
struct Arrivals {
    rng: covenant_bench::SmallLcg,
    phase: Vec<f64>,
    cumulative: Vec<f64>,
    window: u64,
}

/// Windows per cycle of the demand drift.
const DRIFT_PERIOD: f64 = 64.0;
/// Seed of the drift phases.
const PHASE_SEED: u64 = 11;

impl Arrivals {
    fn new(leaf: usize, seed: u64) -> Arrivals {
        let mut fixed = covenant_bench::SmallLcg::new(PHASE_SEED + leaf as u64);
        let phase = (0..N)
            .map(|_| fixed.next_f64() * std::f64::consts::TAU)
            .collect();
        let rng = covenant_bench::SmallLcg::new(seed.wrapping_mul(31).wrapping_add(leaf as u64));
        Arrivals {
            rng,
            phase,
            cumulative: vec![0.0; N],
            window: 0,
        }
    }

    /// Fills `counts` with the next window's arrivals per principal and
    /// `order` with their principals in arrival order.
    fn window(&mut self, counts: &mut [f64], order: &mut Vec<usize>) {
        let angle = self.window as f64 / DRIFT_PERIOD * std::f64::consts::TAU;
        self.window += 1;
        let mut total = 0.0;
        for (phase, c) in self.phase.iter().zip(&mut self.cumulative) {
            total += (angle + phase).sin().exp();
            *c = total;
        }
        counts.iter_mut().for_each(|c| *c = 0.0);
        order.clear();
        for _ in 0..ARRIVALS_PER_LEAF {
            let x = self.rng.next_f64() * total;
            let p = self.cumulative.partition_point(|&c| c <= x).min(N - 1);
            counts[p] += 1.0;
            order.push(p);
        }
    }
}

/// Clock, CPU and steal counters at one instant between windows.
#[derive(Clone, Copy)]
struct CpuMark {
    at: Instant,
    /// The wire-node threads, and every thread for run-queue waits.
    wire: sys::SchedStat,
    all: sys::SchedStat,
    /// The driving thread's CPU, and the part of it spent waiting.
    main_ns: u64,
    wait_ns: u64,
    steal: u64,
}

impl CpuMark {
    fn take(tree: &Tree, wire_tids: &[u32], all_tids: &[u32]) -> CpuMark {
        CpuMark {
            at: Instant::now(),
            wire: sys::schedstat_sum(wire_tids),
            all: sys::schedstat_sum(all_tids),
            main_ns: sys::thread_cpu_ns(),
            wait_ns: tree.wait_cpu_ns,
            steal: sys::steal_ticks(),
        }
    }

    /// CPU spent on the window path since `earlier`: the wire threads'
    /// and the driving thread's, less the latter's waiting for rounds.
    fn cpu_since(&self, earlier: &CpuMark) -> u64 {
        let main = self.main_ns - earlier.main_ns;
        let wait = self.wait_ns - earlier.wait_ns;
        self.wire.since(earlier.wire).cpu_ns + main.saturating_sub(wait)
    }
}

/// Counters at the start of the measured interval.
struct Mark {
    from: Instant,
    frames: u64,
    rolled: u64,
    counters: EnforcementCounters,
    cpu: CpuMark,
}

/// The measured segment in progress.
struct Segment {
    index: usize,
    windows: u64,
    cpu: CpuMark,
}

/// The traced run's twin of one leaf's planning state, fed the same
/// inputs the leaf saw: its arrivals and the tree aggregate it read.
struct Twin {
    estimator: RateEstimator,
    sched: WindowScheduler,
    gate: CreditGate,
}

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    // The graph is fixed, so every run plans the same LP; the seed drives
    // the arrival streams.
    let levels = covenant_bench::bipartite_graph(N, GRAPH_SEED).access_levels();
    sys::precise_sleeps();
    let mut setups = stats::SetupTimer::default();
    let mut tree = match setups.batch(SETUP_PER_BATCH, || Tree::start(&levels)) {
        Ok(made) => made,
        Err(e) => {
            out.fail(1, format!("window setup: {e}"));
            return out;
        }
    };
    let window = tree.window;
    let wire_tids = sys::threads_named("wire-node");
    if wire_tids.len() != PARENTS.len() {
        out.fail(
            1,
            format!(
                "found {} wire-node threads, expected {}",
                wire_tids.len(),
                PARENTS.len()
            ),
        );
        return out;
    }
    let all_tids: Vec<u32> = sys::threads().into_iter().map(|(t, _)| t).collect();

    let mut streams: Vec<Arrivals> = LEAVES.iter().map(|&l| Arrivals::new(l, seed)).collect();
    let mut counts = vec![vec![0.0; N]; LEAVES.len()];
    let mut order = Vec::with_capacity(ARRIVALS_PER_LEAF);
    let mut twins: Vec<Twin> = LEAVES
        .iter()
        .map(|_| Twin {
            // Primed like the leaf, whose first roll saw no arrivals.
            estimator: {
                let mut e = RateEstimator::new(N, DEMAND_EWMA_ALPHA);
                e.observe(&[0.0; N]);
                e
            },
            sched: WindowScheduler::new(&levels, SchedulerConfig::community_default()),
            gate: CreditGate::for_principals(N),
        })
        .collect();

    let segments = (seconds / SEGMENT_SECS).ceil() as usize;
    let mut lat = Segmented::new(segments);
    // Steal per segment index; windows per second, CPU per window and
    // steal only for the segments that closed a window (a long stall
    // skips segments).
    let mut steal = vec![0u64; segments];
    let (mut rate, mut cpu_per_window, mut seg_steal) = (Vec::new(), Vec::new(), Vec::new());
    // Every figure is normalized to the reference host speed by the speed
    // probes taken at the segment's two ends, while the tree is idle.
    let mut factor = vec![1.0; segments];
    let (mut probes, mut probe_prev) = (Vec::new(), 0.0);
    // Set when warm-up ends: the start of the measured interval.
    let mut mark: Option<Mark> = None;
    let mut seg: Option<Segment> = None;
    loop {
        // Arrivals for the window that ends at the next boundary, spread
        // evenly over it in virtual time.
        let t0 = tree.rolled as f64 * window;
        let traced = mark.is_some();
        for (i, leaf) in tree.leaves.iter_mut().enumerate() {
            streams[i].window(&mut counts[i], &mut order);
            let mut admit_all = || {
                for (j, &p) in order.iter().enumerate() {
                    let at = t0 + (j as f64 + 0.5) / ARRIVALS_PER_LEAF as f64 * window;
                    let _ = leaf.try_admit_at(PrincipalId(p), None, at);
                }
            };
            match tracer.as_deref_mut() {
                Some(tr) if traced => {
                    let calls = ARRIVALS_PER_LEAF as u32;
                    tr.wrap("coord.verdict", None, tree.rolled + 1, calls, admit_all);
                }
                _ => admit_all(),
            }
        }
        let elapsed = match tree.roll(if traced { tracer.as_deref_mut() } else { None }) {
            Ok(e) => e,
            Err(e) => {
                out.fail(1, format!("window {}: {e}", tree.rolled + 1));
                break;
            }
        };
        if let Some(tr) = tracer.as_deref_mut() {
            twin_window(&tree, &mut twins, &counts, traced, tr);
        }
        let (Some(m), Some(sg)) = (&mark, &mut seg) else {
            if tree.rolled >= WARMUP_WINDOWS {
                probe_prev = sys::speed_probe_ns();
                probes.push(probe_prev);
                let cpu = CpuMark::take(&tree, &wire_tids, &all_tids);
                seg = Some(Segment {
                    index: 0,
                    windows: 0,
                    cpu,
                });
                mark = Some(Mark {
                    from: cpu.at,
                    frames: tree.frames_sent(),
                    rolled: tree.rolled,
                    counters: tree.counters(),
                    cpu,
                });
            }
            continue;
        };
        let since = m.from.elapsed().as_secs_f64();
        lat.record(sg.index, elapsed.as_secs_f64() * 1e6);
        sg.windows += 1;
        let next = (since / SEGMENT_SECS) as usize;
        if next != sg.index || since >= seconds {
            let now = CpuMark::take(&tree, &wire_tids, &all_tids);
            let probe = sys::speed_probe_ns();
            probes.push(probe);
            let f = stats::speed_factor(probe_prev, probe);
            probe_prev = probe;
            if sg.index < segments {
                let stolen = now.steal - sg.cpu.steal;
                steal[sg.index] = stolen;
                factor[sg.index] = f;
                let secs = now.at.duration_since(sg.cpu.at).as_secs_f64();
                rate.push(sg.windows as f64 / secs / f);
                cpu_per_window.push(now.cpu_since(&sg.cpu) as f64 / sg.windows as f64 * f);
                seg_steal.push(stolen);
            }
            if since < seconds {
                if let Err(e) = setups.batch(SETUP_PER_BATCH, || Tree::start(&levels)) {
                    out.fail(1, format!("window setup: {e}"));
                    break;
                }
            }
            *sg = Segment {
                index: next,
                windows: 0,
                cpu: CpuMark::take(&tree, &wire_tids, &all_tids),
            };
        }
        if since >= seconds {
            break;
        }
    }
    let Some(m) = mark else {
        out.fail(1, "window path never finished warming up".into());
        return out;
    };
    let frames = tree.frames_sent() - m.frames;
    let forced = tree.forced_rounds();
    let (c0, c1) = (m.counters, tree.counters());
    let end = CpuMark::take(&tree, &wire_tids, &all_tids);
    let measured_windows = tree.rolled - m.rolled;
    drop(tree);

    out.attempted = measured_windows;
    let per_round = frames as f64 / measured_windows.max(1) as f64;
    let expected = 2 * (PARENTS.len() as u64 - 1);
    if frames != expected * measured_windows {
        out.fail(
            measured_windows.abs_diff(frames / expected),
            format!(
                "{frames} frames over {measured_windows} rounds, expected {expected} per round"
            ),
        );
    }
    out.check(forced == 0, || {
        format!("{forced} forced rounds in a virtual-time run")
    });
    let cold = c1.lp_cold_fallbacks - c0.lp_cold_fallbacks;
    out.check(cold == 0, || {
        format!("{cold} cold LP restarts after warm-up")
    });
    let hits = c1.plan_cache_hits - c0.plan_cache_hits;
    let plans = hits + c1.plan_cache_misses - c0.plan_cache_misses;

    out.check(end.wire.since(m.cpu.wire).cpu_ns > 0, || {
        "the wire-node threads read 0 ns of CPU".into()
    });
    out.set_e2e([
        setups.seconds(),
        lat.quiet_quantile(0.5, &steal, &factor),
        lat.quiet_quantile(0.9, &steal, &factor),
        stats::quiet_median(&rate, &seg_steal),
        stats::quiet_median(&cpu_per_window, &seg_steal),
    ]);
    let l = &mut out.layers;
    l.set("wire.frames_per_round", per_round);
    l.set("wire.forced_rounds", forced as f64);
    l.set(
        "lp.pivots_per_window",
        (c1.lp_pivots - c0.lp_pivots) as f64 / measured_windows.max(1) as f64,
    );
    l.set("lp.warm_hits", (c1.lp_warm_hits - c0.lp_warm_hits) as f64);
    l.set("lp.cold_fallbacks", cold as f64);
    l.set(
        "sched.plan_cache_hit_ratio",
        hits as f64 / plans.max(1) as f64,
    );
    l.set("enforce.admitted", (c1.admitted - c0.admitted) as f64);
    l.set("enforce.deferred", (c1.deferred - c0.deferred) as f64);
    let verdicts = (c1.admitted + c1.deferred - c0.admitted - c0.deferred).max(1);
    l.set(
        "enforce.admit_ratio",
        (c1.admitted - c0.admitted) as f64 / verdicts as f64,
    );
    l.set("window.latency_p99_us", lat.overall(0.99));
    l.set("host.probe_us", stats::median(&probes) / 1e3);
    l.set(
        "window.runq_wait_ms",
        end.all.since(m.cpu.all).wait_ns as f64 / 1e6,
    );
    l.set(
        "host.steal_ms",
        steal.iter().sum::<u64>() as f64 * sys::MS_PER_TICK,
    );
    if let Some(t) = tracer {
        l.set("tree.round_us_p50", t.quantile_us("tree.round", 0.5));
        l.set("tree.round_us_p90", t.quantile_us("tree.round", 0.9));
        l.set("coord.roll_us", t.quantile_us("coord.roll", 0.5));
        l.set("sched.plan_us_p50", t.quantile_us("sched.plan", 0.5));
        l.set("sched.plan_us_p90", t.quantile_us("sched.plan", 0.9));
        l.set(
            "enforce.credit_install_us",
            t.quantile_us("enforce.credit_install", 0.5),
        );
        l.set("coord.verdict_ns", t.ns_per_call("coord.verdict"));
    }
    out
}

/// Replays the window just closed through each leaf's twin: the same
/// arrivals into the estimator, the same tree aggregate into
/// `plan_window_shared`, the plan into `CreditGate::roll_window`.
fn twin_window(
    tree: &Tree,
    twins: &mut [Twin],
    counts: &[Vec<f64>],
    traced: bool,
    tr: &mut Tracer,
) {
    let t = tree.rolled as f64 * tree.window;
    for (i, twin) in twins.iter_mut().enumerate() {
        let view = tree.leaves[i].coordinator().read_at(LEAVES[i], t);
        twin.estimator.observe(&counts[i]);
        let demand = twin.estimator.estimates();
        let k = tree.rolled;
        if traced {
            let plan = tr.wrap("sched.plan", None, k, 1, || {
                twin.sched.plan_window_shared(view.as_deref(), demand)
            });
            tr.wrap("enforce.credit_install", None, k, 1, || {
                twin.gate.roll_window(&plan)
            });
        } else {
            let plan = twin.sched.plan_window_shared(view.as_deref(), demand);
            twin.gate.roll_window(&plan);
        }
    }
}
