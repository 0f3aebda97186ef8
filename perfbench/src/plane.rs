//! What the two live-plane workloads, `l7_redirect` and `l4_relay`,
//! share: the one-server agreement graph, the wait for the plane's first
//! window, and the per-segment sampling of its shard thread.

use crate::stats;
use crate::sys::{self, SchedStat};
use covenant_agreements::{AccessLevels, AgreementGraph};
use std::time::{Duration, Instant};

/// A server `S` of `capacity` granting each client `(name, lb)` the share
/// `[lb, 1]`.
pub fn levels(
    capacity: f64,
    clients: impl IntoIterator<Item = (&'static str, f64)>,
) -> AccessLevels {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", capacity);
    for (name, lb) in clients {
        let p = g.add_principal(name, 0.0);
        g.add_agreement(s, p, lb, 1.0).expect("shares sum below 1");
    }
    g.access_levels()
}

/// Waits until the plane has rolled its first window: with no connection
/// yet, the shard's only wake is the first window tick, so `wakes` (the
/// shard's reactor wake count) turns non-zero.
pub fn wait_first_window(wakes: impl Fn() -> u64) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while wakes() == 0 {
        if Instant::now() > deadline {
            return Err(std::io::Error::other("first window never rolled"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The id of the plane's one shard thread, whose name starts with `prefix`.
pub fn shard_tid(prefix: &str) -> Result<u32, String> {
    sys::threads_named(prefix)
        .first()
        .copied()
        .ok_or_else(|| format!("no thread named {prefix}*: shard CPU cannot be measured"))
}

/// The shard thread's CPU per op and the host's steal, per segment of the
/// measured interval.
pub struct ShardSegments {
    /// Steal of every segment, in `/proc/stat` ticks.
    pub steal: Vec<u64>,
    /// CPU ns per op of each segment that completed an op, with its steal.
    cpu_per_op: Vec<f64>,
    cpu_steal: Vec<u64>,
    /// The shard thread's counters over the whole interval.
    pub total: SchedStat,
}

impl ShardSegments {
    /// Sleeps from now to each boundary of `segments` segments of
    /// `segment_secs` that end `seconds` after `from`, and samples the
    /// shard thread `tid` and the op count `ops` at each.
    pub fn sample(
        tid: u32,
        from: Instant,
        seconds: f64,
        segments: usize,
        segment_secs: f64,
        ops: impl Fn() -> u64,
    ) -> ShardSegments {
        let first = sys::schedstat(tid);
        let mut out = ShardSegments {
            steal: Vec::with_capacity(segments),
            cpu_per_op: Vec::with_capacity(segments),
            cpu_steal: Vec::with_capacity(segments),
            total: SchedStat::default(),
        };
        let (mut prev_ops, mut prev_sched, mut prev_steal) = (ops(), first, sys::steal_ticks());
        for s in 1..=segments {
            sleep_until(from + Duration::from_secs_f64((s as f64 * segment_secs).min(seconds)));
            let (n, st, stolen) = (ops(), sys::schedstat(tid), sys::steal_ticks());
            let stolen_here = stolen - prev_steal;
            out.steal.push(stolen_here);
            if n > prev_ops {
                let cpu = st.since(prev_sched).cpu_ns as f64;
                out.cpu_per_op.push(cpu / (n - prev_ops) as f64);
                out.cpu_steal.push(stolen_here);
            }
            (prev_ops, prev_sched, prev_steal) = (n, st, stolen);
        }
        out.total = prev_sched.since(first);
        out
    }

    /// Shard CPU per op over the quietest segments, or an error when the
    /// shard thread used no CPU (its counters could not be read).
    pub fn cpu_ns_per_op(&self) -> Result<f64, String> {
        if self.total.cpu_ns == 0 {
            return Err("the shard thread read 0 ns of CPU".into());
        }
        Ok(stats::quiet_median(&self.cpu_per_op, &self.cpu_steal))
    }

    pub fn steal_ms(&self) -> f64 {
        self.steal.iter().sum::<u64>() as f64 * sys::MS_PER_TICK
    }
}
