//! `l4_relay`: connection-time admission, parking and byte relay.
//!
//! Closed loop with two connections in flight, one per principal: each
//! generator thread opens a fresh TCP connection to its principal's
//! service on one `ShardedL4` shard, sends one request, and reads the
//! reply to EOF. The shard admits at accept time (or parks the connection
//! until a later window) and relays to a minimal blocking origin defined
//! here, which answers every request with the same 6144-byte body (the
//! WebBench mean reply size). One op is one connection, timed from
//! `connect` to the reply's last byte.
//!
//! The origin is the benchmark's own because `covenant_http`'s
//! `OriginServer` sleeps 2 ms whenever `accept` finds nothing pending,
//! which would set the latency this workload is meant to measure.

use crate::plane::{self, ShardSegments};
use crate::report::Outcome;
use crate::stats::{self, Segmented};
use crate::sys::{self, SchedStat};
use crate::trace::Tracer;
use covenant_agreements::PrincipalId;
use covenant_coord::Coordinator;
use covenant_l4::{L4Config, L4Service, ShardedL4};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server capacity, connections/s.
const CAPACITY: f64 = 500.0;
/// Per principal: name and mandatory share.
const CLIENTS: [(&str, f64); 2] = [("A", 0.5), ("B", 0.3)];
const BODY_BYTES: usize = 6144;
const PARK_LIMIT: usize = 64;
/// Each client's demand estimate grows by about one connection per
/// window (the one it has parked), so the closed loop needs about five
/// seconds to reach the capacity-bound steady state.
const WARMUP: Duration = Duration::from_secs(5);
const SEGMENT_SECS: f64 = 0.5;
/// Set-up batches per run, one call each, before the load starts. A
/// set-up waits for the first 100 ms window, which keeps its time steady.
const SETUP_REPEATS: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The origin's reply: headers plus a seeded 6144-byte body.
fn reply(seed: u64) -> Vec<u8> {
    let mut rng = covenant_bench::SmallLcg::new(seed);
    let mut r =
        format!("HTTP/1.1 200 OK\r\ncontent-length: {BODY_BYTES}\r\nconnection: close\r\n\r\n")
            .into_bytes();
    r.extend((0..BODY_BYTES).map(|_| b'a' + (rng.next_f64() * 26.0) as u8));
    r
}

/// A blocking origin: one thread per connection in flight, each looping
/// accept, read the request head, write the reply, close.
struct Origin {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Origin {
    fn start(reply: Arc<Vec<u8>>) -> std::io::Result<Origin> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut origin = Origin {
            addr,
            stop,
            handles: Vec::new(),
        };
        for i in 0..CLIENTS.len() {
            let listener = listener.try_clone()?;
            let (flag, reply) = (Arc::clone(&origin.stop), Arc::clone(&reply));
            let serve = move || {
                let mut head = [0u8; 1024];
                while !flag.load(Ordering::Acquire) {
                    let Ok((mut s, _)) = listener.accept() else {
                        continue;
                    };
                    let _ = s.set_read_timeout(Some(IO_TIMEOUT));
                    let mut got = 0;
                    while got < head.len() && !head[..got].ends_with(b"\r\n\r\n") {
                        match s.read(&mut head[got..]) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => got += n,
                        }
                    }
                    if head[..got].ends_with(b"\r\n\r\n") {
                        let _ = s.write_all(&reply);
                    }
                }
            };
            origin.handles.push(
                std::thread::Builder::new()
                    .name(format!("origin-{i}"))
                    .spawn(serve)?,
            );
        }
        Ok(origin)
    }
}

impl Drop for Origin {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock each thread's accept so its loop sees the flag.
        for _ in &self.handles {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct Plane {
    l4: ShardedL4,
    origin: Origin,
}

/// Starts the origin and the plane, and waits for the first window roll.
fn setup(reply: &Arc<Vec<u8>>) -> std::io::Result<Plane> {
    let origin = Origin::start(Arc::clone(reply))?;
    let services = (1..=CLIENTS.len())
        .map(|i| L4Service {
            principal: PrincipalId(i),
            bind: "127.0.0.1:0".into(),
        })
        .collect();
    let cfg = L4Config {
        services,
        backends: HashMap::from([(0, origin.addr)]),
        park_limit: PARK_LIMIT,
        live_limit: 1024,
    };
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let l4 = ShardedL4::start(
        cfg,
        1,
        &plane::levels(CAPACITY, CLIENTS),
        SchedulerConfig::community_default(),
        coordinator,
    )?;
    plane::wait_first_window(|| l4.shard_snapshots()[0].reactor_wakes)?;
    Ok(Plane { l4, origin })
}

/// What one generator thread saw over the measured interval.
#[derive(Default)]
struct GenOut {
    done: u64,
    bad: u64,
    first_bad: Option<String>,
    parked: u64,
    last_done: Option<Instant>,
    latency_us: Option<Segmented>,
    sched: SchedStat,
    tracer: Option<Tracer>,
}

/// One closed-loop client: a fresh connection per op.
fn generate(
    addr: SocketAddr,
    expect: Arc<Vec<u8>>,
    measure_from: Instant,
    end: Instant,
    segments: usize,
    mut tracer: Option<Tracer>,
) -> GenOut {
    let mut out = GenOut {
        latency_us: Some(Segmented::new(segments)),
        ..GenOut::default()
    };
    let tid = sys::current_tid();
    let mut sched0: Option<SchedStat> = None;
    let mut buf = Vec::with_capacity(expect.len() + 1024);
    let request = b"GET /index.html HTTP/1.1\r\nhost: b\r\n\r\n";
    let mut op = 0u64;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let measured = t0 >= measure_from;
        if measured && sched0.is_none() {
            sched0 = Some(sys::schedstat(tid));
        }
        buf.clear();
        let result = TcpStream::connect(addr).and_then(|mut s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.write_all(request)?;
            s.shutdown(Shutdown::Write)?;
            s.read_to_end(&mut buf)
        });
        let t1 = Instant::now();
        let ok = result.is_ok() && buf == *expect;
        if !ok {
            out.bad += 1;
            if out.first_bad.is_none() {
                out.first_bad = Some(match result {
                    Err(e) => e.to_string(),
                    Ok(n) => format!("{n} reply bytes differ from the origin's {}", expect.len()),
                });
            }
        }
        if measured {
            let lat = t1.duration_since(t0);
            let seg = (t0.duration_since(measure_from).as_secs_f64() / SEGMENT_SECS) as usize;
            if let Some(l) = out.latency_us.as_mut() {
                l.record(seg, lat.as_secs_f64() * 1e6);
            }
            out.done += 1;
            out.last_done = Some(t1);
            // Parked until a later window: at least half a window waited.
            out.parked += u64::from(lat.as_secs_f64() >= 0.05);
            if let Some(t) = tracer.as_mut() {
                let ns = |i: Instant| i.saturating_duration_since(t.epoch()).as_nanos() as u64;
                let (a, b) = (ns(t0), ns(t1));
                t.record("l4.conn", a, b, None, op, 1);
            }
            op += 1;
        }
    }
    if let Some(s0) = sched0 {
        out.sched = sys::schedstat(tid).since(s0);
    }
    out.tracer = tracer;
    out
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let expect = Arc::new(reply(seed));
    let mut setups = stats::SetupTimer::default();
    let Plane { mut l4, origin } = match setups.batches(SETUP_REPEATS, 1, || setup(&expect)) {
        Ok(made) => made,
        Err(e) => {
            out.fail(1, format!("l4 setup: {e}"));
            return out;
        }
    };
    // Without the shard thread its CPU would read 0, which is not a gain.
    let shard_tid = match plane::shard_tid("l4-shard") {
        Ok(t) => t,
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };

    let segments = (seconds / SEGMENT_SECS).ceil() as usize;
    let measure_from = Instant::now() + WARMUP;
    let end = measure_from + Duration::from_secs_f64(seconds);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let mut handles = Vec::new();
    for (i, (name, _)) in CLIENTS.iter().enumerate() {
        let Some(addr) = l4.service_addr(PrincipalId(i + 1)) else {
            out.fail(1, format!("no service address for {name}"));
            continue;
        };
        let expect = Arc::clone(&expect);
        let t = epoch.map(Tracer::with_epoch);
        let spawned = std::thread::Builder::new()
            .name(format!("gen-{name}"))
            .spawn(move || generate(addr, expect, measure_from, end, segments, t));
        match spawned {
            Ok(h) => handles.push(h),
            Err(e) => out.fail(1, format!("spawn generator: {e}")),
        }
    }

    plane::sleep_until(measure_from);
    let (snap0, spliced0) = (l4.shard_snapshots()[0], l4.spliced());
    let shard = ShardSegments::sample(
        shard_tid,
        measure_from,
        seconds,
        segments,
        SEGMENT_SECS,
        || l4.spliced(),
    );
    let mut gens = Vec::new();
    for h in handles {
        match h.join() {
            Ok(g) => gens.push(g),
            Err(_) => out.fail(1, "generator thread panicked".into()),
        }
    }
    let snap1 = l4.shard_snapshots()[0];
    let spliced = l4.spliced() - spliced0;
    let refused = l4.refused();
    l4.shutdown();
    drop(origin);

    let mut lat = Segmented::new(segments);
    let (mut done, mut parked, mut gen_wait) = (0u64, 0u64, 0u64);
    let mut last_done = measure_from;
    for (g, (name, _)) in gens.iter_mut().zip(CLIENTS) {
        if let Some(b) = &g.first_bad {
            out.fail(g.bad, format!("{name}: {} bad replies, e.g. {b}", g.bad));
        }
        done += g.done;
        parked += g.parked;
        last_done = last_done.max(g.last_done.unwrap_or(measure_from));
        gen_wait += g.sched.wait_ns;
        if let Some(l) = g.latency_us.take() {
            lat.merge(l);
        }
    }
    out.attempted = done;
    out.check(refused == 0, || format!("{refused} connections refused"));

    let cpu_ns = match shard.cpu_ns_per_op() {
        Ok(ns) => ns,
        Err(e) => {
            out.fail(1, e);
            0.0
        }
    };
    out.set_e2e([
        setups.seconds(),
        lat.quiet_quantile(0.5, &shard.steal, &[]),
        lat.quiet_quantile(0.9, &shard.steal, &[]),
        done as f64 / last_done.duration_since(measure_from).as_secs_f64(),
        cpu_ns,
    ]);
    let l = &mut out.layers;
    l.set(
        "reactor.wakes",
        (snap1.reactor_wakes - snap0.reactor_wakes) as f64,
    );
    l.set("l4.spliced", spliced as f64);
    l.set("l4.refused", refused as f64);
    let (c0, c1) = (snap0.counters, snap1.counters);
    let (admitted, deferred) = (c1.admitted - c0.admitted, c1.deferred - c0.deferred);
    l.set("enforce.admitted", admitted as f64);
    l.set("enforce.deferred", deferred as f64);
    l.set(
        "enforce.admit_ratio",
        admitted as f64 / (admitted + deferred).max(1) as f64,
    );
    l.set("l4.parked_frac", parked as f64 / done.max(1) as f64);
    l.set("l4.shard_cpu_us_per_conn", cpu_ns / 1e3);
    l.set(
        "l4.relay_mb_s",
        (spliced as f64 * expect.len() as f64) / seconds / 1e6,
    );
    l.set("l4.latency_p99_us", lat.overall(0.99));
    l.set("l4.shard_runq_wait_ms", shard.total.wait_ns as f64 / 1e6);
    l.set("gen.runq_wait_ms", gen_wait as f64 / 1e6);
    l.set("host.steal_ms", shard.steal_ms());
    let hits = c1.plan_cache_hits - c0.plan_cache_hits;
    let plans = hits + c1.plan_cache_misses - c0.plan_cache_misses;
    l.set(
        "sched.plan_cache_hit_ratio",
        hits as f64 / plans.max(1) as f64,
    );
    if let Some(t) = tracer {
        for g in &mut gens {
            if let Some(gt) = g.tracer.take() {
                t.merge(gt);
            }
        }
    }
    out
}
