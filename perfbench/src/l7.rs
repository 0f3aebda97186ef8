//! `l7_redirect`: the request path at the smallest message size.
//!
//! Open loop on loopback against one `ShardedL7` shard. Two keep-alive
//! connections, one per principal, each send a pipelined batch of the
//! 34-byte `GET /org/<p>/<c> HTTP/1.1` request every millisecond: A
//! offers 100k/s against a `[0.5, 1]` share of a 300k/s server, B offers
//! 300k/s against `[0.3, 1]`. A stays inside its entitlement (admit →
//! `302` to the backend) while B exceeds it (about a third deferred →
//! `302` to the redirector itself), so both verdict kinds carry load.
//!
//! Latency runs from the time a batch was *due* to the read that
//! completed each response, so a stall also charges the batches it
//! delays. Each generator thread reports how late it ran.

use crate::plane::{self, ShardSegments};
use crate::report::Outcome;
use crate::stats::{self, Segmented};
use crate::sys::{self, SchedStat};
use crate::trace::Tracer;
use covenant_agreements::{AccessLevels, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_http::{header_block_end, parse_request_head};
use covenant_l7::{L7Config, ShardedL7};
use covenant_sched::{SchedulerConfig, WindowScheduler};
use covenant_tree::Topology;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Server capacity, requests/s.
const CAPACITY: f64 = 300_000.0;
/// Per principal: name, mandatory share, requests per 1 ms batch.
const CLIENTS: [(&str, f64, usize); 2] = [("A", 0.5, 100), ("B", 0.3, 300)];
const BATCH_EVERY: Duration = Duration::from_millis(1);
/// Never contacted: the client does not follow redirects.
const BACKEND: &str = "127.0.0.1:9";
const WARMUP: Duration = Duration::from_secs(1);
const SEGMENT_SECS: f64 = 0.5;
/// Set-up batches per run, one call each, before the load starts. A
/// set-up waits for the first 100 ms window, which keeps its time steady.
const SETUP_REPEATS: usize = 5;
/// Largest |admitted − entitled| rate accepted, in points of capacity.
const SHARE_TOLERANCE_PCT: f64 = 1.0;
/// Delivered rate must reach this share of the offered rate.
const DELIVERED_MIN: f64 = 0.99;
/// Median lateness of the batches due in the last `FINAL_SPAN` of the
/// interval beyond which the backlog counts as growing. A median, because
/// a host stall late in the run makes a few batches late at once, and the
/// generator catches up within milliseconds when the system keeps up.
const FINAL_LAG_MAX: Duration = Duration::from_millis(100);
const FINAL_SPAN: Duration = Duration::from_secs(1);

fn levels() -> AccessLevels {
    plane::levels(CAPACITY, CLIENTS.map(|(name, lb, _)| (name, lb)))
}

/// Client `i`'s batch offset, as a share of the batch period.
fn phase_of(i: usize) -> f64 {
    i as f64 / CLIENTS.len() as f64
}

/// One 34-byte request for principal `name` with one seeded path byte.
fn request(name: &str, c: u8) -> Vec<u8> {
    let c = c as char;
    format!("GET /org/{name}/{c} HTTP/1.1\r\nhost: b\r\n\r\n").into_bytes()
}

/// A started plane with its two client connections.
struct Plane {
    l7: ShardedL7,
    conns: Vec<TcpStream>,
}

/// Starts the plane, waits for its first window roll, and connects.
fn setup() -> std::io::Result<Plane> {
    let levels = levels();
    let names: Vec<String> = ["S"]
        .into_iter()
        .chain(CLIENTS.iter().map(|c| c.0))
        .map(String::from)
        .collect();
    let backend: SocketAddr = BACKEND.parse().expect("literal address");
    let cfg = L7Config {
        principal_names: names,
        backends: HashMap::from([(0, backend)]),
    };
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let l7 = ShardedL7::start(
        "127.0.0.1:0",
        cfg,
        1,
        &levels,
        SchedulerConfig::community_default(),
        coordinator,
    )?;
    plane::wait_first_window(|| l7.shard_snapshots()[0].reactor_wakes)?;
    let mut conns = Vec::new();
    for _ in CLIENTS {
        let c = TcpStream::connect(l7.addr())?;
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        conns.push(c);
    }
    Ok(Plane { l7, conns })
}

/// What one generator thread saw over the measured interval.
#[derive(Default)]
struct GenOut {
    sent: u64,
    answered: u64,
    admitted: u64,
    deferred: u64,
    bad: u64,
    first_bad: Option<String>,
    lag_max: Duration,
    /// Lateness of each batch due in the last `FINAL_SPAN`.
    final_lags: Vec<Duration>,
    latency_us: Option<Segmented>,
    sched: SchedStat,
    tracer: Option<Tracer>,
    io_error: Option<String>,
}

struct GenCfg {
    batch: Vec<u8>,
    per_batch: usize,
    admit: Vec<u8>,
    defer: Vec<u8>,
    first_due: Instant,
    measure_from: Instant,
    end: Instant,
    segments: usize,
    tracer: Option<Tracer>,
}

/// Open-loop generator for one connection (runs on its own thread).
fn generate(mut conn: TcpStream, cfg: GenCfg) -> GenOut {
    let mut out = GenOut {
        latency_us: Some(Segmented::new(cfg.segments)),
        ..GenOut::default()
    };
    let mut tracer = cfg.tracer;
    let tid = sys::current_tid();
    let mut sched_start: Option<SchedStat> = None;
    let mut buf = vec![0u8; 64 * 1024];
    let mut pending: Vec<u8> = Vec::with_capacity(128 * 1024);
    let mut k: u32 = 0;
    loop {
        let due = cfg.first_due + BATCH_EVERY * k;
        if due >= cfg.end {
            break;
        }
        let measured = due >= cfg.measure_from;
        if measured && sched_start.is_none() {
            sched_start = Some(sys::schedstat(tid));
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let lag = Instant::now().saturating_duration_since(due);
        if let Err(e) = conn.write_all(&cfg.batch) {
            out.io_error = Some(format!("write: {e}"));
            break;
        }
        let seg = (due
            .saturating_duration_since(cfg.measure_from)
            .as_secs_f64()
            / SEGMENT_SECS) as usize;
        let mut left = cfg.per_batch;
        let mut done_at = Instant::now();
        while left > 0 {
            let n = match conn.read(&mut buf) {
                Ok(0) => {
                    out.io_error = Some("redirector closed the connection".into());
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    out.io_error = Some(format!("read: {e}"));
                    break;
                }
            };
            done_at = Instant::now();
            pending.extend_from_slice(&buf[..n]);
            let lat_us = done_at.duration_since(due).as_secs_f64() * 1e6;
            let mut pos = 0;
            while let Some(end) = header_block_end(&pending[pos..], 0) {
                let resp = &pending[pos..pos + end];
                let admit = resp == cfg.admit.as_slice();
                let defer = resp == cfg.defer.as_slice();
                if !(admit || defer) {
                    out.bad += 1;
                    if out.first_bad.is_none() {
                        out.first_bad = Some(String::from_utf8_lossy(resp).into_owned());
                    }
                }
                if measured {
                    out.admitted += u64::from(admit);
                    out.deferred += u64::from(defer);
                    out.answered += 1;
                    if let Some(l) = out.latency_us.as_mut() {
                        l.record(seg, lat_us);
                    }
                }
                pos += end;
                left = left.saturating_sub(1);
            }
            pending.drain(..pos);
        }
        if out.io_error.is_some() {
            break;
        }
        if measured {
            out.sent += cfg.per_batch as u64;
            out.lag_max = out.lag_max.max(lag);
            if due + FINAL_SPAN >= cfg.end {
                out.final_lags.push(lag);
            }
            if let Some(t) = tracer.as_mut() {
                let start = due.saturating_duration_since(t.epoch()).as_nanos() as u64;
                let end = done_at.saturating_duration_since(t.epoch()).as_nanos() as u64;
                t.record(
                    "gen.batch",
                    start,
                    end,
                    None,
                    u64::from(k),
                    cfg.per_batch as u32,
                );
            }
        }
        k += 1;
    }
    if let Some(s0) = sched_start {
        out.sched = sys::schedstat(tid).since(s0);
    }
    out.tracer = tracer;
    out
}

/// The entitled rate per client principal for the offered load, from the
/// window scheduler's global plan.
fn entitled_rates() -> Vec<f64> {
    let cfg = SchedulerConfig::community_default();
    let w = cfg.window_secs;
    let mut sched = WindowScheduler::new(&levels(), cfg);
    let mut queues = vec![0.0];
    queues.extend(CLIENTS.iter().map(|c| c.2 as f64 * 1000.0 * w));
    let plan = sched.plan_global(&queues);
    (1..=CLIENTS.len())
        .map(|i| plan.admitted(PrincipalId(i)) / w)
        .collect()
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = stats::SetupTimer::default();
    let Plane { mut l7, conns } = match setups.batches(SETUP_REPEATS, 1, setup) {
        Ok(made) => made,
        Err(e) => {
            out.fail(1, format!("l7 setup: {e}"));
            return out;
        }
    };
    // Without the shard thread its CPU would read 0, which is not a gain.
    let shard_tid = match plane::shard_tid("l7-shard") {
        Ok(t) => t,
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };
    let addr = l7.addr();

    // Seeded inputs: each request's one-byte path suffix. The batch phases
    // are fixed (B half a period after A): a seeded phase would change how
    // often both batches share a shard wake, and with it the latency.
    let mut rng = covenant_bench::SmallLcg::new(seed);
    let segments = (seconds / SEGMENT_SECS).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(5);
    let measure_from = start + WARMUP;
    let end = measure_from + Duration::from_secs_f64(seconds);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let mut handles = Vec::new();
    for (i, ((name, _, per_batch), conn)) in CLIENTS.into_iter().zip(conns).enumerate() {
        let phase = BATCH_EVERY.mul_f64(phase_of(i));
        let c = b'a' + (rng.next_f64() * 26.0) as u8;
        let req = request(name, c);
        let path = format!("/org/{name}/{}", c as char);
        let redirect = |to: &str| {
            format!(
                "HTTP/1.1 302 Found\r\nlocation: http://{to}{path}\r\ncontent-length: 0\r\n\r\n"
            )
            .into_bytes()
        };
        let cfg = GenCfg {
            batch: req.repeat(per_batch),
            per_batch,
            admit: redirect(BACKEND),
            defer: redirect(&addr.to_string()),
            first_due: start + phase,
            measure_from,
            end,
            segments,
            tracer: epoch.map(Tracer::with_epoch),
        };
        let spawned = std::thread::Builder::new()
            .name(format!("gen-{name}"))
            .spawn(move || generate(conn, cfg));
        match spawned {
            Ok(h) => handles.push(h),
            Err(e) => out.fail(1, format!("spawn generator: {e}")),
        }
    }

    plane::sleep_until(measure_from);
    let snap0 = l7.shard_snapshots()[0];
    let shard = ShardSegments::sample(
        shard_tid,
        measure_from,
        seconds,
        segments,
        SEGMENT_SECS,
        || l7.shard_snapshots()[0].batched_verdicts,
    );
    let mut gens = Vec::new();
    for h in handles {
        match h.join() {
            Ok(g) => gens.push(g),
            Err(_) => out.fail(1, "generator thread panicked".into()),
        }
    }
    let snap1 = l7.shard_snapshots()[0];
    let shed = l7.shed();
    l7.shutdown();

    // Output checks.
    let mut lat = Segmented::new(segments);
    let (mut sent, mut answered, mut admitted, mut deferred) = (0u64, 0u64, 0u64, 0u64);
    let (mut lag_max, mut final_lag, mut gen_wait_ns) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut rates = Vec::new();
    for (g, (name, _, _)) in gens.iter_mut().zip(CLIENTS) {
        // A generator stops reading only on an I/O error.
        if let Some(e) = &g.io_error {
            out.fail(g.sent - g.answered.min(g.sent), format!("{name}: {e}"));
        }
        if let Some(b) = &g.first_bad {
            out.fail(
                g.bad,
                format!(
                    "{name}: {} responses neither admit nor defer, e.g. {b:?}",
                    g.bad
                ),
            );
        }
        g.final_lags.sort();
        let lag = g
            .final_lags
            .get(g.final_lags.len() / 2)
            .copied()
            .unwrap_or_default();
        out.check(lag <= FINAL_LAG_MAX, || {
            format!(
                "{name}: backlog growing, batches of the last {FINAL_SPAN:?} {lag:?} late (median)"
            )
        });
        final_lag = final_lag.max(lag);
        sent += g.sent;
        answered += g.answered;
        admitted += g.admitted;
        deferred += g.deferred;
        lag_max = lag_max.max(g.lag_max);
        gen_wait_ns += g.sched.wait_ns;
        rates.push(g.admitted as f64 / seconds);
        if let Some(l) = g.latency_us.take() {
            lat.merge(l);
        }
    }
    out.attempted = sent;
    let offered: f64 = CLIENTS.iter().map(|c| c.2 as f64 * 1000.0).sum();
    // Every batch due in the interval was sent and answered, at most the
    // final lateness after the interval ended.
    let delivered = answered as f64 / (seconds + final_lag.as_secs_f64());
    out.check(delivered >= DELIVERED_MIN * offered, || {
        format!("delivered {delivered:.0}/s below offered {offered:.0}/s")
    });
    let entitled = entitled_rates();
    let share_err = rates
        .iter()
        .zip(&entitled)
        .map(|(a, e)| 100.0 * (a - e).abs() / CAPACITY)
        .fold(0.0, f64::max);
    out.share_error_pct = Some(share_err);
    out.check(share_err <= SHARE_TOLERANCE_PCT, || {
        format!("share error {share_err:.3} pp > {SHARE_TOLERANCE_PCT} (admitted {rates:?}/s, entitled {entitled:?}/s)")
    });
    out.check(shed == 0, || format!("{shed} connections shed"));

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
        delivered,
        cpu_ns,
    ]);

    let l = &mut out.layers;
    let verdicts = snap1.batched_verdicts - snap0.batched_verdicts;
    let wakes = snap1.reactor_wakes - snap0.reactor_wakes;
    l.set("reactor.wakes", wakes as f64);
    l.set(
        "l7.verdicts_per_wake",
        verdicts as f64 / wakes.max(1) as f64,
    );
    l.set("enforce.admitted", admitted as f64);
    l.set("enforce.deferred", deferred as f64);
    l.set(
        "enforce.admit_ratio",
        admitted as f64 / (admitted + deferred).max(1) as f64,
    );
    l.set("enforce.share_error_pct", share_err);
    l.set("l7.shed", shed as f64);
    l.set("l7.latency_p99_us", lat.overall(0.99));
    l.set("l7.latency_p999_us", lat.overall(0.999));
    l.set("l7.shard_runq_wait_ms", shard.total.wait_ns as f64 / 1e6);
    l.set("gen.lag_max_ms", lag_max.as_secs_f64() * 1e3);
    l.set("gen.runq_wait_ms", gen_wait_ns as f64 / 1e6);
    l.set("host.steal_ms", shard.steal_ms());
    let (c0, c1) = (snap0.counters, snap1.counters);
    let windows = (seconds / SchedulerConfig::community_default().window_secs).round();
    l.set(
        "lp.pivots_per_window",
        (c1.lp_pivots - c0.lp_pivots) as f64 / windows,
    );
    l.set("lp.warm_hits", (c1.lp_warm_hits - c0.lp_warm_hits) as f64);
    l.set(
        "lp.cold_fallbacks",
        (c1.lp_cold_fallbacks - c0.lp_cold_fallbacks) as f64,
    );
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
        replay(seed, seconds, t, &mut out);
        let parse = t.ns_per_call("http.parse");
        let verdict = t.ns_per_call("coord.verdict");
        let l = &mut out.layers;
        l.set("http.parse_ns", parse);
        l.set("coord.verdict_ns", verdict);
        l.set("l7.socket_ns_per_op", cpu_ns - parse - verdict);
        l.set("coord.roll_us", t.quantile_us("coord.roll", 0.5));
    }
    out
}

/// Replays the generated request stream in virtual time through the
/// layers the shard thread runs — `parse_request_head` and
/// `ShardCore::try_admit_at` / `roll_window_at` — with a span around
/// each batch of calls.
fn replay(seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let cfg = SchedulerConfig::community_default();
    let window = cfg.window_secs;
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let mut core = ShardCore::new(0, &levels(), cfg, coordinator);
    let mut rng = covenant_bench::SmallLcg::new(seed);
    let streams: Vec<(f64, Vec<u8>, usize, PrincipalId)> = CLIENTS
        .iter()
        .enumerate()
        .map(|(i, &(name, _, per_batch))| {
            let phase = BATCH_EVERY.as_secs_f64() * phase_of(i);
            let c = b'a' + (rng.next_f64() * 26.0) as u8;
            (
                phase,
                request(name, c).repeat(per_batch),
                per_batch,
                PrincipalId(i + 1),
            )
        })
        .collect();
    // Like the live run, the first second warms the demand estimate and
    // is neither traced nor counted.
    let warmup = (WARMUP.as_secs_f64() / BATCH_EVERY.as_secs_f64()).round() as u64;
    let batches = warmup + (seconds / BATCH_EVERY.as_secs_f64()).round() as u64;
    let per_window = (window / BATCH_EVERY.as_secs_f64()).round() as u64;
    let mut scratch = Tracer::with_epoch(t.epoch());
    let (mut admitted, mut verdicts, mut parse_errors) = (0u64, 0u64, 0u64);
    for k in 0..batches {
        let t: &mut Tracer = if k < warmup { &mut scratch } else { &mut *t };
        if k % per_window == 0 && k > 0 {
            let boundary = (k / per_window) as f64 * window;
            t.wrap("coord.roll", None, k / per_window, 1, || {
                core.roll_window_at(None, boundary)
            });
        }
        for (phase, bytes, per_batch, principal) in &streams {
            let now = k as f64 * BATCH_EVERY.as_secs_f64() + phase;
            let parsed = t.wrap("http.parse", None, k, *per_batch as u32, || {
                let mut n = 0usize;
                let mut pos = 0;
                while let Some(end) = header_block_end(&bytes[pos..], 0) {
                    match parse_request_head(&bytes[pos..pos + end]) {
                        Ok(head) if head.path.starts_with("/org/") => n += 1,
                        _ => {}
                    }
                    pos += end;
                }
                n
            });
            parse_errors += (*per_batch - parsed) as u64;
            let admits = t.wrap("coord.verdict", None, k, parsed as u32, || {
                (0..parsed)
                    .filter(|_| core.try_admit_at(*principal, None, now).is_some())
                    .count()
            }) as u64;
            if k >= warmup {
                admitted += admits;
                verdicts += parsed as u64;
            }
        }
    }
    out.check(parse_errors == 0, || {
        format!("replay: {parse_errors} requests failed to parse")
    });
    let ratio = admitted as f64 / verdicts.max(1) as f64;
    let offered: f64 = CLIENTS.iter().map(|c| c.2 as f64).sum();
    let expected = entitled_rates().iter().sum::<f64>() / (offered * 1000.0);
    out.check((ratio - expected).abs() < 0.01, || {
        format!("replay admitted {ratio:.4} of verdicts, entitled {expected:.4}")
    });
}
