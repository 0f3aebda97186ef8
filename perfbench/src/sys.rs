//! Per-thread CPU and run-queue time from `/proc/self/task/<tid>/schedstat`
//! (field 1: ns on CPU; field 2: ns runnable but waiting for a CPU), and
//! the machine's CPU steal from `/proc/stat`.

use std::fs;

/// One thread's scheduler counters, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    pub fn plus(self, other: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

/// Counters of thread `tid` of this process (zero once it has exited).
pub fn schedstat(tid: u32) -> SchedStat {
    let Ok(text) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) else {
        return SchedStat::default();
    };
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    SchedStat {
        cpu_ns: fields.next().unwrap_or(0),
        wait_ns: fields.next().unwrap_or(0),
    }
}

/// Summed counters of `tids`.
pub fn schedstat_sum(tids: &[u32]) -> SchedStat {
    tids.iter()
        .fold(SchedStat::default(), |acc, &t| acc.plus(schedstat(t)))
}

/// Every thread of this process, with its name.
pub fn threads() -> Vec<(u32, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u32, String)> = dir
        .filter_map(|e| {
            let tid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
            let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some((tid, comm.trim().to_string()))
        })
        .collect();
    out.sort();
    out
}

/// Thread ids whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> Vec<u32> {
    threads()
        .into_iter()
        .filter(|(_, n)| n.starts_with(prefix))
        .map(|(t, _)| t)
        .collect()
}

/// The calling thread's id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time the hypervisor gave to other machines, summed over this
/// machine's CPUs, in `/proc/stat` ticks of 10 ms.
pub fn steal_ticks() -> u64 {
    let Ok(text) = fs::read_to_string("/proc/stat") else {
        return 0;
    };
    let line = text.lines().next().unwrap_or("");
    line.split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Milliseconds per `/proc/stat` tick (`USER_HZ` is 100 on Linux).
pub const MS_PER_TICK: f64 = 10.0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

/// The calling thread's CPU time so far, nanoseconds. Unlike `schedstat`,
/// which lags a running thread by up to a scheduler tick, this is exact.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Lets the calling thread's short sleeps end on time, for the rest of
/// its life: by default Linux may delay a sleeping thread's wake-up by up
/// to 50 µs to batch timers.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory; failure only leaves the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Host speed: the time of a fixed CPU-bound job of this benchmark's own
/// (no covenant code), best of three: sorting 8192 seeded integers and
/// 4096 binary searches in them. Nanoseconds.
pub fn speed_probe_ns() -> f64 {
    let job = || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        let mut v: Vec<u32> = (0..8192).map(|_| next()).collect();
        v.sort_unstable();
        (0..4096)
            .map(|_| {
                let k = next();
                usize::from(v.binary_search(&k).is_ok()) + (v.partition_point(|&e| e < k) & 1)
            })
            .sum::<usize>()
    };
    (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(job());
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}
