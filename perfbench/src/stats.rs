//! Order statistics over measured samples, host-speed normalization and
//! set-up timing.

use crate::sys;
use std::time::Instant;

/// The `p`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of `values` over the quietest quarter of their segments (at
/// least a quarter; ties are kept): those in which the hypervisor stole the
/// least CPU time (`steal`, per segment) to run other machines. Steal comes
/// in bursts that stall every thread alike, and in busy spells most
/// segments carry some; a slower program is slower in quiet segments too.
pub fn quiet_median(values: &[f64], steal: &[u64]) -> f64 {
    let steal_of = |i: usize| steal.get(i).copied().unwrap_or(0);
    let mut sorted: Vec<u64> = (0..values.len()).map(steal_of).collect();
    sorted.sort_unstable();
    // The lower quartile of the steal: ties keep every equally quiet segment.
    let Some(&cut) = sorted.get(sorted.len().saturating_sub(1) / 4) else {
        return 0.0;
    };
    let quiet: Vec<f64> = values
        .iter()
        .enumerate()
        .filter(|&(i, _)| steal_of(i) <= cut)
        .map(|(_, &v)| v)
        .collect();
    median(&quiet)
}

/// The speed-probe time, ns, that host-speed-normalized figures refer
/// to: such a figure is what the segment would have read on a host on
/// which [`sys::speed_probe_ns`] takes this long (about what it takes on
/// a 2.1 GHz Xeon vCPU). See [`speed_factor`].
pub const PROBE_REF_NS: f64 = 250_000.0;

/// The factor that normalizes a time measured between two speed probes
/// to the reference host speed (a rate is divided by it). The CPUs of a
/// shared host slow down and speed up by up to a half for seconds at a
/// time, and the probe, run while the program is idle, slows down with
/// them.
pub fn speed_factor(probe_before_ns: f64, probe_after_ns: f64) -> f64 {
    2.0 * PROBE_REF_NS / (probe_before_ns + probe_after_ns)
}

/// Set-up timing. A batch calls a set-up several times in a row, each
/// result dropped before the next call and outside the timing, and its
/// mean is one sample, so that a sub-millisecond set-up is timed over
/// many calls. Workloads spread their batches over the run, so that the
/// samples meet the host's slow and fast spells alike (a spell lasts
/// seconds and can slow one CPU by half). The figure is the
/// [`quiet_median`] over batches.
#[derive(Default)]
pub struct SetupTimer {
    means: Vec<f64>,
    steal: Vec<u64>,
}

impl SetupTimer {
    /// Times one batch of `per_batch` calls of `setup`; returns the last
    /// call's result.
    pub fn batch<T, E>(
        &mut self,
        per_batch: usize,
        mut setup: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let (mut total, steal0) = (0.0, sys::steal_ticks());
        let mut made = None;
        for _ in 0..per_batch.max(1) {
            drop(made.take());
            let t0 = Instant::now();
            let value = setup()?;
            total += t0.elapsed().as_secs_f64();
            made = Some(value);
        }
        self.means.push(total / per_batch.max(1) as f64);
        self.steal.push(sys::steal_ticks() - steal0);
        Ok(made.expect("at least one call"))
    }

    /// Times `batches` batches in a row; returns the last call's result.
    pub fn batches<T, E>(
        &mut self,
        batches: usize,
        per_batch: usize,
        mut setup: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut made = self.batch(per_batch, &mut setup)?;
        for _ in 1..batches {
            drop(made);
            made = self.batch(per_batch, &mut setup)?;
        }
        Ok(made)
    }

    /// Set-up time per call, seconds.
    pub fn seconds(&self) -> f64 {
        quiet_median(&self.means, &self.steal)
    }
}

/// Latency samples split into equal time segments of one run. Each
/// end-to-end percentile is the segment's percentile, aggregated over
/// segments by [`quiet_median`].
pub struct Segmented {
    segments: Vec<Vec<f64>>,
}

impl Segmented {
    pub fn new(n: usize) -> Segmented {
        Segmented {
            segments: vec![Vec::new(); n.max(1)],
        }
    }

    /// Records `value` in segment `seg` (clamped to the last segment).
    pub fn record(&mut self, seg: usize, value: f64) {
        let last = self.segments.len() - 1;
        self.segments[seg.min(last)].push(value);
    }

    pub fn merge(&mut self, other: Segmented) {
        for (a, b) in self.segments.iter_mut().zip(other.segments) {
            a.extend(b);
        }
    }

    /// [`quiet_median`] over non-empty segments of each segment's
    /// `p`-quantile; `steal[i]` is segment `i`'s steal, and its quantile
    /// is multiplied by `factor[i]` (1 where missing).
    pub fn quiet_quantile(&mut self, p: f64, steal: &[u64], factor: &[f64]) -> f64 {
        let (mut per, mut per_steal) = (Vec::new(), Vec::new());
        for (i, s) in self.segments.iter_mut().enumerate() {
            if !s.is_empty() {
                s.sort_by(f64::total_cmp);
                per.push(quantile(s, p) * factor.get(i).copied().unwrap_or(1.0));
                per_steal.push(steal.get(i).copied().unwrap_or(0));
            }
        }
        quiet_median(&per, &per_steal)
    }

    /// The `p`-quantile over every sample of the run.
    pub fn overall(&self, p: f64) -> f64 {
        quantile(&sorted(self.segments.concat()), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn quiet_quantile_skips_the_stolen_segments() {
        let mut s = Segmented::new(3);
        for seg in 0..3 {
            for i in 0..100 {
                let slow = if seg == 1 { 1000.0 } else { 0.0 };
                s.record(seg, f64::from(i) + slow);
            }
        }
        assert_eq!(s.quiet_quantile(0.5, &[0, 0, 0], &[]), 49.0);
        assert_eq!(s.quiet_quantile(0.5, &[3, 9, 4], &[]), 49.0);
        assert_eq!(s.quiet_quantile(0.5, &[0, 0, 9], &[]), 549.0);
        assert_eq!(s.quiet_quantile(0.5, &[0, 0, 9], &[2.0, 2.0, 1.0]), 1098.0);
        let v = [5.0, 1.0, 9.0, 2.0, 4.0, 6.0, 8.0, 3.0];
        assert_eq!(quiet_median(&v, &[0, 7, 1, 8, 9, 9, 9, 9]), 7.0);
    }
}
