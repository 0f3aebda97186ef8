//! Window-boundary alignment shared by every periodic roller.
//!
//! The wire transport's round timeout needs the same policy after a stall
//! as the reactor's `WindowTicker`: *skip* missed boundaries and resume on
//! the aligned grid, never replay them back-to-back. Quotas are per-window; a catch-up burst would install
//! several windows of credit at once — exactly what the agreements bound.

use std::time::{Duration, Instant};

/// The boundary after `fired` that a periodic roller should act on next,
/// given that it is currently `now`.
///
/// Normally that is simply `fired + window`. But if the process stalled
/// (scheduler hiccup, VM freeze, suspended laptop) past one or more
/// boundaries, the missed windows are *skipped*, jumping to the first
/// aligned boundary after `now`.
pub fn next_aligned_boundary(fired: Instant, now: Instant, window: Duration) -> Instant {
    let next = fired + window;
    if next > now {
        return next;
    }
    let behind = now.duration_since(next).as_nanos();
    let w = window.as_nanos().max(1);
    let skip = (behind / w + 1).min(u128::from(u32::MAX)) as u32;
    next + window * skip
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_skips_missed_windows_instead_of_bursting() {
        let base = Instant::now();
        let w = Duration::from_millis(100);
        // On time: the very next boundary.
        assert_eq!(
            next_aligned_boundary(base, base + Duration::from_millis(50), w),
            base + w
        );
        // Exactly at the boundary still schedules the next one.
        assert_eq!(next_aligned_boundary(base, base + w, w), base + 2 * w);
        // A 1.35 s stall skips 13 whole windows and resumes on the aligned
        // grid right after `now` — no catch-up burst.
        let next = next_aligned_boundary(base, base + Duration::from_millis(1350), w);
        assert_eq!(next, base + 14 * w);
        // Degenerate zero window must not divide by zero.
        let z = next_aligned_boundary(base, base + w, Duration::ZERO);
        assert!(z <= base + w);
    }

    #[test]
    fn resumed_grid_stays_aligned_to_the_original_epoch() {
        let base = Instant::now();
        let w = Duration::from_millis(10);
        let mut fired = base;
        // Stall for 123 ms, then run on time: every subsequent boundary is
        // still base + k*w for integer k.
        fired = next_aligned_boundary(fired, base + Duration::from_millis(123), w);
        assert_eq!(fired, base + 13 * w);
        fired = next_aligned_boundary(fired, fired, w);
        assert_eq!(fired, base + 14 * w);
    }
}
