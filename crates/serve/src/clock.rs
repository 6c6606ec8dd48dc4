//! Time sources for the micro-batching front door.
//!
//! Latency timestamps need a monotonic "now", but wall-clock reads are
//! banned outside the bench crate (DESIGN.md §7) because they make runs
//! irreproducible. The compromise: all serving code takes a [`Clock`]
//! trait object-free generic, tests and proptests drive a [`ManualClock`]
//! deterministically, and the single real-time implementation
//! ([`MonotonicClock`]) confines the waived `Instant` reads to this
//! module.

use std::sync::atomic::{AtomicU64, Ordering};
// lint: allow(wall-clock, reason="MonotonicClock is the one sanctioned real-time source for serving timestamps; everything else uses ManualClock")
use std::time::Instant;

/// Monotonic nanosecond clock. Implementations must never go backwards.
pub trait Clock: Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin.
    fn now_ns(&self) -> u64;
}

/// A test clock that only moves when told to. Thread-safe so the
/// submitter and batcher threads can share one instance.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `delta` nanoseconds.
    pub fn advance_ns(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::SeqCst);
    }

    /// Jumps to an absolute time (must not move backwards).
    pub fn set_ns(&self, ns: u64) {
        self.ns.fetch_max(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// Real monotonic time, measured from construction.
#[derive(Debug)]
pub struct MonotonicClock {
    // lint: allow(wall-clock, reason="serving latency needs real elapsed time; confined here so every other serve module stays deterministic")
    origin: Instant,
}

impl MonotonicClock {
    /// Starts the clock; `now_ns` counts from this moment.
    pub fn new() -> Self {
        Self {
            // lint: allow(wall-clock, reason="single sanctioned real-time read for the serving path")
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(5);
        c.advance_ns(7);
        assert_eq!(c.now_ns(), 12);
        c.set_ns(10); // backwards jumps are ignored
        assert_eq!(c.now_ns(), 12);
        c.set_ns(100);
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
