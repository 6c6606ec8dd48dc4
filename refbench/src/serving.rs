//! Serving phases on a loaded scorer: a closed loop of single requests
//! calling `FrozenScorer::score_into` directly, then an open loop at a
//! fixed rate and a saturating run, both through `microbatch::serve`.
//! A run measures the phases in short slices spread over its whole length
//! (see [`ServeSamples`]), so every phase sees the same mix of quiet and
//! contended periods of a shared host.
//!
//! The open-loop client is the benchmark's own: each request has a due
//! time on a fixed schedule, its latency runs from that due time (so a
//! stall also charges the requests queued behind it), and the client
//! sleeps rather than spins while it waits, leaving the batcher a core.

use crate::{stats, Tally};
use optinter_data::zipf::Zipf;
use optinter_data::{Batch, EncodedDataset};
use optinter_serve::{serve, Clock, FrozenScorer, MicroBatchOptions, MonotonicClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Zipf exponent of request row popularity (row 0 of the test split is
/// hottest), as the repository's load generator uses.
const ZIPF_S: f64 = 1.05;

/// Fewest requests a latency phase sends over a run, so its p99 has ten
/// samples beyond it.
pub const MIN_REQUESTS: usize = 2_000;

/// Consecutive closed-loop requests per window whose median latency is
/// one `single_p50_us` sample: a few to a few tens of milliseconds of
/// requests, short enough that the best window falls in a quiet moment
/// of a shared host.
pub const SINGLE_WINDOW: usize = 1_000;

/// Open-loop arrival rate, well below the front door's capacity.
pub const OPEN_RATE_PER_S: u64 = 2_000;

/// Requests answered with the same flush timestamp came from one batch.
fn count_flushes(done: &[u64]) -> u64 {
    done.windows(2).filter(|w| w[0] != w[1]).count() as u64 + u64::from(!done.is_empty())
}

/// The rows requests replay, and the probability each must be served.
pub struct Requests<'a> {
    pub data: &'a EncodedDataset,
    /// Global row index of each request, Zipf-hot over the test split.
    rows: Vec<usize>,
    test: Range<usize>,
    /// Expected probability per test row (from the parity check).
    expect: &'a [f32],
}

impl<'a> Requests<'a> {
    pub fn new(data: &'a EncodedDataset, test: Range<usize>, expect: &'a [f32], seed: u64) -> Self {
        let zipf = Zipf::new(test.len() as u32, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E00);
        let rows = (0..1 << 16)
            .map(|_| test.start + zipf.sample(&mut rng) as usize)
            .collect();
        Self {
            data,
            rows,
            test,
            expect,
        }
    }

    /// Row of request `k`.
    pub fn row(&self, k: u64) -> usize {
        self.rows[k as usize % self.rows.len()]
    }

    /// Checks a served probability for request `k`.
    fn check(&self, tally: &mut Tally, k: u64, prob: f32) {
        let want = self.expect[self.row(k) - self.test.start];
        tally.check(prob.is_finite() && prob.to_bits() == want.to_bits(), || {
            format!("request {k}: served {prob}, expected {want}")
        });
    }

    /// Fills `batch` with requests `k0..k0 + n`.
    pub fn fill(&self, batch: &mut Batch, k0: u64, n: usize) {
        batch.begin(self.data.num_fields, self.data.num_pairs);
        for k in k0..k0 + n as u64 {
            let r = self.row(k);
            batch.push_row(self.data.row_fields(r), self.data.row_cross(r), 0.0);
        }
    }
}

/// Closed-loop single-row `score_into` calls for `secs` seconds and at
/// least `min` requests, numbered from `k0`; appends latencies (µs).
fn closed_single(
    scorer: &mut FrozenScorer,
    req: &Requests,
    secs: f64,
    min: usize,
    k0: u64,
    lat: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let mut batch = Batch::empty();
    let mut out = Vec::new();
    for k in 0..64 {
        req.fill(&mut batch, k, 1);
        let _ = scorer.score_into(&batch, &mut out);
    }
    let t0 = Instant::now();
    let mut k = k0;
    while ((k - k0) as usize) < min || t0.elapsed().as_secs_f64() < secs {
        req.fill(&mut batch, k, 1);
        let t = Instant::now();
        let res = scorer.score_into(&batch, &mut out);
        lat.push(t.elapsed().as_nanos() as f64 * 1e-3);
        tally.attempted += 1;
        match res {
            Ok(()) if out.len() == 1 => req.check(tally, k, out[0]),
            Ok(()) => tally.fail(format!("request {k}: {} probabilities", out.len())),
            Err(e) => tally.fail(format!("request {k}: {e}")),
        }
        k += 1;
    }
}

/// What the front door showed over one or more slices.
#[derive(Default)]
pub struct FrontDoor {
    /// Latency per response (µs): from due time in the open loop, from
    /// submit time when saturating.
    pub latency_us: Vec<f64>,
    /// Responses received.
    pub answered: u64,
    /// Time from first submit to last completion, summed over slices.
    pub busy_ns: u64,
    /// Flushes (scored batches).
    pub flushes: u64,
    /// Largest delay (µs) between a request's due time and its submit.
    pub gen_late_max_us: f64,
}

impl FrontDoor {
    pub fn batch_size_mean(&self) -> f64 {
        self.answered as f64 / self.flushes.max(1) as f64
    }

    /// Responses per second of front-door time.
    pub fn rows_per_s(&self) -> f64 {
        self.answered as f64 / (self.busy_ns.max(1) as f64 * 1e-9)
    }

    fn absorb(&mut self, slice: FrontDoor) {
        self.latency_us.extend(slice.latency_us);
        self.answered += slice.answered;
        self.busy_ns += slice.busy_ns;
        self.flushes += slice.flushes;
        self.gen_late_max_us = self.gen_late_max_us.max(slice.gen_late_max_us);
    }
}

/// Every serving sample of a run, gathered slice by slice.
#[derive(Default)]
pub struct ServeSamples {
    /// Closed-loop single-request latencies (µs).
    pub single_us: Vec<f64>,
    /// Median single-request latency of each [`SINGLE_WINDOW`] requests
    /// in a row (µs).
    pub single_window_p50: Vec<f64>,
    /// p99 single-request latency of each slice that supports one (µs).
    pub single_slice_p99: Vec<f64>,
    /// Open loop at [`OPEN_RATE_PER_S`].
    pub open: FrontDoor,
    /// Saturating front door.
    pub sat: FrontDoor,
    /// Saturated front-door rate of each slice (rows/s).
    pub sat_slice_rate: Vec<f64>,
}

impl ServeSamples {
    /// Runs one slice of each phase, `secs` seconds each.
    pub fn slice(
        &mut self,
        scorer: &mut FrozenScorer,
        req: &Requests,
        secs: f64,
        tally: &mut Tally,
    ) {
        self.single(scorer, req, secs, 0, tally);
        let n_open = (OPEN_RATE_PER_S as f64 * secs) as u64;
        let open = front_door(scorer, req, OPEN_RATE_PER_S, n_open, secs, tally);
        self.open.absorb(open);
        let sat = front_door(scorer, req, 0, 0, secs, tally);
        self.sat_slice_rate.push(sat.rows_per_s());
        self.sat.absorb(sat);
    }

    /// One closed-loop slice of `secs` seconds and at least `min`
    /// requests.
    fn single(
        &mut self,
        scorer: &mut FrozenScorer,
        req: &Requests,
        secs: f64,
        min: usize,
        tally: &mut Tally,
    ) {
        let mut lat = Vec::new();
        let k0 = self.single_us.len() as u64;
        closed_single(scorer, req, secs, min, k0, &mut lat, tally);
        self.single_window_p50
            .extend(lat.chunks_exact(SINGLE_WINDOW).map(stats::median));
        self.single_slice_p99
            .extend(stats::supported_quantile(&lat, 0.99));
        self.single_us.extend(lat);
    }

    /// Tops the latency phases up to [`MIN_REQUESTS`], so their p99 is
    /// supported however short the run.
    pub fn top_up(&mut self, scorer: &mut FrozenScorer, req: &Requests, tally: &mut Tally) {
        if self.single_slice_p99.is_empty() {
            self.single(scorer, req, 0.0, MIN_REQUESTS, tally);
        }
        let lack = MIN_REQUESTS.saturating_sub(self.open.latency_us.len()) as u64;
        if lack > 0 {
            let open = front_door(scorer, req, OPEN_RATE_PER_S, lack, 0.0, tally);
            self.open.absorb(open);
        }
    }
}

/// Waits until `clock` reads `due`: sleeps while far away, yields near it.
fn wait_until(clock: &MonotonicClock, due: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 150_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Drives `microbatch::serve`. With `rate_per_s > 0`, `n_open` requests
/// are due on a fixed schedule (open loop); with 0 the client submits as
/// fast as the queue accepts for `secs` seconds (saturating).
fn front_door(
    scorer: &mut FrozenScorer,
    req: &Requests,
    rate_per_s: u64,
    n_open: u64,
    secs: f64,
    tally: &mut Tally,
) -> FrontDoor {
    let clock = MonotonicClock::new();
    let opts = MicroBatchOptions::default();
    let (gap_ns, n_open) = match 1_000_000_000u64.checked_div(rate_per_s) {
        Some(gap) => (gap, n_open),
        None => (0, u64::MAX),
    };
    let start = clock.now_ns() + 2_000_000;
    let end = start + (secs * 1e9) as u64;
    let late_max = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    let mut latency_us = Vec::new();
    let mut done = Vec::new();
    let mut first_submit = u64::MAX;
    let mut next_id = 0u64;
    let mut order_errors = 0u64;
    let mut probs = Vec::new();
    let clock_ref = &clock;
    serve(
        scorer,
        &clock,
        &opts,
        |mut sub| {
            wait_until(clock_ref, start);
            let mut k = 0u64;
            while k < n_open {
                let now = if gap_ns > 0 {
                    let due = start + k * gap_ns;
                    wait_until(clock_ref, due);
                    let now = clock_ref.now_ns();
                    late_max.fetch_max(now - due, Ordering::Relaxed);
                    now
                } else {
                    clock_ref.now_ns()
                };
                if gap_ns == 0 && now >= end {
                    break;
                }
                let r = req.row(k);
                if !sub.submit(k, req.data.row_fields(r), req.data.row_cross(r)) {
                    refused.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                k += 1;
            }
            submitted.store(k, Ordering::Relaxed);
        },
        |resp| {
            if resp.id != next_id {
                order_errors += 1;
            }
            next_id = resp.id + 1;
            let from = if gap_ns > 0 {
                start + resp.id * gap_ns
            } else {
                resp.submit_ns
            };
            first_submit = first_submit.min(resp.submit_ns);
            latency_us.push(resp.done_ns.saturating_sub(from) as f64 * 1e-3);
            done.push(resp.done_ns);
            probs.push((resp.id, resp.prob));
        },
    );
    let submitted = submitted.load(Ordering::Relaxed);
    let answered = probs.len() as u64;
    tally.attempted += submitted + refused.load(Ordering::Relaxed);
    for &(k, p) in &probs {
        req.check(tally, k, p);
    }
    if order_errors > 0 {
        tally.fail(format!("{order_errors} responses out of order"));
    }
    if answered != submitted {
        tally.failed += submitted.abs_diff(answered);
        tally.note(format!("{answered} responses for {submitted} requests"));
    }
    let refused = refused.load(Ordering::Relaxed);
    if refused > 0 {
        tally.failed += refused;
        tally.note(format!("{refused} submits refused"));
    }
    FrontDoor {
        answered,
        busy_ns: done
            .last()
            .copied()
            .unwrap_or(0)
            .saturating_sub(first_submit),
        flushes: count_flushes(&done),
        gen_late_max_us: late_max.load(Ordering::Relaxed) as f64 * 1e-3,
        latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_are_runs_of_equal_done_times() {
        assert_eq!(count_flushes(&[]), 0);
        assert_eq!(count_flushes(&[5]), 1);
        assert_eq!(count_flushes(&[5, 5, 7, 7, 7, 9]), 3);
    }
}
