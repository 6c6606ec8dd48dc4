//! Micro-batching front door: a bounded request queue with
//! work-conserving flush, built on the `optinter_data::prefetch` ring
//! idiom.
//!
//! Ownership protocol (mirrors `BatchStream`): request buffers are owned
//! by exactly one holder at a time and cycle submitter → full queue →
//! batcher → free list → submitter over two bounded
//! [`optinter_data::channel`]s (preallocated; unlike `std::sync::mpsc`
//! they never allocate even when a side blocks). The free list's bound
//! equals the total buffer count, so returning a buffer never blocks.
//! Before the first request, every request buffer is sized for one
//! request and the gather batch, the probability buffer and the scorer's
//! scratch for `max_batch` rows, so no batch composition touches the heap
//! (proved by `tests/alloc_steady_state.rs`).
//!
//! Flush policy: the batcher waits only while the queue is empty. Once it
//! holds a request it takes whatever else is already queued, up to
//! [`MicroBatchOptions::max_batch`], without waiting, and scores at once.
//! Batches therefore grow only while the scorer is busy — requests that
//! arrive during one flush form the next — and a request never waits on
//! an idle scorer. Dropping the submitter drains everything in flight;
//! thread panics propagate out of [`serve`] via `std::thread::scope`
//! (nothing hangs).
//!
//! [`simulate`] models the same policy deterministically (a fixed service
//! time per batch) for the proptests; [`serve`] runs it for real.

use crate::clock::Clock;
use crate::scorer::FrozenScorer;
use optinter_data::channel::{bounded, Receiver, Sender};
use optinter_data::Batch;

/// Tuning knobs for the front door.
#[derive(Debug, Clone)]
pub struct MicroBatchOptions {
    /// Bound of the full-request queue (in-flight requests beyond the
    /// batch being assembled). Submitters block when it is full.
    pub queue_slots: usize,
    /// Most requests one flush scores together.
    pub max_batch: usize,
}

impl Default for MicroBatchOptions {
    fn default() -> Self {
        Self {
            queue_slots: 32,
            max_batch: 32,
        }
    }
}

/// What the front door did over one [`serve`] call, counted on the
/// batcher thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches scored.
    pub flushes: u64,
    /// Requests answered.
    pub rows: u64,
    /// Batches that held `max_batch` requests.
    pub full_flushes: u64,
    /// Requests answered NaN because the scorer rejected them.
    pub nan_rows: u64,
}

/// One in-flight scoring request (a recycled buffer).
#[derive(Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// Submission timestamp (submitter's clock).
    pub submit_ns: u64,
    /// Global original-feature ids, `[num_fields]`.
    pub fields: Vec<u32>,
    /// Global cross-feature ids, `[num_pairs]`.
    pub cross: Vec<u32>,
}

impl Request {
    fn with_shape(num_fields: usize, num_pairs: usize) -> Self {
        Self {
            id: 0,
            submit_ns: 0,
            fields: Vec::with_capacity(num_fields),
            cross: Vec::with_capacity(num_pairs),
        }
    }
}

/// One scored response.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// Predicted click probability.
    pub prob: f32,
    /// When the request was submitted.
    pub submit_ns: u64,
    /// When its batch finished scoring (same clock).
    pub done_ns: u64,
}

/// Client-side handle: fills a recycled buffer and hands it to the
/// batcher. Dropping it shuts the front door down (in-flight requests
/// still drain).
pub struct Submitter<'a, C: Clock> {
    tx: Sender<Request>,
    free_rx: Receiver<Request>,
    fresh: Vec<Request>,
    num_fields: usize,
    num_pairs: usize,
    requires_cross: bool,
    clock: &'a C,
}

impl<C: Clock> Submitter<'_, C> {
    /// Submits one request, blocking while the queue is full. Returns
    /// `false` when the batcher is gone (serve loop panicked or exited).
    ///
    /// # Panics
    /// Panics when the request does not match the scorer's schema:
    /// `fields` must have exactly `num_fields` entries, and `cross` must
    /// have exactly `num_pairs` entries whenever the scorer memorizes any
    /// pair (otherwise it may also be empty). Validating here keeps
    /// malformed requests on the caller's thread instead of panicking the
    /// serving loop.
    pub fn submit(&mut self, id: u64, fields: &[u32], cross: &[u32]) -> bool {
        assert_eq!(
            fields.len(),
            self.num_fields,
            "submit: request has {} fields, the scorer expects {}",
            fields.len(),
            self.num_fields
        );
        assert!(
            cross.len() == self.num_pairs || (cross.is_empty() && !self.requires_cross),
            "submit: request cross width {} does not match the scorer's {} pairs",
            cross.len(),
            self.num_pairs
        );
        let mut req = match self.fresh.pop() {
            Some(r) => r,
            None => match self.free_rx.recv() {
                Ok(r) => r,
                Err(_) => return false,
            },
        };
        req.id = id;
        req.fields.clear();
        req.fields.extend_from_slice(fields);
        req.cross.clear();
        req.cross.extend_from_slice(cross);
        req.submit_ns = self.clock.now_ns();
        self.tx.send(req).is_ok()
    }
}

/// Runs the micro-batching front door until `client` returns and every
/// in-flight request has been scored.
///
/// `client` runs on its own scoped thread and submits requests through
/// the [`Submitter`]; `on_response` runs on the calling thread and sees
/// every response exactly once, in submission order.
pub fn serve<C, G, F>(
    scorer: &mut FrozenScorer,
    clock: &C,
    opts: &MicroBatchOptions,
    client: G,
    mut on_response: F,
) -> ServeStats
where
    C: Clock,
    G: FnOnce(Submitter<'_, C>) + Send,
    F: FnMut(Response),
{
    let max_batch = opts.max_batch.max(1);
    let queue_slots = opts.queue_slots.max(1);
    // Total pool: everything the queue and an assembling batch can hold,
    // one in the submitter's hand, one in flight through a channel.
    let num_buffers = queue_slots + max_batch + 2;
    let (full_tx, full_rx) = bounded::<Request>(queue_slots);
    // Bounded at the pool size so returning a buffer never blocks (and,
    // per the preallocated ring, never allocates).
    let (free_tx, free_rx) = bounded::<Request>(num_buffers);

    let num_fields = scorer.dims().num_fields;
    let num_pairs = scorer.dims().num_pairs;
    let requires_cross = scorer.requires_cross();
    let mut fresh = Vec::with_capacity(num_buffers);
    for _ in 0..num_buffers {
        fresh.push(Request::with_shape(num_fields, num_pairs));
    }
    // Size every batch-shaped buffer for `max_batch` rows up front, so no
    // batch composition allocates later.
    scorer.reserve(max_batch);
    let mut pending: Vec<Request> = Vec::with_capacity(max_batch);
    let mut batch = Batch::empty();
    batch.reserve(max_batch, num_fields, num_pairs);
    let mut probs: Vec<f32> = Vec::with_capacity(max_batch);
    // Degraded-path scratch: only touched when a batch fails validation.
    let mut single = Batch::empty();
    single.reserve(1, num_fields, num_pairs);
    let mut one: Vec<f32> = Vec::with_capacity(1);
    let mut stats = ServeStats::default();

    std::thread::scope(|s| {
        s.spawn(move || {
            client(Submitter {
                tx: full_tx,
                free_rx,
                fresh,
                num_fields,
                num_pairs,
                requires_cross,
                clock,
            });
        });

        // Block only on an empty queue; then take what is already queued.
        while let Ok(first) = full_rx.recv() {
            pending.push(first);
            while pending.len() < max_batch {
                match full_rx.try_recv() {
                    Ok(r) => pending.push(r),
                    Err(_) => break, // empty, or submitter gone: flush
                }
            }
            stats.flushes += 1;
            stats.rows += pending.len() as u64;
            stats.full_flushes += u64::from(pending.len() == max_batch);
            stats.nan_rows += flush_into(
                scorer,
                clock,
                &mut pending,
                &mut batch,
                &mut probs,
                (&mut single, &mut one),
                num_fields,
                num_pairs,
                &free_tx,
                &mut on_response,
            );
        }
    });
    stats
}

/// Scores the pending batch, emits its responses in order, and recycles
/// the request buffers; returns how many requests answered NaN.
/// Allocation-free once [`serve`] has sized its buffers.
///
/// When the batch is rejected with a typed `ScoreError` (an id outside
/// the frozen key space — `submit` validates arity but not id ranges),
/// the loop degrades to scoring each request alone: valid requests still
/// get real probabilities and only the offending ones answer NaN. The
/// serving loop itself never panics on request data.
#[allow(clippy::too_many_arguments)]
fn flush_into<C: Clock, F: FnMut(Response)>(
    scorer: &mut FrozenScorer,
    clock: &C,
    pending: &mut Vec<Request>,
    batch: &mut Batch,
    probs: &mut Vec<f32>,
    (single, one): (&mut Batch, &mut Vec<f32>),
    num_fields: usize,
    num_pairs: usize,
    free_tx: &Sender<Request>,
    on_response: &mut F,
) -> u64 {
    let mut nan_rows = 0;
    batch.begin(num_fields, num_pairs);
    for req in pending.iter() {
        batch.push_row(&req.fields, &req.cross, 0.0);
    }
    if scorer.score_into(batch, probs).is_err() {
        probs.clear();
        for req in pending.iter() {
            single.begin(num_fields, num_pairs);
            single.push_row(&req.fields, &req.cross, 0.0);
            let prob = match scorer.score_into(single, one) {
                Ok(()) => one.first().copied().unwrap_or(f32::NAN),
                Err(_) => {
                    nan_rows += 1;
                    f32::NAN
                }
            };
            probs.push(prob);
        }
    }
    let done_ns = clock.now_ns();
    for (req, &prob) in pending.iter().zip(probs.iter()) {
        on_response(Response {
            id: req.id,
            prob,
            submit_ns: req.submit_ns,
            done_ns,
        });
    }
    for req in pending.drain(..) {
        // The free list is bounded at the total buffer count, so this
        // never blocks; a send error just means the submitter is gone.
        let _ = free_tx.send(req);
    }
    nan_rows
}

/// One response from the deterministic simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResponse {
    /// Sequential request id (`0..gaps.len()`).
    pub id: u64,
    /// Simulated submission time.
    pub submit_ns: u64,
    /// Simulated time its batch finished scoring.
    pub done_ns: u64,
}

/// Deterministic, single-threaded model of the batcher under the same
/// work-conserving policy, with every batch taking `service_ns` to score
/// whatever its size. Request `i` arrives `gaps[i]` nanoseconds after
/// request `i-1`. A batch starts when the batcher is free and holds a
/// request — at the later of its first arrival and the previous batch's
/// end — and takes every request that has arrived by then, up to
/// `max_batch`; requests arriving during service queue for the next
/// batch. Returns every response plus the batch sizes, against which the
/// proptests check the queue invariants (no loss, no duplication, no
/// reordering, no waiting on an idle batcher).
pub fn simulate(max_batch: usize, service_ns: u64, gaps: &[u64]) -> (Vec<SimResponse>, Vec<usize>) {
    let max_batch = max_batch.max(1);
    let mut submit = Vec::with_capacity(gaps.len());
    let mut now = 0u64;
    for &gap in gaps {
        now = now.saturating_add(gap);
        submit.push(now);
    }
    let mut responses = Vec::with_capacity(gaps.len());
    let mut batch_sizes = Vec::new();
    let mut free_at = 0u64;
    let mut next = 0usize;
    while next < submit.len() {
        let start = submit[next].max(free_at);
        let end = (next + max_batch).min(submit.len());
        let taken = submit[next..end].partition_point(|&t| t <= start);
        let done_ns = start.saturating_add(service_ns);
        for (id, &submit_ns) in (next..).zip(&submit[next..next + taken]) {
            responses.push(SimResponse {
                id: id as u64,
                submit_ns,
                done_ns,
            });
        }
        batch_sizes.push(taken);
        free_at = done_ns;
        next += taken;
    }
    (responses, batch_sizes)
}
