//! Mini-batch iteration with optional deterministic shuffling.

use crate::dataset::EncodedDataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;

/// One gathered mini-batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Row-major `[B * M]` global original-feature ids.
    pub fields: Vec<u32>,
    /// Row-major `[B * P]` global cross-feature ids (empty when the
    /// iterator was built with `with_cross(false)`).
    pub cross: Vec<u32>,
    /// Labels.
    pub labels: Vec<f32>,
    /// Number of fields per example.
    pub num_fields: usize,
    /// Number of pairs per example.
    pub num_pairs: usize,
}

impl Batch {
    /// An empty batch buffer, ready to be filled via [`Batch::fill`] (or
    /// [`BatchIter::next_into`]) without shape assumptions.
    pub fn empty() -> Self {
        Self {
            fields: Vec::new(),
            cross: Vec::new(),
            labels: Vec::new(),
            num_fields: 0,
            num_pairs: 0,
        }
    }

    /// Batch size.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Gathers the given dataset rows into this buffer, reusing its
    /// capacity. After the first few calls a recycled buffer has reached
    /// the steady-state batch size and filling makes no heap allocations.
    pub fn fill(&mut self, data: &EncodedDataset, rows: &[usize], include_cross: bool) {
        self.num_fields = data.num_fields;
        self.num_pairs = data.num_pairs;
        self.fields.clear();
        self.cross.clear();
        self.labels.clear();
        for &r in rows {
            self.fields.extend_from_slice(data.row_fields(r));
            if include_cross {
                self.cross.extend_from_slice(data.row_cross(r));
            }
            self.labels.push(data.labels[r]);
        }
    }

    /// Clears the buffer and fixes its per-example shape, ready for
    /// [`Batch::push_row`]. Capacity is retained, so a recycled buffer
    /// assembles request rows without heap allocations — the serving
    /// micro-batcher's steady-state path.
    pub fn begin(&mut self, num_fields: usize, num_pairs: usize) {
        self.fields.clear();
        self.cross.clear();
        self.labels.clear();
        self.num_fields = num_fields;
        self.num_pairs = num_pairs;
    }

    /// Grows capacity to hold `rows` examples of the given shape, so
    /// assembling up to that many rows with [`Batch::push_row`] never
    /// touches the heap.
    pub fn reserve(&mut self, rows: usize, num_fields: usize, num_pairs: usize) {
        self.begin(num_fields, num_pairs);
        self.fields.reserve(rows * num_fields);
        self.cross.reserve(rows * num_pairs);
        self.labels.reserve(rows);
    }

    /// Appends one example. `cross` may be empty (a cross-free batch) or
    /// exactly `num_pairs` long; mixing the two within a batch panics on
    /// the next consumer shape check.
    pub fn push_row(&mut self, fields: &[u32], cross: &[u32], label: f32) {
        debug_assert_eq!(
            fields.len(),
            self.num_fields,
            "push_row: field count mismatch"
        );
        debug_assert!(
            cross.is_empty() || cross.len() == self.num_pairs,
            "push_row: cross width mismatch"
        );
        self.fields.extend_from_slice(fields);
        self.cross.extend_from_slice(cross);
        self.labels.push(label);
    }
}

/// Iterator producing gathered mini-batches over a row range.
pub struct BatchIter<'a> {
    data: &'a EncodedDataset,
    order: Vec<usize>,
    /// Per-batch spans into `order`, precomputed once at construction.
    spans: Vec<Range<usize>>,
    next_span: usize,
    include_cross: bool,
}

impl<'a> BatchIter<'a> {
    /// Creates an iterator over `range`. With `shuffle_seed = Some(s)` the
    /// row order is a seeded permutation; with `None` it is sequential.
    ///
    /// Batch *contents* are a pure function of `(shuffle_seed, range,
    /// batch_size)` — the prefetching stream in [`crate::prefetch`] relies
    /// on this to overlap assembly with compute without changing results.
    pub fn new(
        data: &'a EncodedDataset,
        range: Range<usize>,
        batch_size: usize,
        shuffle_seed: Option<u64>,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(range.end <= data.len(), "range exceeds dataset");
        let mut order: Vec<usize> = range.collect();
        if let Some(seed) = shuffle_seed {
            let mut rng = StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
        let spans = (0..order.len().div_ceil(batch_size))
            .map(|b| b * batch_size..((b + 1) * batch_size).min(order.len()))
            .collect();
        Self {
            data,
            order,
            spans,
            next_span: 0,
            include_cross: true,
        }
    }

    /// Controls whether batches gather cross-feature ids (models that never
    /// memorize can skip the gather).
    pub fn with_cross(mut self, include: bool) -> Self {
        self.include_cross = include;
        self
    }

    /// Number of batches this iterator will yield.
    pub fn num_batches(&self) -> usize {
        self.spans.len()
    }

    /// Gathers the next batch into `out`, reusing its capacity. Returns
    /// `false` (leaving `out` untouched) once the iterator is exhausted.
    ///
    /// This is the zero-allocation face of the iterator: recycled buffers
    /// fed back through it never reallocate in steady state.
    pub fn next_into(&mut self, out: &mut Batch) -> bool {
        let Some(span) = self.spans.get(self.next_span) else {
            return false;
        };
        self.next_span += 1;
        // lint: allow(hot-path-alloc, reason="Range<usize> clone is a stack copy, no heap allocation")
        out.fill(self.data, &self.order[span.clone()], self.include_cross);
        true
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        let mut batch = Batch::empty();
        self.next_into(&mut batch).then_some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBundle;
    use crate::generator::{PlantedKind, SyntheticSpec};

    fn bundle() -> DatasetBundle {
        let spec = SyntheticSpec {
            name: "batch-test".into(),
            seed: 1,
            cardinalities: vec![5, 5, 5],
            zipf_exponent: 0.5,
            planted: PlantedKind::assign(1, 1, 1, 3, 1),
            field_weight_std: 0.2,
            memorized_std: 0.8,
            factorized_std: 0.8,
            latent_dim: 2,
            nonlinear_std: 0.0,
            noise_std: 0.0,
            target_pos_ratio: 0.4,
        };
        DatasetBundle::from_spec(spec, 103, 1, 5)
    }

    #[test]
    fn covers_all_rows_exactly_once() {
        let b = bundle();
        let iter = BatchIter::new(&b.data, 0..b.len(), 10, Some(9));
        assert_eq!(iter.num_batches(), 11);
        let mut total = 0;
        for batch in iter {
            assert!(batch.len() <= 10);
            total += batch.len();
        }
        assert_eq!(total, 103);
    }

    #[test]
    fn sequential_order_preserved_without_shuffle() {
        let b = bundle();
        let mut iter = BatchIter::new(&b.data, 0..5, 3, None);
        let first = iter.next().unwrap();
        assert_eq!(&first.fields[0..3], b.data.row_fields(0));
        assert_eq!(&first.fields[3..6], b.data.row_fields(1));
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let b = bundle();
        let a: Vec<f32> = BatchIter::new(&b.data, 0..50, 7, Some(42))
            .flat_map(|batch| batch.labels)
            .collect();
        let c: Vec<f32> = BatchIter::new(&b.data, 0..50, 7, Some(42))
            .flat_map(|batch| batch.labels)
            .collect();
        assert_eq!(a, c);
        let d: Vec<f32> = BatchIter::new(&b.data, 0..50, 7, Some(43))
            .flat_map(|batch| batch.labels)
            .collect();
        assert_ne!(a, d);
    }

    #[test]
    fn without_cross_skips_gather() {
        let b = bundle();
        let batch = BatchIter::new(&b.data, 0..10, 10, None)
            .with_cross(false)
            .next()
            .unwrap();
        assert!(batch.cross.is_empty());
        assert_eq!(batch.fields.len(), 10 * 3);
    }

    #[test]
    fn next_into_matches_iterator_and_reuses_capacity() {
        let b = bundle();
        let batches: Vec<Batch> = BatchIter::new(&b.data, 0..50, 7, Some(3)).collect();
        let mut iter = BatchIter::new(&b.data, 0..50, 7, Some(3));
        let mut buf = Batch::empty();
        let mut seen = 0usize;
        let mut caps = (0, 0, 0);
        while iter.next_into(&mut buf) {
            assert_eq!(buf.fields, batches[seen].fields);
            assert_eq!(buf.cross, batches[seen].cross);
            assert_eq!(buf.labels, batches[seen].labels);
            if seen == 1 {
                caps = (
                    buf.fields.capacity(),
                    buf.cross.capacity(),
                    buf.labels.capacity(),
                );
            } else if seen > 1 {
                // Steady state: refills never grow the recycled buffer.
                assert_eq!(buf.fields.capacity(), caps.0, "batch {seen}");
                assert_eq!(buf.cross.capacity(), caps.1, "batch {seen}");
                assert_eq!(buf.labels.capacity(), caps.2, "batch {seen}");
            }
            seen += 1;
        }
        assert_eq!(seen, batches.len());
        assert!(!iter.next_into(&mut buf), "exhausted iterator must refuse");
    }

    #[test]
    fn range_subset_only() {
        let b = bundle();
        let total: usize = BatchIter::new(&b.data, 20..40, 8, Some(1))
            .map(|x| x.len())
            .sum();
        assert_eq!(total, 20);
    }
}
