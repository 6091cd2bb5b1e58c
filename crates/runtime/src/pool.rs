//! A small work-stealing-free chunked thread pool, on which the
//! data-parallel trainer runs its model replicas.
//!
//! [`ChunkPool`] parallelises a loop by cutting its index space into
//! one contiguous chunk per thread — a *static* partition computed
//! up-front from the item count and thread count alone. There are no
//! queues and no work stealing, so which thread computes which indices
//! is a pure function of `(items, threads)`: combined with work whose
//! result does not depend on the partition (the trainer reduces shard
//! gradients in shard-id order), every parallel result is
//! bitwise-identical run-to-run *and* across thread counts.
//!
//! Scoped threads are spawned per call, so borrowed inputs (training
//! batches, model replicas) flow into workers without `Arc` or clones;
//! the pool object itself only carries the thread count. The spawn
//! cost is amortised by chunking — one thread per chunk per call, not
//! per item — and [`ChunkPool::run_chunks`] falls back to running
//! inline when there is only one chunk.

use std::ops::Range;

/// A deterministic, work-stealing-free chunked thread pool.
///
/// # Example
///
/// ```
/// use voyager_runtime::ChunkPool;
///
/// let pool = ChunkPool::new(4);
/// let mut data = vec![0u64; 1000];
/// pool.run_chunks(&mut data, 1, |first, chunk| {
///     for (i, v) in chunk.iter_mut().enumerate() {
///         *v = (first + i) as u64 * 2;
///     }
/// });
/// assert_eq!(data[321], 642);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChunkPool {
    threads: usize,
}

impl ChunkPool {
    /// Creates a pool that partitions work into at most `threads`
    /// chunks (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ChunkPool {
            threads: threads.max(1),
        }
    }

    /// The static partition of `items` into at most `threads`
    /// contiguous ranges: `items / threads` items each, with the
    /// remainder spread one-per-chunk from the front. A pure function
    /// of `(items, threads)` — never of runtime timing.
    pub fn partition(&self, items: usize) -> Vec<Range<usize>> {
        let chunks = self.threads.min(items).max(1);
        let base = items / chunks;
        let extra = items % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }

    /// Splits `data` — a packed array of `data.len() / stride` items of
    /// `stride` elements each — into one disjoint `&mut` chunk per
    /// thread at item boundaries, and runs
    /// `f(first_item_index, chunk)` on each concurrently. Because the
    /// chunks are disjoint slices, workers write results in place with
    /// no locks and no result channel.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` (unless `data` is empty) or `data.len()`
    /// is not a multiple of `stride`.
    pub fn run_chunks<T, F>(&self, data: &mut [T], stride: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(stride > 0, "stride must be positive");
        assert_eq!(
            data.len() % stride,
            0,
            "data length {} is not a multiple of stride {stride}",
            data.len()
        );
        let items = data.len() / stride;
        let ranges = self.partition(items);
        if ranges.len() <= 1 {
            f(0, data);
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = data;
            let mut tail: Vec<(usize, &mut [T])> = Vec::new();
            let mut consumed = 0usize;
            for range in ranges {
                debug_assert_eq!(range.start, consumed);
                let (chunk, r) = rest.split_at_mut(range.len() * stride);
                rest = r;
                consumed = range.end;
                tail.push((range.start, chunk));
            }
            // First chunk runs on the calling thread, the rest on
            // scoped workers.
            let mut chunks = tail.into_iter();
            let head = chunks.next();
            for (start, chunk) in chunks {
                scope.spawn(move || f(start, chunk));
            }
            if let Some((start, chunk)) = head {
                f(start, chunk);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let pool = ChunkPool::new(4);
        let ranges = pool.partition(10);
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(pool.partition(2).len(), 2);
        assert_eq!(pool.partition(0), vec![0..0]);
        assert_eq!(ChunkPool::new(1).partition(5), vec![0..5]);
    }

    #[test]
    fn run_chunks_covers_every_item_once() {
        let pool = ChunkPool::new(3);
        let mut data = vec![0u32; 7 * 4]; // 7 items of stride 4
        pool.run_chunks(&mut data, 4, |first, chunk| {
            for (i, item) in chunk.chunks_mut(4).enumerate() {
                for v in item {
                    *v += (first + i) as u32 + 1;
                }
            }
        });
        for (i, item) in data.chunks(4).enumerate() {
            assert!(
                item.iter().all(|&v| v == i as u32 + 1),
                "item {i}: {item:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn run_chunks_rejects_ragged_stride() {
        ChunkPool::new(2).run_chunks(&mut [0u8; 5], 2, |_, _| {});
    }
}
