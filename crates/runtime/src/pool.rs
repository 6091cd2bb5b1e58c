//! A small work-stealing-free chunked thread pool, plus the parallel
//! GEMM driver built on it.
//!
//! [`ChunkPool`] parallelises a loop by cutting its index space into
//! one contiguous chunk per thread — a *static* partition computed
//! up-front from the item count and thread count alone. There are no
//! queues and no work stealing, so which thread computes which indices
//! is a pure function of `(items, threads)`: combined with kernels
//! whose per-element arithmetic does not depend on the partition (see
//! [`voyager_tensor::kernels`]), every parallel result is
//! bitwise-identical run-to-run *and* across thread counts.
//!
//! Scoped threads are spawned per call, so borrowed inputs (tensor
//! slices, model replicas) flow into workers without `Arc` or clones;
//! the pool object itself only carries the thread count. The spawn
//! cost is amortised by chunking — one thread per chunk per call, not
//! per item — and [`ChunkPool::run_chunks`] falls back to running
//! inline when there is only one chunk.

use std::ops::Range;

use voyager_tensor::kernels::{self, Layout};
use voyager_tensor::Tensor2;

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

    /// A pool sized to the machine's available parallelism (1 if that
    /// cannot be determined).
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ChunkPool::new(threads)
    }

    /// Number of threads (= maximum chunks per call).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The static partition of `items` into at most [`threads`]
    /// contiguous ranges: `items / threads` items each, with the
    /// remainder spread one-per-chunk from the front. A pure function
    /// of `(items, threads)` — never of runtime timing.
    ///
    /// [`threads`]: ChunkPool::threads
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

    /// Runs `f(range)` for every range of the static partition of
    /// `0..items`, on one thread per range.
    pub fn run_ranges<F>(&self, items: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let ranges = self.partition(items);
        if ranges.len() <= 1 {
            for r in ranges {
                f(r);
            }
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = ranges.into_iter();
            // The calling thread takes the first chunk instead of idling.
            let first = rest.next();
            for r in rest {
                scope.spawn(move || f(r));
            }
            if let Some(r) = first {
                f(r);
            }
        });
    }

    /// Splits `data` — a packed array of `data.len() / stride` items of
    /// `stride` elements each — into one disjoint `&mut` chunk per
    /// thread at item boundaries, and runs
    /// `f(first_item_index, chunk)` on each concurrently.
    ///
    /// This is the mutable-output counterpart of
    /// [`run_ranges`](ChunkPool::run_ranges): because the chunks are
    /// disjoint slices, workers write results in place with no locks
    /// and no result channel.
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

impl Default for ChunkPool {
    fn default() -> Self {
        ChunkPool::with_available_parallelism()
    }
}

/// Work budget (in `2·m·n·k` flops) per [`par_gemm`] chunk. Problems
/// below one budget stay on the calling thread: for small problems
/// (e.g. 64³ ≈ 0.5 Mflop), scoped-thread spawn/join overhead exceeds
/// the compute itself — the kernel bench (now the `kernels` section of
/// BENCH_layers.json) once measured the parallel NT/64 path at roughly
/// half the blocked kernel's throughput. Larger problems fan out to
/// `flops / budget` chunks, capped by the pool width, so crossing the
/// threshold never jumps straight from one chunk to `threads` slivers
/// of near-threshold size — that all-or-nothing fan-out is what left
/// parallel NT *under* the single-thread kernel on the committed run:
/// each sliver re-paid per-call setup (and, with packed kernels,
/// re-packed all of B) for only a fraction of the work.
const PAR_GEMM_MIN_FLOPS: usize = 1 << 20;

/// Row-parallel blocked GEMM: partitions the output rows over the
/// pool and computes each partition with
/// [`gemm_rows`](voyager_tensor::kernels::gemm_rows).
///
/// Because each output element is produced by exactly one worker using
/// the same per-element arithmetic as the single-threaded kernel, the
/// result is bitwise-identical to [`kernels::gemm`] at any thread
/// count. The fan-out is scaled to the work (see
/// [`PAR_GEMM_MIN_FLOPS`]) and chunk boundaries are cut at
/// [`kernels::gemm_row_alignment`] multiples so every chunk but the
/// last packs full register-tile row blocks.
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`.
pub fn par_gemm(pool: &ChunkPool, a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = kernels::gemm_dims(a, b, layout);
    if out.shape() != (m, n) {
        *out = Tensor2::zeros(m, n);
    }
    if m == 0 || n == 0 {
        return;
    }
    let flops = 2 * m * n * k;
    let align = kernels::gemm_row_alignment().max(1);
    let blocks = m.div_ceil(align);
    // One chunk per work budget, capped by pool width and by the
    // number of MR-row blocks. A pure function of (shape, threads) —
    // never of runtime timing — so partitions stay deterministic.
    let chunks = (flops / PAR_GEMM_MIN_FLOPS).clamp(1, pool.threads().min(blocks));
    if chunks <= 1 {
        kernels::gemm_rows(a, b, layout, 0..m, out.as_mut_slice());
        return;
    }
    let ranges = ChunkPool::new(chunks).partition(blocks);
    std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut head: Option<(Range<usize>, &mut [f32])> = None;
        for r in ranges {
            let lo = r.start * align;
            let hi = (r.end * align).min(m);
            let (chunk, tail) = rest.split_at_mut((hi - lo) * n);
            rest = tail;
            if head.is_none() {
                // The calling thread takes the first chunk after the
                // workers are launched, instead of idling in join.
                head = Some((lo..hi, chunk));
            } else {
                scope.spawn(move || kernels::gemm_rows(a, b, layout, lo..hi, chunk));
            }
        }
        if let Some((rows, chunk)) = head {
            kernels::gemm_rows(a, b, layout, rows, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_tensor::rng::thread_rng;

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
    fn run_ranges_single_thread_is_inline() {
        let pool = ChunkPool::new(1);
        let mut hits = Vec::new();
        // With one chunk the closure runs on the calling thread, so a
        // plain &mut capture works... via interior mutability-free
        // sequential fallback.
        let cell = std::sync::Mutex::new(&mut hits);
        pool.run_ranges(5, |r| {
            if let Ok(mut h) = cell.lock() {
                h.push(r);
            }
        });
        assert_eq!(hits, vec![0..5]);
    }

    #[test]
    fn par_gemm_is_bitwise_identical_across_thread_counts() {
        let mut rng = thread_rng();
        for layout in [Layout::NN, Layout::TN, Layout::NT] {
            // Big enough that 2·m·n·k clears PAR_GEMM_MIN_FLOPS several
            // times over, so multi-thread pools genuinely fan out; odd
            // n keeps panel tails in play and m is not a multiple of
            // the aligned chunk size.
            let (m, n, k) = (161, 101, 128);
            let (ashape, bshape) = match layout {
                Layout::NN => ((m, k), (k, n)),
                Layout::TN => ((k, m), (k, n)),
                Layout::NT => ((m, k), (n, k)),
            };
            let a = Tensor2::uniform(ashape.0, ashape.1, 1.0, &mut rng);
            let b = Tensor2::uniform(bshape.0, bshape.1, 1.0, &mut rng);
            let mut reference = Tensor2::zeros(1, 1);
            kernels::gemm(&a, &b, layout, &mut reference);
            for threads in [1, 2, 3, 8] {
                let pool = ChunkPool::new(threads);
                let mut out = Tensor2::zeros(1, 1);
                par_gemm(&pool, &a, &b, layout, &mut out);
                assert_eq!(out.shape(), (m, n));
                for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{layout:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_gemm_repeated_runs_are_bitwise_stable() {
        let mut rng = thread_rng();
        let a = Tensor2::uniform(16, 8, 1.0, &mut rng);
        let b = Tensor2::uniform(8, 12, 1.0, &mut rng);
        let pool = ChunkPool::new(4);
        let mut first = Tensor2::zeros(1, 1);
        par_gemm(&pool, &a, &b, Layout::NN, &mut first);
        for _ in 0..5 {
            let mut again = Tensor2::zeros(1, 1);
            par_gemm(&pool, &a, &b, Layout::NN, &mut again);
            assert_eq!(first.as_slice(), again.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn run_chunks_rejects_ragged_stride() {
        ChunkPool::new(2).run_chunks(&mut [0u8; 5], 2, |_, _| {});
    }
}
