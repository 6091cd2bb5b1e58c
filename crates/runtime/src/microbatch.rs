//! Microbatched inference serving.
//!
//! A hardware prefetcher sees one access at a time, but neural
//! inference amortizes poorly at batch size 1 (the paper's 18 µs
//! per-access latency, Section 5.4, is the motivating pain). This
//! module implements the standard serving remedy: requests flow through
//! an mpsc queue into a dedicated model thread that *coalesces* them
//! into a batch until either a size threshold or a time deadline is
//! hit, then runs one batched forward pass and fans the results back
//! out. The server records per-request latencies into shared
//! `voyager-obs` histograms — split into queue wait (enqueue to batch
//! close) and compute (batched forward pass) — and reports throughput
//! plus nearest-rank p50/p99 at shutdown.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use voyager_obs::{Histogram, HistogramSnapshot};

/// A model that can serve a whole batch of requests in one forward
/// pass. Implementations run on the server thread, so they may be
/// freely stateful and `&mut`.
pub trait BatchModel: Send + 'static {
    /// One inference request.
    type Request: Send + 'static;
    /// The per-request result.
    type Response: Send + 'static;

    /// Runs one batched forward pass. Must return exactly one response
    /// per request, in order.
    fn forward_batch(&mut self, requests: &[Self::Request]) -> Vec<Self::Response>;
}

/// Batching thresholds for [`MicrobatchServer`].
#[derive(Debug, Clone, Copy)]
pub struct MicrobatchConfig {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush a non-empty batch this long after its first request was
    /// dequeued, even if `max_batch` was not reached.
    pub max_delay: Duration,
}

impl Default for MicrobatchConfig {
    fn default() -> Self {
        MicrobatchConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Serving statistics, returned by [`MicrobatchServer::join`].
///
/// Latency distributions are `voyager-obs` histogram snapshots with
/// nearest-rank quantile semantics. (The previous in-module percentile
/// code computed `round((n-1)·q)` over a sorted vector, which returned
/// the *upper* of two samples for `q = 0.5`; the shared
/// [`voyager_obs::nearest_rank`] rule returns the lower one, and the
/// boundary tests below pin that down for n in `{0, 1, 2}`.)
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests served.
    pub requests: usize,
    /// Batched forward passes executed.
    pub batches: usize,
    /// Wall-clock seconds the server thread was alive.
    pub wall_seconds: f64,
    /// Per-request end-to-end latency (enqueue to response), in ns.
    pub latency: HistogramSnapshot,
    /// Per-request queue wait (enqueue to batch close), in ns.
    pub queue_wait: HistogramSnapshot,
    /// Per-batch forward-pass compute time, in ns.
    pub compute: HistogramSnapshot,
}

/// Saturating `Duration` → whole-nanosecond histogram sample.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl ServerStats {
    /// Mean requests per batched forward pass.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Requests served per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// End-to-end latency at nearest-rank quantile `q` in `[0, 1]`
    /// (`0.5` = p50, `0.99` = p99); zero when nothing was served.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Queue-wait latency at nearest-rank quantile `q`; zero when
    /// nothing was served.
    pub fn queue_wait_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.queue_wait.quantile(q))
    }

    /// Per-batch compute time at nearest-rank quantile `q`; zero when
    /// no batch ran.
    pub fn compute_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.compute.quantile(q))
    }
}

struct Envelope<M: BatchModel> {
    payload: M::Request,
    enqueued: Instant,
    reply: mpsc::Sender<M::Response>,
}

/// Why [`ClientHandle::try_infer`] refused or failed a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already held at least the caller's bound of
    /// not-yet-dequeued requests; nothing was enqueued.
    QueueFull,
    /// The server stopped (all handles dropped or thread exited)
    /// before a response arrived.
    Disconnected,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "microbatch queue full"),
            SubmitError::Disconnected => write!(f, "microbatch server stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handle for submitting requests to a running [`MicrobatchServer`].
/// Clone it to issue requests from several client threads; the server
/// shuts down once every clone is dropped.
pub struct ClientHandle<M: BatchModel> {
    tx: mpsc::Sender<Envelope<M>>,
    /// Requests enqueued but not yet dequeued into a batch, shared
    /// with the server thread. Signed so a racing decrement can never
    /// wrap; transiently negative readings are clamped at the reader.
    depth: Arc<AtomicI64>,
}

impl<M: BatchModel> Clone for ClientHandle<M> {
    fn clone(&self) -> Self {
        ClientHandle {
            tx: self.tx.clone(),
            depth: self.depth.clone(),
        }
    }
}

impl<M: BatchModel> ClientHandle<M> {
    /// Submits one request and blocks until its response arrives.
    ///
    /// Returns `None` if the server stopped before responding.
    pub fn infer(&self, request: M::Request) -> Option<M::Response> {
        let (reply, rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::AcqRel);
        let sent = self
            .tx
            .send(Envelope {
                payload: request,
                enqueued: Instant::now(),
                reply,
            })
            .is_ok();
        if !sent {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        rx.recv().ok()
    }

    /// Bounded submission: enqueues only if fewer than `max_queue`
    /// requests are currently waiting to be dequeued, then blocks for
    /// the response. The admission check is a reserve-then-verify
    /// `fetch_add`, so concurrent submitters can never overshoot the
    /// bound by more than their own reservation.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] if the bound would be exceeded
    /// (nothing is enqueued), [`SubmitError::Disconnected`] if the
    /// server stopped.
    pub fn try_infer(
        &self,
        request: M::Request,
        max_queue: usize,
    ) -> Result<M::Response, SubmitError> {
        let prior = self.depth.fetch_add(1, Ordering::AcqRel);
        if prior >= max_queue as i64 {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::QueueFull);
        }
        let (reply, rx) = mpsc::channel();
        let sent = self
            .tx
            .send(Envelope {
                payload: request,
                enqueued: Instant::now(),
                reply,
            })
            .is_ok();
        if !sent {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::Disconnected);
        }
        rx.recv().map_err(|_| SubmitError::Disconnected)
    }

    /// Requests currently enqueued but not yet pulled into a batch.
    /// Racy by nature; useful for tests and monitoring.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Acquire).max(0) as usize
    }
}

/// A model thread fed by an mpsc request queue with size/deadline
/// coalescing. See the module docs.
pub struct MicrobatchServer {
    handle: JoinHandle<ServerStats>,
}

impl MicrobatchServer {
    /// Moves `model` onto a fresh server thread and returns the server
    /// plus the first [`ClientHandle`].
    pub fn spawn<M: BatchModel>(mut model: M, cfg: MicrobatchConfig) -> (Self, ClientHandle<M>) {
        let max_batch = cfg.max_batch.max(1);
        let (tx, rx) = mpsc::channel::<Envelope<M>>();
        let depth = Arc::new(AtomicI64::new(0));
        let depth_server = depth.clone();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut requests = 0usize;
            let mut batches = 0usize;
            // Wide exact window: serving benches care about tail
            // latency, so keep p99 exact well past the default cap.
            let latency = Histogram::with_exact_cap(4096);
            let queue_wait = Histogram::with_exact_cap(4096);
            let compute = Histogram::with_exact_cap(4096);
            // Outer recv blocks for the batch-opening request; the
            // queue disconnecting (all clients dropped) is shutdown.
            while let Ok(first) = rx.recv() {
                depth_server.fetch_sub(1, Ordering::AcqRel);
                let deadline = Instant::now() + cfg.max_delay;
                let mut batch = vec![first];
                let mut disconnected = false;
                while batch.len() < max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(envelope) => {
                            depth_server.fetch_sub(1, Ordering::AcqRel);
                            batch.push(envelope);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
                let mut payloads = Vec::with_capacity(batch.len());
                let mut meta = Vec::with_capacity(batch.len());
                for envelope in batch {
                    payloads.push(envelope.payload);
                    meta.push((envelope.enqueued, envelope.reply));
                }
                let forward_started = Instant::now();
                for (enqueued, _) in &meta {
                    queue_wait.record(duration_ns(forward_started.duration_since(*enqueued)));
                }
                let responses = model.forward_batch(&payloads);
                compute.record(duration_ns(forward_started.elapsed()));
                assert_eq!(
                    responses.len(),
                    payloads.len(),
                    "BatchModel returned {} responses for {} requests",
                    responses.len(),
                    payloads.len()
                );
                requests += payloads.len();
                batches += 1;
                let now = Instant::now();
                for ((enqueued, reply), response) in meta.into_iter().zip(responses) {
                    latency.record(duration_ns(now.duration_since(enqueued)));
                    // A client that gave up waiting is not an error.
                    let _ = reply.send(response);
                }
                if disconnected {
                    break;
                }
            }
            ServerStats {
                requests,
                batches,
                wall_seconds: started.elapsed().as_secs_f64(),
                latency: latency.snapshot(),
                queue_wait: queue_wait.snapshot(),
                compute: compute.snapshot(),
            }
        });
        (MicrobatchServer { handle }, ClientHandle { tx, depth })
    }

    /// Waits for the server to finish (it stops when every
    /// [`ClientHandle`] is dropped) and returns its statistics.
    ///
    /// # Panics
    ///
    /// Panics if the server thread panicked.
    pub fn join(self) -> ServerStats {
        self.handle.join().expect("microbatch server panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Mock model: echoes each request + 1 and records batch sizes.
    struct Echo {
        batch_sizes: Arc<Mutex<Vec<usize>>>,
    }

    impl BatchModel for Echo {
        type Request = u64;
        type Response = u64;

        fn forward_batch(&mut self, requests: &[u64]) -> Vec<u64> {
            self.batch_sizes.lock().unwrap().push(requests.len());
            requests.iter().map(|r| r + 1).collect()
        }
    }

    fn echo() -> (Echo, Arc<Mutex<Vec<usize>>>) {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        (
            Echo {
                batch_sizes: sizes.clone(),
            },
            sizes,
        )
    }

    #[test]
    fn flushes_when_size_threshold_reached() {
        let (model, sizes) = echo();
        let cfg = MicrobatchConfig {
            max_batch: 4,
            // Deadline far away: only the size threshold can flush.
            max_delay: Duration::from_secs(30),
        };
        let (server, client) = MicrobatchServer::spawn(model, cfg);
        let clients: Vec<_> = (0..8).map(|_| client.clone()).collect();
        drop(client);
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| std::thread::spawn(move || c.infer(i as u64)))
            .collect();
        for (i, t) in threads.into_iter().enumerate() {
            assert_eq!(t.join().unwrap(), Some(i as u64 + 1));
        }
        let stats = server.join();
        assert_eq!(stats.requests, 8);
        // 8 concurrent requests with an unreachable deadline must have
        // been coalesced into full batches of 4.
        assert!(
            sizes.lock().unwrap().iter().all(|&s| s == 4),
            "expected full batches, got {:?}",
            sizes.lock().unwrap()
        );
        assert!(stats.latency_quantile(0.99) >= stats.latency_quantile(0.5));
    }

    #[test]
    fn flushes_on_deadline_without_filling_batch() {
        let (model, sizes) = echo();
        let cfg = MicrobatchConfig {
            max_batch: 1000, // unreachable: only the deadline can flush
            max_delay: Duration::from_millis(5),
        };
        let (server, client) = MicrobatchServer::spawn(model, cfg);
        assert_eq!(client.infer(41), Some(42));
        drop(client);
        let stats = server.join();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(sizes.lock().unwrap().as_slice(), &[1]);
        assert!((stats.mean_batch_size() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn shuts_down_cleanly_on_empty_queue() {
        let (model, sizes) = echo();
        let (server, client) = MicrobatchServer::spawn(model, MicrobatchConfig::default());
        drop(client); // no requests ever submitted
        let stats = server.join();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.batches, 0);
        assert!(sizes.lock().unwrap().is_empty());
        assert_eq!(stats.latency_quantile(0.5), Duration::ZERO);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn serves_many_requests_from_many_clients() {
        let (model, _) = echo();
        let cfg = MicrobatchConfig {
            max_batch: 16,
            max_delay: Duration::from_millis(1),
        };
        let (server, client) = MicrobatchServer::spawn(model, cfg);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = client.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        assert_eq!(c.infer(t * 1000 + i), Some(t * 1000 + i + 1));
                    }
                })
            })
            .collect();
        drop(client);
        for t in threads {
            t.join().unwrap();
        }
        let stats = server.join();
        assert_eq!(stats.requests, 200);
        assert!(stats.batches <= 200);
        assert!(stats.throughput() > 0.0);
        // The latency split is recorded per request / per batch, and
        // queue wait can never exceed the end-to-end latency ceiling.
        assert_eq!(stats.latency.count(), 200);
        assert_eq!(stats.queue_wait.count(), 200);
        assert_eq!(stats.compute.count() as usize, stats.batches);
        assert!(stats.queue_wait_quantile(1.0) <= stats.latency_quantile(1.0));
        assert!(stats.compute_quantile(0.5) <= stats.latency_quantile(1.0));
    }

    #[test]
    fn try_infer_bound_zero_rejects_everything() {
        let (model, sizes) = echo();
        let (server, client) = MicrobatchServer::spawn(model, MicrobatchConfig::default());
        assert_eq!(client.try_infer(1, 0), Err(SubmitError::QueueFull));
        assert_eq!(client.queue_depth(), 0, "rejected request left no residue");
        // A nonzero bound admits normally.
        assert_eq!(client.try_infer(41, 8), Ok(42));
        drop(client);
        let stats = server.join();
        assert_eq!(stats.requests, 1);
        assert_eq!(sizes.lock().unwrap().as_slice(), &[1]);
    }

    /// Mock model that parks inside `forward_batch` until released, so
    /// tests can pin requests in the queue deterministically.
    struct Gated {
        entered: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl BatchModel for Gated {
        type Request = u64;
        type Response = u64;

        fn forward_batch(&mut self, requests: &[u64]) -> Vec<u64> {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            requests.to_vec()
        }
    }

    #[test]
    fn try_infer_sheds_once_queue_bound_is_reached() {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let model = Gated {
            entered: entered_tx,
            release: release_rx,
        };
        let cfg = MicrobatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        };
        let (server, client) = MicrobatchServer::spawn(model, cfg);
        // First request is dequeued into a batch and parks in compute.
        let c1 = client.clone();
        let t1 = std::thread::spawn(move || c1.infer(1));
        entered.recv().unwrap();
        // Two more requests sit in the queue behind the parked batch.
        let waiters: Vec<_> = [2u64, 3]
            .into_iter()
            .map(|v| {
                let c = client.clone();
                std::thread::spawn(move || c.infer(v))
            })
            .collect();
        for _ in 0..10_000 {
            if client.queue_depth() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(client.queue_depth(), 2);
        // Bound 2 is already met: the newcomer is shed without
        // enqueueing, and the depth is unchanged.
        assert_eq!(client.try_infer(4, 2), Err(SubmitError::QueueFull));
        assert_eq!(client.queue_depth(), 2);
        // Release every batch; a roomier bound then admits.
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        assert_eq!(t1.join().unwrap(), Some(1));
        for w in waiters {
            assert!(w.join().unwrap().is_some());
        }
        assert_eq!(client.try_infer(4, 10), Ok(4));
        drop(client);
        assert_eq!(server.join().requests, 4);
    }

    /// Builds stats around a known latency sample set, as `join` would.
    fn stats_with_latencies(samples: &[u64]) -> ServerStats {
        ServerStats {
            requests: samples.len(),
            batches: samples.len().min(1),
            wall_seconds: 0.0,
            latency: voyager_obs::HistogramSnapshot::from_samples(samples),
            queue_wait: voyager_obs::HistogramSnapshot::empty(),
            compute: voyager_obs::HistogramSnapshot::empty(),
        }
    }

    #[test]
    fn latency_quantile_boundary_grid() {
        // Regression for the pre-obs percentile indexing: with
        // `round((n-1)·q)` the n=2 median came back as the *upper*
        // sample and empty/one-sample cases leaned on ad-hoc guards.
        // Nearest rank pins every cell of the n × q grid.
        let qs = [0.0, 0.5, 0.99, 1.0];
        let s0 = stats_with_latencies(&[]);
        for q in qs {
            assert_eq!(s0.latency_quantile(q), Duration::ZERO, "n=0 q={q}");
        }
        let s1 = stats_with_latencies(&[500]);
        for q in qs {
            assert_eq!(
                s1.latency_quantile(q),
                Duration::from_nanos(500),
                "n=1 q={q}"
            );
        }
        let s2 = stats_with_latencies(&[100, 900]);
        assert_eq!(s2.latency_quantile(0.0), Duration::from_nanos(100));
        assert_eq!(
            s2.latency_quantile(0.5),
            Duration::from_nanos(100),
            "median of two samples is the lower one under nearest rank"
        );
        assert_eq!(s2.latency_quantile(0.99), Duration::from_nanos(900));
        assert_eq!(s2.latency_quantile(1.0), Duration::from_nanos(900));
    }
}
