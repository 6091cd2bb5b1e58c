//! Load drivers and timers shared by the `layers` bench harness and
//! `voyagerctl`: a closed-loop microbatch driver, a closed-loop fleet
//! driver with an optional mid-run action, the synthetic request
//! stream, best-of-3 timers and a nearest-rank median.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use voyager_runtime::{
    BatchModel, FleetClient, FleetError, InferenceRequest, MicrobatchConfig, MicrobatchServer,
    ServerStats, ShardSpec,
};

use crate::fleet_demo;

/// Times `f` over `iters` iterations after one warmup call, repeats
/// the whole batch three times, and returns the *minimum* mean seconds
/// per iteration. Taking the best batch rejects scheduler preemption
/// noise (the only way a batch can be fast is if the code is fast; a
/// mean over one batch folds every context switch into the number,
/// which made repeated runs on shared vCPUs disagree by 2x).
pub fn best_of_3(iters: usize, mut f: impl FnMut()) -> f64 {
    let [best] = best_of_3_interleaved(iters, [&mut f]);
    best
}

/// [`best_of_3`] for workloads that are compared with each other:
/// one warmup call each, then three rounds of one timed loop per
/// workload, each keeping its best mean. A slow spell of a shared host
/// then falls on a round of every workload, not on whichever workload
/// happened to be timed during it.
pub fn best_of_3_interleaved<const N: usize>(
    iters: usize,
    mut fs: [&mut dyn FnMut(); N],
) -> [f64; N] {
    for f in fs.iter_mut() {
        f();
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..3 {
        for (f, best) in fs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            *best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    best
}

/// Nearest-rank median of `samples` (sorted in place): the lower of
/// the two middle samples of an even count, as
/// [`voyager_obs::nearest_rank`] defines it. `0.0` when empty.
pub fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    voyager_obs::nearest_rank(samples.len(), 0.5).map_or(0.0, |i| samples[i])
}

/// The `t`-th request of the synthetic serving stream over
/// `page_vocab` pages: PCs, pages and offsets walk strides 1, 3 and 5
/// (PCs and offsets over 64 tokens each).
pub fn synthetic_request(t: usize, seq_len: usize, page_vocab: usize) -> InferenceRequest {
    InferenceRequest {
        workload: Default::default(),
        pc: (0..seq_len).map(|j| (t + j) % 64).collect(),
        page: (0..seq_len).map(|j| (t * 3 + j) % page_vocab).collect(),
        offset: (0..seq_len).map(|j| (t * 5 + j) % 64).collect(),
    }
}

/// Serves exactly `requests` requests through a fresh microbatch
/// server over `model`, from `clients` closed-loop client threads, and
/// returns the server's statistics. Client `c` sends requests
/// `c·requests/clients .. (c+1)·requests/clients` in order, each built
/// by `request(t)`; a client stops early only if the server is gone.
pub fn serve_closed_loop<M: BatchModel>(
    model: M,
    cfg: MicrobatchConfig,
    clients: usize,
    requests: usize,
    request: impl Fn(usize) -> M::Request + Sync,
) -> ServerStats {
    let clients = clients.max(1);
    let (server, client) = MicrobatchServer::spawn(model, cfg);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = client.clone();
            let request = &request;
            scope.spawn(move || {
                for t in c * requests / clients..(c + 1) * requests / clients {
                    if std::hint::black_box(client.infer(request(t))).is_none() {
                        return;
                    }
                }
            });
        }
    });
    drop(client);
    server.join()
}

/// Outcome counts of one closed-loop fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetLoad {
    /// Requests answered.
    pub ok: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests that failed any other way (a shard stopped).
    pub other: usize,
}

impl FleetLoad {
    /// Every request sent.
    pub fn offered(&self) -> usize {
        self.ok + self.shed + self.other
    }
}

/// Drives every shard with `clients` closed-loop threads, each sending
/// `per_client` requests of its workload's [`fleet_demo::request`]
/// stream (client `c` sends indices `c·per_client ..`). When
/// `at_quarter` is given it runs on the calling thread once a quarter
/// of the offered load has completed, while the clients keep streaming
/// (a mid-run publish), and its result is returned with the counts.
pub fn drive_fleet<R>(
    client: &FleetClient,
    shards: &[ShardSpec],
    clients: usize,
    per_client: usize,
    at_quarter: Option<impl FnOnce() -> R>,
) -> (FleetLoad, Option<R>) {
    let [ok, shed, other, completed] = [0; 4].map(AtomicUsize::new);
    let offered = shards.len() * clients * per_client;
    let result = std::thread::scope(|scope| {
        for shard in shards {
            for c in 0..clients {
                let client = client.clone();
                let workload = shard.workload;
                let (ok, shed, other, completed) = (&ok, &shed, &other, &completed);
                scope.spawn(move || {
                    for t in c * per_client..(c + 1) * per_client {
                        let counter = match client.infer(fleet_demo::request(workload, t)) {
                            Ok(_) => ok,
                            Err(FleetError::Shed(_)) => shed,
                            Err(_) => other,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
        at_quarter.map(|action| {
            while completed.load(Ordering::Relaxed) < offered / 4 {
                std::thread::yield_now();
            }
            action()
        })
    });
    let load = FleetLoad {
        ok: ok.into_inner(),
        shed: shed.into_inner(),
        other: other.into_inner(),
    };
    (load, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Echoes each request; counts the requests it served.
    struct Echo(Arc<AtomicU64>);

    impl BatchModel for Echo {
        type Request = usize;
        type Response = usize;

        fn forward_batch(&mut self, requests: &[usize]) -> Vec<usize> {
            self.0.fetch_add(requests.len() as u64, Ordering::Relaxed);
            requests.to_vec()
        }
    }

    #[test]
    fn closed_loop_serves_exactly_the_requested_count() {
        // 10 over 4 clients does not divide: 2, 3, 2, 3 per client.
        let served = Arc::new(AtomicU64::new(0));
        let seen = std::sync::Mutex::new(Vec::new());
        let stats = serve_closed_loop(
            Echo(served.clone()),
            MicrobatchConfig::default(),
            4,
            10,
            |t| {
                seen.lock().expect("no poisoned test lock").push(t);
                t
            },
        );
        assert_eq!(stats.requests, 10);
        assert_eq!(served.load(Ordering::Relaxed), 10);
        let mut seen = seen.into_inner().expect("no poisoned test lock");
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>(), "each index once");
    }

    #[test]
    fn p50_is_the_lower_middle_sample_of_an_even_count() {
        // The 128th of 256 samples, not the 129th (`us[calls / 2]`).
        let mut us: Vec<f64> = (1..=256).rev().map(f64::from).collect();
        assert_eq!(p50(&mut us), 128.0);
        assert_eq!(p50(&mut [3.0, 1.0]), 1.0);
        assert_eq!(p50(&mut [5.0]), 5.0);
        assert_eq!(p50(&mut []), 0.0);
    }

    #[test]
    fn synthetic_request_walks_its_strides() {
        let r = synthetic_request(2, 3, 7);
        assert_eq!(r.pc, [2, 3, 4]);
        assert_eq!(r.page, [6, 0, 1]);
        assert_eq!(r.offset, [10, 11, 12]);
    }
}
