//! The paper's Section 5.1 online loop on two streams: the mcf LLC
//! stream and the raw search trace.
//!
//! Per stream: `llc_stream` (mcf only) → `OnlineRun::execute` with
//! `VoyagerConfig::scaled()` → `ReplayPrefetcher` + `simulate` (mcf
//! only; search carries no timing) → windowed unified score.

use std::time::Instant;

use voyager::{OnlineRun, ReplayPrefetcher, VoyagerConfig};
use voyager_prefetch::{NoPrefetcher, Prefetcher};
use voyager_sim::{llc_stream, simulate, SimConfig};
use voyager_trace::Trace;

use crate::tracer::{Tracer, ROOT};
use crate::{Checks, UNIFIED_WINDOW};

/// What one pass of the loop produced.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// Stream accesses through the loop (both streams).
    pub accesses: usize,
    /// Wall seconds of the whole loop.
    pub wall_s: f64,
    /// Wall seconds per stream, mcf (LLC filter included) then search.
    pub stream_s: [f64; 2],
    /// Windowed unified accuracy, mean over both streams.
    pub acc: f64,
    /// mcf replay IPC ÷ no-prefetch IPC.
    pub ipc_speedup: f64,
    /// `OnlineRun` training seconds, both streams.
    pub train_s: f64,
    /// `OnlineRun` inference seconds, both streams.
    pub predict_s: f64,
    /// Accesses inference ran for, both streams.
    pub predicted_accesses: usize,
    /// Id of the loop's root span (when traced).
    pub span: u32,
    /// Output checks.
    pub checks: Checks,
}

/// Runs the loop once over `mcf_raw` (filtered to its LLC stream) and
/// `search` (used as is).
pub fn run(mcf_raw: &Trace, search: &Trace, tracer: &Tracer) -> OnlineResult {
    let cfg = VoyagerConfig::scaled();
    let sim_cfg = SimConfig::scaled();
    let root = tracer.span("online.loop", ROOT, None);
    let started = Instant::now();
    let mcf = {
        let _s = tracer.span("sim.llc_filter", root.id(), None);
        llc_stream(mcf_raw, &sim_cfg)
    };
    let mut out = OnlineResult {
        accesses: mcf.len() + search.len(),
        wall_s: 0.0,
        stream_s: [0.0; 2],
        acc: 0.0,
        ipc_speedup: 0.0,
        train_s: 0.0,
        predict_s: 0.0,
        predicted_accesses: 0,
        span: root.id(),
        checks: Checks::default(),
    };
    let mut accs = Vec::new();
    let mut mark = started;
    for (i, (stream, timing)) in [(&mcf, Some(mcf_raw)), (search, None)]
        .into_iter()
        .enumerate()
    {
        let run = {
            let _s = tracer.span("core.online.execute", root.id(), None);
            OnlineRun::execute(stream, &cfg)
        };
        check_run(&run, stream, &cfg, &mut out.checks);
        out.train_s += run.train_seconds;
        out.predict_s += run.predict_seconds;
        out.predicted_accesses += run.predicted_accesses;
        accs.push({
            let _s = tracer.span("sim.score", root.id(), None);
            run.unified_score_windowed(stream, UNIFIED_WINDOW).value()
        });
        if let Some(raw) = timing {
            let replay = {
                let _s = tracer.span("sim.replay", root.id(), None);
                let mut replay = ReplayPrefetcher::new(run.predictions);
                replay.set_degree(cfg.degree);
                simulate(raw, &mut replay, &sim_cfg)
            };
            let base = {
                let _s = tracer.span("sim.no_prefetch", root.id(), None);
                simulate(raw, &mut NoPrefetcher::new(), &sim_cfg)
            };
            out.ipc_speedup = replay.speedup_vs(&base);
            out.checks.expect(
                out.ipc_speedup.is_finite() && out.ipc_speedup > 0.0,
                "mcf replay IPC speedup is not finite",
            );
        }
        let now = Instant::now();
        out.stream_s[i] = (now - mark).as_secs_f64();
        mark = now;
    }
    out.acc = accs.iter().sum::<f64>() / accs.len() as f64;
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The loop's output checks: one prediction list per access, none
/// longer than the degree, none in epoch 0, every epoch loss finite.
fn check_run(run: &OnlineRun, stream: &Trace, cfg: &VoyagerConfig, checks: &mut Checks) {
    let n = stream.len();
    checks.expect(
        run.predictions.len() == n,
        "online run must give one prediction list per access",
    );
    // The epoch length rule of `OnlineRun::execute`.
    let epoch0 = cfg.epoch_accesses.min(n / 2).max(cfg.seq_len * 2).min(n);
    for (t, p) in run.predictions.iter().enumerate() {
        checks.expect(
            p.len() <= cfg.degree && (t >= epoch0 || p.is_empty()),
            "prediction list longer than the degree, or made in epoch 0",
        );
    }
    for loss in &run.epoch_losses {
        checks.expect(loss.is_finite(), "epoch loss is not finite");
    }
}
