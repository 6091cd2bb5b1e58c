//! The trace-driven simulation engine: the L1/L2 filter, the LLC and
//! DRAM, and the out-of-order core timing model.

use std::cell::Cell;
use std::collections::VecDeque;

use voyager_prefetch::Prefetcher;
use voyager_trace::{MemoryAccess, Trace};

use crate::cache::Cache;
use crate::{CacheConfig, SimConfig};

/// Which loads of one trace miss L1 and L2 and reach the LLC, with the
/// L1 and L2 demand counters.
///
/// Prefetches fill the LLC only, so L1 and L2 see the demand stream
/// alone; their LRU stamps count accesses, not cycles, and the cycle a
/// lookup receives only sets the residual of a prefetched line, which
/// they never hold. Whether load *i* reaches the LLC therefore depends
/// only on the lines of loads 0..=*i* and the two geometries, so every
/// run of one trace shares one walk whatever its prefetcher.
#[derive(Debug)]
struct LlcFilter {
    l1d: CacheConfig,
    l2: CacheConfig,
    /// The trace's lines: with the two geometries, the filter's key.
    lines: Vec<u64>,
    reaches_llc: Vec<bool>,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
}

impl LlcFilter {
    /// Walks `trace` through an empty L1 and L2. A level whose lookup
    /// missed is filled without another presence check: nothing
    /// between the lookup and the fill touches that level.
    fn walk(trace: &Trace, config: &SimConfig) -> Self {
        let mut l1 = Cache::new(&config.l1d);
        let mut l2 = Cache::new(&config.l2);
        let lines: Vec<u64> = trace.iter().map(MemoryAccess::line).collect();
        let reaches_llc = lines
            .iter()
            .map(|&line| {
                if l1.lookup(line, 0.0).hit {
                    return false;
                }
                let missed_l2 = !l2.lookup(line, 0.0).hit;
                if missed_l2 {
                    l2.insert(line, 0.0, false);
                }
                l1.insert(line, 0.0, false);
                missed_l2
            })
            .collect();
        LlcFilter {
            l1d: config.l1d,
            l2: config.l2,
            lines,
            reaches_llc,
            l1_accesses: l1.accesses(),
            l1_misses: l1.misses(),
            l2_accesses: l2.accesses(),
            l2_misses: l2.misses(),
        }
    }

    /// Whether this is the filter of `trace` under `config`'s L1 and
    /// L2: both geometries equal and every line equal, compared in full
    /// (a hash collision would simulate the wrong trace).
    fn matches(&self, trace: &Trace, config: &SimConfig) -> bool {
        self.l1d == config.l1d
            && self.l2 == config.l2
            && self.lines.len() == trace.len()
            && trace
                .iter()
                .zip(&self.lines)
                .all(|(a, &line)| a.line() == line)
    }
}

thread_local! {
    /// The filter of the last trace this thread simulated or filtered:
    /// about 9 bytes per load.
    static LAST_FILTER: Cell<Option<LlcFilter>> = const { Cell::new(None) };
}

/// Runs `f` on the filter of `trace` under `config`, reusing this
/// thread's last filter when it [matches](LlcFilter::matches) and
/// walking the trace in its place otherwise. PCs, addresses and bubbles
/// are read from `trace`, never from the filter.
fn with_filter<R>(trace: &Trace, config: &SimConfig, f: impl FnOnce(&LlcFilter) -> R) -> R {
    // Taken out for the call, so a prefetcher that simulates on this
    // thread walks a filter of its own instead of finding it borrowed.
    let filter = match LAST_FILTER.take() {
        Some(last) if last.matches(trace, config) => last,
        _ => LlcFilter::walk(trace, config),
    };
    let out = f(&filter);
    LAST_FILTER.set(Some(filter));
    out
}

/// The LLC plus DRAM: where prefetches go and where the loads that
/// missed L1 and L2 end.
///
/// Prefetches are inserted into the LLC only (the paper situates all
/// prefetchers at the LLC), so the *demand* stream that reaches the LLC
/// is independent of prefetching — the property that lets neural
/// predictions be computed offline and replayed, and that lets every
/// run of one trace share one L1/L2 walk.
#[derive(Debug)]
pub struct Hierarchy {
    llc: Cache,
    config: SimConfig,
    issued_prefetches: u64,
    useful_prefetches: u64,
    /// Useful prefetches whose data had not fully arrived when the
    /// demand hit them (the demand still paid part of the memory
    /// latency).
    late_prefetch_hits: u64,
    /// Earliest cycle at which the DRAM channel can start the next
    /// *demand* transfer (bandwidth model: one line per `dram_gap`
    /// cycles).
    dram_free_at: f64,
    /// Earliest cycle for the next *prefetch* transfer. Prefetches are
    /// scheduled at low priority: they queue behind demand traffic, but
    /// demands never wait for them (the standard demand-priority memory
    /// controller policy).
    prefetch_free_at: f64,
}

impl Hierarchy {
    /// Creates an empty LLC on an idle DRAM channel.
    pub fn new(config: &SimConfig) -> Self {
        Hierarchy {
            llc: Cache::new(&config.llc),
            config: *config,
            issued_prefetches: 0,
            useful_prefetches: 0,
            late_prefetch_hits: 0,
            dram_free_at: 0.0,
            prefetch_free_at: 0.0,
        }
    }

    /// Reserves a demand DRAM transfer slot at or after `now`,
    /// returning the queueing delay imposed by the bandwidth limit.
    /// Demand traffic has priority: it only queues behind other
    /// demands.
    fn dram_queue_delay(&mut self, now: f64) -> f64 {
        let start = self.dram_free_at.max(now);
        self.dram_free_at = start + self.config.dram_gap as f64;
        // The channel is busy for prefetch purposes too.
        self.prefetch_free_at = self.prefetch_free_at.max(self.dram_free_at);
        start - now
    }

    /// Reserves a low-priority prefetch transfer slot: prefetches queue
    /// behind everything, demands never queue behind them.
    fn prefetch_queue_delay(&mut self, now: f64) -> f64 {
        let start = self.prefetch_free_at.max(self.dram_free_at).max(now);
        self.prefetch_free_at = start + self.config.dram_gap as f64;
        start - now
    }

    /// Serves a demand load of `line` issued at cycle `now` that missed
    /// L1 and L2, returning its load-to-use latency in cycles. A miss
    /// fills the LLC without another presence check: nothing between
    /// the lookup and the fill touches it.
    pub(crate) fn demand(&mut self, line: u64, now: f64) -> f64 {
        let c = &self.config;
        let l2_lat = c.l1d.latency as f64 + c.l2.latency as f64;
        let llc_lat = l2_lat + c.llc.latency as f64;
        // The request reaches the LLC only after traversing L1 and L2,
        // so a late prefetch's residual is measured from `now + l2_lat`
        // — measuring it from `now` would charge the L1/L2 traversal
        // twice (once in `l2_lat`, once inside the residual).
        let r = self.llc.lookup(line, now + l2_lat);
        if r.hit {
            if r.first_use_of_prefetch {
                self.useful_prefetches += 1;
                if r.residual > c.llc.latency as f64 {
                    self.late_prefetch_hits += 1;
                }
            }
            // A late (in-flight) prefetch overlaps its remaining fill
            // time with the LLC lookup; the demand waits for whichever
            // finishes last.
            return l2_lat + (c.llc.latency as f64).max(r.residual);
        }
        // DRAM access. Bandwidth contention queues transfers behind
        // in-flight ones (including prefetches).
        let dram_latency = c.dram_latency as f64;
        let queue = self.dram_queue_delay(now);
        let latency = llc_lat + queue + dram_latency;
        self.llc.insert(line, now + latency, false);
        latency
    }

    /// Issues a prefetch for `line` into the LLC. Lines already present
    /// are dropped (not counted as issued), matching ChampSim.
    pub fn prefetch(&mut self, line: u64, now: f64) {
        if self.llc.contains(line) {
            return;
        }
        // Prefetches consume DRAM bandwidth at low priority: they
        // delay each other (an over-aggressive prefetcher starves its
        // own timeliness) but never demand traffic.
        let queue = self.prefetch_queue_delay(now);
        let ready = now + queue + (self.config.llc.latency + self.config.dram_latency) as f64;
        self.llc.insert(line, ready, true);
        self.issued_prefetches += 1;
    }

    /// Demand misses at the LLC (loads that went to DRAM).
    pub fn llc_misses(&self) -> u64 {
        self.llc.misses()
    }

    /// Demand accesses that reached the LLC.
    pub fn llc_accesses(&self) -> u64 {
        self.llc.accesses()
    }

    /// Prefetches inserted into the LLC.
    pub fn issued_prefetches(&self) -> u64 {
        self.issued_prefetches
    }

    /// Prefetched lines that served a demand access before eviction.
    pub fn useful_prefetches(&self) -> u64 {
        self.useful_prefetches
    }

    /// Useful prefetches that were still in flight when the demand
    /// arrived at the LLC (the demand paid a residual wait).
    pub fn late_prefetch_hits(&self) -> u64 {
        self.late_prefetch_hits
    }

    /// Prefetched lines evicted from the LLC before a demand used them.
    pub fn polluting_prefetches(&self) -> u64 {
        self.llc.prefetches_evicted_unused
    }
}

/// Filters a raw load trace through L1 and L2, returning the LLC access
/// stream — the input that LLC-side prefetchers (and Voyager) observe.
///
/// Bubbles accumulate: each emitted access carries the instruction
/// count (loads included) since the previous LLC access, saturating at
/// 250.
pub fn llc_stream(trace: &Trace, config: &SimConfig) -> Trace {
    with_filter(trace, config, |filter| {
        let mut out = Trace::new(trace.name());
        let mut pending: u64 = 0;
        for (a, &reaches_llc) in trace.iter().zip(&filter.reaches_llc) {
            pending += 1 + a.bubble as u64;
            if reaches_llc {
                out.push(MemoryAccess {
                    pc: a.pc,
                    addr: a.addr,
                    bubble: (pending - 1).min(250) as u8,
                });
                pending = 0;
            }
        }
        out
    })
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Total simulated cycles.
    pub cycles: f64,
    /// Total instructions (loads plus bubbles).
    pub instructions: u64,
    /// Demand accesses at the L1 data cache.
    pub l1_accesses: u64,
    /// Demand misses at the L1 data cache.
    pub l1_misses: u64,
    /// Demand accesses at the L2.
    pub l2_accesses: u64,
    /// Demand misses at the L2.
    pub l2_misses: u64,
    /// Demand accesses that reached the LLC.
    pub llc_accesses: u64,
    /// Demand misses at the LLC (DRAM accesses).
    pub llc_misses: u64,
    /// Prefetches inserted into the LLC.
    pub issued_prefetches: u64,
    /// Prefetches that served a demand hit before eviction.
    pub useful_prefetches: u64,
    /// Useful prefetches that were still in flight at first use (the
    /// demand paid a residual wait).
    pub late_prefetch_hits: u64,
    /// Prefetched lines evicted from the LLC before any demand used
    /// them. Unused prefetched lines still resident when the run ends
    /// are not counted.
    pub polluting_prefetches: u64,
    /// Retire-loop stalls forced by a full MSHR file.
    pub mshr_stalls: u64,
    /// Retire-loop stalls forced by the ROB window.
    pub rob_stalls: u64,
}

impl SimOutcome {
    /// Prefetch accuracy: useful / issued, or `None` when nothing was
    /// issued — an idle prefetcher has *no* accuracy, not a perfect
    /// one. (This used to return 1.0, which made a disabled prefetcher
    /// the most accurate configuration in any sweep.)
    pub fn accuracy(&self) -> Option<f64> {
        if self.issued_prefetches == 0 {
            None
        } else {
            Some(self.useful_prefetches as f64 / self.issued_prefetches as f64)
        }
    }

    /// Coverage relative to a no-prefetch baseline run of the same
    /// trace: the fraction of baseline LLC misses eliminated, or
    /// `None` when the baseline had no misses (there was nothing to
    /// cover, so no ratio exists).
    pub fn coverage_vs(&self, baseline: &SimOutcome) -> Option<f64> {
        if baseline.llc_misses == 0 {
            None
        } else {
            Some(1.0 - self.llc_misses as f64 / baseline.llc_misses as f64)
        }
    }

    /// Speedup (IPC ratio) over a baseline run.
    pub fn speedup_vs(&self, baseline: &SimOutcome) -> f64 {
        self.ipc / baseline.ipc
    }
}

/// Simulates a trace on the modelled core with `prefetcher` at the LLC.
///
/// The core model: instructions retire `width` per cycle; loads that
/// reach the LLC enter an outstanding-miss window bounded by `mshrs`
/// entries and the `rob`-instruction reorder window — misses overlap
/// (memory-level parallelism) until one of those limits forces a stall,
/// the behaviour that makes prefetching valuable in the first place.
pub fn simulate<P: Prefetcher + ?Sized>(
    trace: &Trace,
    prefetcher: &mut P,
    config: &SimConfig,
) -> SimOutcome {
    with_filter(trace, config, |filter| {
        simulate_llc(trace, filter, prefetcher, config)
    })
}

/// [`simulate`] past L1 and L2: the core's retire loop, with the loads
/// that `filter` sends to the LLC walking the LLC and DRAM.
fn simulate_llc<P: Prefetcher + ?Sized>(
    trace: &Trace,
    filter: &LlcFilter,
    prefetcher: &mut P,
    config: &SimConfig,
) -> SimOutcome {
    let mut h = Hierarchy::new(config);
    let mut cycle: f64 = 0.0;
    let mut instr: u64 = 0;
    // Outstanding long-latency loads: (instruction index, finish cycle).
    let mut outstanding: VecDeque<(u64, f64)> = VecDeque::new();
    let width = config.width as f64;
    let rob = config.rob as u64;
    let mshrs = config.mshrs as usize;
    // Slower than an LLC hit: the load waited on DRAM or on a late
    // prefetch, and holds an outstanding-miss slot until it finishes.
    let long_latency = (config.l1d.latency + config.l2.latency + config.llc.latency) as f64;
    let mut mshr_stalls: u64 = 0;
    let mut rob_stalls: u64 = 0;
    // Scratch buffer reused across the whole run: the per-access hot
    // path below does not allocate once it reaches steady state.
    let mut preds: Vec<u64> = Vec::new();
    for (a, &reaches_llc) in trace.iter().zip(&filter.reaches_llc) {
        instr += 1 + a.bubble as u64;
        cycle += (1 + a.bubble as u64) as f64 / width;
        // Retire completed loads; stall if the ROB window or MSHRs are
        // exhausted.
        while let Some(&(idx, fin)) = outstanding.front() {
            if fin <= cycle {
                outstanding.pop_front();
            } else if instr.saturating_sub(idx) > rob || outstanding.len() >= mshrs {
                if instr.saturating_sub(idx) > rob {
                    rob_stalls += 1;
                } else {
                    mshr_stalls += 1;
                }
                cycle = fin;
                outstanding.pop_front();
            } else {
                break;
            }
        }
        if !reaches_llc {
            continue;
        }
        let latency = h.demand(a.line(), cycle);
        // The prefetcher observes every LLC access (ChampSim
        // convention) and issues its candidates.
        prefetcher.access(a, &mut preds);
        for &p in &preds {
            h.prefetch(p, cycle);
        }
        if latency > long_latency {
            outstanding.push_back((instr, cycle + latency));
        }
    }
    // Drain: the run ends when the last outstanding load completes.
    // The queue is in issue order, not finish order: a late prefetch
    // hit can finish before an earlier DRAM miss.
    cycle = outstanding.iter().fold(cycle, |c, &(_, fin)| c.max(fin));
    SimOutcome {
        ipc: instr as f64 / cycle.max(1.0),
        cycles: cycle,
        instructions: instr,
        l1_accesses: filter.l1_accesses,
        l1_misses: filter.l1_misses,
        l2_accesses: filter.l2_accesses,
        l2_misses: filter.l2_misses,
        llc_accesses: h.llc_accesses(),
        llc_misses: h.llc_misses(),
        issued_prefetches: h.issued_prefetches(),
        useful_prefetches: h.useful_prefetches(),
        late_prefetch_hits: h.late_prefetch_hits(),
        polluting_prefetches: h.polluting_prefetches(),
        mshr_stalls,
        rob_stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_prefetch::{BestOffset, NextLine, NoPrefetcher, Stms};
    use voyager_trace::gen::{Benchmark, GeneratorConfig};

    fn seq_trace(n: u64) -> Trace {
        Trace::from_accesses(
            "seq",
            (0..n)
                .map(|i| MemoryAccess::new(0x400000, i * 64))
                .collect(),
        )
    }

    #[test]
    fn sequential_trace_misses_every_line_without_prefetch() {
        let trace = seq_trace(4096);
        let out = simulate(&trace, &mut NoPrefetcher::new(), &SimConfig::scaled());
        // Every access is a fresh line: all reach LLC and DRAM.
        assert_eq!(out.llc_misses, 4096);
        assert!(out.ipc > 0.0);
    }

    #[test]
    fn best_offset_speeds_up_streaming_trace() {
        // Stream over 8-byte elements: 8 loads per line, so L1 filters
        // most accesses and LLC accesses are realistically spaced —
        // giving the prefetcher lookahead time.
        let trace: Trace = (0..65_536u64)
            .map(|i| MemoryAccess::new(0x400000, i * 8))
            .collect();
        let cfg = SimConfig::scaled();
        let base = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        let mut bo = BestOffset::new();
        bo.set_degree(8);
        let with = simulate(&trace, &mut bo, &cfg);
        assert!(
            with.speedup_vs(&base) > 1.15,
            "BO should accelerate streaming: {} vs {}",
            with.ipc,
            base.ipc
        );
        let coverage = with.coverage_vs(&base).expect("baseline has misses");
        assert!(coverage > 0.3, "coverage {coverage}");
        let accuracy = with.accuracy().expect("prefetches were issued");
        assert!(accuracy > 0.8, "accuracy {accuracy}");
    }

    #[test]
    fn stms_covers_repeating_irregular_stream() {
        // An irregular but exactly repeating sequence: temporal
        // prefetching should cover the repeats.
        let mut lines: Vec<u64> = (0..2048u64).map(|i| (i * 7919) % 100_000).collect();
        let mut all = lines.clone();
        for _ in 0..4 {
            all.extend(lines.iter().copied());
        }
        lines = all;
        let trace: Trace = lines
            .iter()
            .map(|&l| MemoryAccess::new(1, l * 64))
            .collect();
        let cfg = SimConfig::scaled();
        let base = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        let mut stms = Stms::new();
        stms.set_degree(2);
        let with = simulate(&trace, &mut stms, &cfg);
        let coverage = with.coverage_vs(&base).expect("baseline has misses");
        assert!(coverage > 0.5, "temporal coverage {coverage}");
    }

    #[test]
    fn llc_stream_is_a_subset_preserving_order() {
        let trace = Benchmark::Bfs.generate(&GeneratorConfig::small());
        let stream = llc_stream(&trace, &SimConfig::scaled());
        assert!(!stream.is_empty());
        assert!(stream.len() < trace.len(), "L1/L2 must filter something");
        // Instruction counts are preserved up to bubble saturation.
        let raw: u64 = trace.instruction_count();
        let filtered: u64 = stream.instruction_count();
        assert!(filtered <= raw);
    }

    #[test]
    fn llc_stream_matches_simulator_llc_accesses() {
        let trace = Benchmark::Pr.generate(&GeneratorConfig::small());
        let cfg = SimConfig::scaled();
        let stream = llc_stream(&trace, &cfg);
        let out = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        assert_eq!(stream.len() as u64, out.llc_accesses);
    }

    #[test]
    fn prefetching_never_changes_the_llc_demand_stream() {
        // Prefetches go to LLC only, so the demand accesses reaching
        // the LLC are identical with and without prefetching.
        let trace = Benchmark::Cc.generate(&GeneratorConfig::small());
        let cfg = SimConfig::scaled();
        let base = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        let mut bo = BestOffset::new();
        let with = simulate(&trace, &mut bo, &cfg);
        assert_eq!(base.llc_accesses, with.llc_accesses);
    }

    #[test]
    fn accuracy_is_undefined_when_nothing_issued() {
        // Regression: this used to return 1.0, making a disabled
        // prefetcher report perfect accuracy in every sweep.
        let trace = seq_trace(64);
        let out = simulate(&trace, &mut NoPrefetcher::new(), &SimConfig::scaled());
        assert_eq!(out.issued_prefetches, 0);
        assert_eq!(out.accuracy(), None);
    }

    #[test]
    fn coverage_is_undefined_when_baseline_has_no_misses() {
        let trace = seq_trace(64);
        let cfg = SimConfig::scaled();
        let mut base = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        let with = base;
        base.llc_misses = 0; // synthetic all-hit baseline
        assert_eq!(with.coverage_vs(&base), None);
        // And a real baseline still yields a ratio.
        let real = simulate(&trace, &mut NoPrefetcher::new(), &cfg);
        assert_eq!(with.coverage_vs(&real), Some(0.0));
    }

    #[test]
    fn drain_waits_for_the_latest_finishing_load() {
        // A miss on line 0 issues ten next-line prefetches; the tenth
        // (line 10) queues behind the other nine on the channel and
        // arrives at cycle 330.25. A second miss, after a ROB stall on
        // the first, finishes at 368.25. A third load hits line 10
        // while it is still in flight: it finishes at 330.25 but was
        // queued after the second miss, so the run must not end at the
        // back of the queue.
        let cfg = SimConfig::scaled();
        let load = |line: u64, bubble: u8| MemoryAccess {
            pc: 0x400000,
            addr: line * 64,
            bubble,
        };
        let trace = Trace::from_accesses("drain", vec![load(0, 0), load(1000, 200), load(10, 0)]);
        let mut next_line = NextLine::new();
        next_line.set_degree(10);
        let out = simulate(&trace, &mut next_line, &cfg);
        assert_eq!(out.rob_stalls, 1);
        assert_eq!(out.late_prefetch_hits, 1);
        assert_eq!(out.cycles, 368.25, "the second miss completes last");
    }

    #[test]
    fn late_prefetch_latency_is_not_double_counted() {
        // Pin the exact demand latency around a prefetched line. A
        // prefetch issued at cycle 0 on an idle channel arrives at
        // `llc.latency + dram_latency`. A demand timed so the request
        // reaches the LLC exactly at arrival must cost a normal
        // LLC-hit latency (l1 + l2 + llc); one cycle earlier must cost
        // exactly one cycle more. The old residual accounting measured
        // lateness from the demand's *start*, so the L1+L2 traversal
        // was charged twice and the on-time case cost
        // 2*(l1+l2) + llc instead.
        let cfg = SimConfig::scaled();
        let l1 = cfg.l1d.latency as f64;
        let l2 = cfg.l2.latency as f64;
        let llc = cfg.llc.latency as f64;
        let ready = (cfg.llc.latency + cfg.dram_latency) as f64;
        let line = 42u64;

        let on_time = {
            let mut h = Hierarchy::new(&cfg);
            h.prefetch(line, 0.0);
            let now = ready - l1 - l2 - llc;
            assert!(now >= 0.0, "config too shallow for this timing");
            let latency = h.demand(line, now);
            assert_eq!(h.llc_misses(), 0, "served by the LLC, not DRAM");
            latency
        };
        assert_eq!(on_time, l1 + l2 + llc, "on-time prefetch hit");

        let one_late = {
            let mut h = Hierarchy::new(&cfg);
            h.prefetch(line, 0.0);
            let now = ready - l1 - l2 - llc - 1.0;
            h.demand(line, now)
        };
        assert_eq!(
            one_late,
            l1 + l2 + llc + 1.0,
            "a 1-cycle-late prefetch costs exactly 1 extra cycle"
        );

        let late = {
            let mut h = Hierarchy::new(&cfg);
            h.prefetch(line, 0.0);
            let latency = h.demand(line, 0.0);
            assert_eq!(h.late_prefetch_hits(), 1, "counted as a late hit");
            latency
        };
        // A demand racing the prefetch from cycle 0 overlaps its L1/L2
        // traversal with the in-flight fill and completes exactly when
        // the fill does.
        assert_eq!(late, ready);
    }

    /// Every `SimOutcome` field, f64s by their bits.
    fn outcome_bits(o: &SimOutcome) -> [u64; 15] {
        let SimOutcome {
            ipc,
            cycles,
            instructions,
            l1_accesses,
            l1_misses,
            l2_accesses,
            l2_misses,
            llc_accesses,
            llc_misses,
            issued_prefetches,
            useful_prefetches,
            late_prefetch_hits,
            polluting_prefetches,
            mshr_stalls,
            rob_stalls,
        } = *o;
        [
            ipc.to_bits(),
            cycles.to_bits(),
            instructions,
            l1_accesses,
            l1_misses,
            l2_accesses,
            l2_misses,
            llc_accesses,
            llc_misses,
            issued_prefetches,
            useful_prefetches,
            late_prefetch_hits,
            polluting_prefetches,
            mshr_stalls,
            rob_stalls,
        ]
    }

    /// A run under Best-Offset at degree 2, and the LLC stream, on this
    /// thread: both read this thread's filter entry.
    fn run(trace: &Trace, cfg: &SimConfig) -> ([u64; 15], Trace) {
        let mut bo = BestOffset::new();
        bo.set_degree(2);
        let out = simulate(trace, &mut bo, cfg);
        (outcome_bits(&out), llc_stream(trace, cfg))
    }

    /// [`run`] on a new thread, whose filter entry starts empty.
    fn run_fresh(trace: &Trace, cfg: &SimConfig) -> ([u64; 15], Trace) {
        let (trace, cfg) = (trace.clone(), *cfg);
        std::thread::spawn(move || run(&trace, &cfg))
            .join()
            .expect("the fresh thread's run panicked")
    }

    fn small(bench: Benchmark) -> Trace {
        bench.generate(&GeneratorConfig::small().with_accesses(8_000))
    }

    #[test]
    fn a_trace_simulated_twice_matches_a_fresh_thread() {
        let trace = small(Benchmark::Mcf);
        let cfg = SimConfig::scaled();
        let fresh = run_fresh(&trace, &cfg);
        let [.., issued, _, _, polluting, _, _] = fresh.0;
        assert!(issued > 0 && polluting > 0, "BO issued and polluted");
        assert_eq!(run(&trace, &cfg), fresh, "first run, which walks");
        assert_eq!(run(&trace, &cfg), fresh, "second run, which reuses");
    }

    #[test]
    fn one_changed_line_gets_its_own_walk() {
        let cfg = SimConfig::scaled();
        let trace = small(Benchmark::Pr);
        // A load that hit L1 or L2 now touches a line never seen before,
        // so it reaches the LLC: reusing the walk of `trace` would not.
        let i = LlcFilter::walk(&trace, &cfg)
            .reaches_llc
            .iter()
            .position(|&r| !r)
            .expect("some load hits L1 or L2");
        let mut accesses = trace.as_slice().to_vec();
        accesses[i].addr = 1 << 50;
        let changed = Trace::from_accesses(trace.name(), accesses);
        let fresh = run_fresh(&changed, &cfg);
        assert_ne!(fresh, run_fresh(&trace, &cfg));
        run(&trace, &cfg);
        assert_eq!(run(&changed, &cfg), fresh);
    }

    #[test]
    fn another_l2_geometry_gets_its_own_walk() {
        let cfg = SimConfig::scaled();
        let mut bigger_l2 = cfg;
        bigger_l2.l2.bytes *= 2;
        let trace = small(Benchmark::Soplex);
        let fresh = run_fresh(&trace, &bigger_l2);
        assert_ne!(fresh, run_fresh(&trace, &cfg));
        run(&trace, &cfg);
        assert_eq!(run(&trace, &bigger_l2), fresh);
    }

    #[test]
    fn interleaved_traces_match_fresh_threads() {
        let cfg = SimConfig::scaled();
        let a = small(Benchmark::Bfs);
        let b = small(Benchmark::Omnetpp);
        let (fresh_a, fresh_b) = (run_fresh(&a, &cfg), run_fresh(&b, &cfg));
        assert_eq!(run(&a, &cfg), fresh_a);
        assert_eq!(run(&b, &cfg), fresh_b);
        assert_eq!(run(&a, &cfg), fresh_a);
    }

    #[test]
    fn other_pcs_and_bubbles_on_the_same_lines_are_read_from_the_trace() {
        // The same lines reuse the walk; PCs and bubbles still come
        // from the trace passed in.
        let cfg = SimConfig::scaled();
        let trace = small(Benchmark::Xalancbmk);
        let other: Trace = trace
            .iter()
            .map(|a| MemoryAccess {
                pc: a.pc ^ 0x40,
                addr: a.addr,
                bubble: a.bubble.wrapping_add(3),
            })
            .collect();
        let fresh = run_fresh(&other, &cfg);
        assert_ne!(fresh, run_fresh(&trace, &cfg));
        run(&trace, &cfg);
        assert_eq!(run(&other, &cfg), fresh);
    }
}
