//! The trace-driven simulation engine: hierarchy walk, LLC filtering,
//! and the out-of-order core timing model.

use std::collections::VecDeque;

use voyager_prefetch::Prefetcher;
use voyager_trace::{MemoryAccess, Trace};

use crate::cache::Cache;
use crate::SimConfig;

/// The three-level cache hierarchy plus DRAM.
///
/// Prefetches are inserted into the LLC only (the paper situates all
/// prefetchers at the LLC), so the *demand* stream that reaches the LLC
/// is independent of prefetching — the property that lets neural
/// predictions be computed offline and replayed.
#[derive(Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
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

/// What a demand access did, as seen by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DemandOutcome {
    /// Total load-to-use latency in cycles.
    pub latency: f64,
    /// The access missed L1 and L2 and reached the LLC.
    pub reached_llc: bool,
    /// The access went all the way to DRAM.
    pub dram: bool,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: &SimConfig) -> Self {
        Hierarchy {
            l1: Cache::new(&config.l1d),
            l2: Cache::new(&config.l2),
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

    /// Walks `line` down the hierarchy. A level whose lookup missed is
    /// filled without another presence check: nothing between the
    /// lookup and the fill touches that level.
    pub(crate) fn demand(&mut self, line: u64, now: f64) -> DemandOutcome {
        let c = &self.config;
        let l1_lat = c.l1d.latency as f64;
        if self.l1.lookup(line, now).hit {
            return DemandOutcome {
                latency: l1_lat,
                reached_llc: false,
                dram: false,
            };
        }
        let l2_lat = l1_lat + c.l2.latency as f64;
        if self.l2.lookup(line, now).hit {
            self.l1.insert(line, now, false);
            return DemandOutcome {
                latency: l2_lat,
                reached_llc: false,
                dram: false,
            };
        }
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
            self.l1.insert(line, now, false);
            self.l2.insert(line, now, false);
            // A late (in-flight) prefetch overlaps its remaining fill
            // time with the LLC lookup; the demand waits for whichever
            // finishes last.
            let wait = (c.llc.latency as f64).max(r.residual);
            return DemandOutcome {
                latency: l2_lat + wait,
                reached_llc: true,
                dram: false,
            };
        }
        // DRAM access; fill all levels. Bandwidth contention queues
        // transfers behind in-flight ones (including prefetches).
        let dram_latency = c.dram_latency as f64;
        let queue = self.dram_queue_delay(now);
        let latency = llc_lat + queue + dram_latency;
        self.llc.insert(line, now + latency, false);
        self.l2.insert(line, now, false);
        self.l1.insert(line, now, false);
        DemandOutcome {
            latency,
            reached_llc: true,
            dram: true,
        }
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

    /// Per-level demand statistics: `(accesses, misses)` for L1, L2 and
    /// LLC, in that order.
    pub fn level_stats(&self) -> [(u64, u64); 3] {
        [
            (self.l1.accesses(), self.l1.misses()),
            (self.l2.accesses(), self.l2.misses()),
            (self.llc.accesses(), self.llc.misses()),
        ]
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
}

/// Filters a raw load trace through L1 and L2, returning the LLC access
/// stream — the input that LLC-side prefetchers (and Voyager) observe.
///
/// Bubbles accumulate: each emitted access carries the instruction
/// count (loads included) since the previous LLC access, saturating at
/// 250.
pub fn llc_stream(trace: &Trace, config: &SimConfig) -> Trace {
    let mut h = Hierarchy::new(config);
    let mut out = Trace::new(trace.name());
    let mut pending: u64 = 0;
    for a in trace {
        pending += 1 + a.bubble as u64;
        let o = h.demand(a.line(), 0.0);
        if o.reached_llc {
            out.push(MemoryAccess {
                pc: a.pc,
                addr: a.addr,
                bubble: (pending - 1).min(250) as u8,
            });
            pending = 0;
        }
    }
    out
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
    let mut h = Hierarchy::new(config);
    let mut cycle: f64 = 0.0;
    let mut instr: u64 = 0;
    // Outstanding long-latency loads: (instruction index, finish cycle).
    let mut outstanding: VecDeque<(u64, f64)> = VecDeque::new();
    let width = config.width as f64;
    let rob = config.rob as u64;
    let mshrs = config.mshrs as usize;
    let mut mshr_stalls: u64 = 0;
    let mut rob_stalls: u64 = 0;
    // Scratch buffer reused across the whole run: the per-access hot
    // path below does not allocate once it reaches steady state.
    let mut preds: Vec<u64> = Vec::new();
    for a in trace {
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
        let line = a.line();
        let o = h.demand(line, cycle);
        if o.reached_llc {
            // The prefetcher observes every LLC access (ChampSim
            // convention) and issues its candidates.
            prefetcher.access(a, &mut preds);
            for &p in &preds {
                h.prefetch(p, cycle);
            }
            if o.latency > (config.l1d.latency + config.l2.latency + config.llc.latency) as f64 {
                outstanding.push_back((instr, cycle + o.latency));
            }
        }
    }
    // Drain: the run ends when the last outstanding load completes.
    // The queue is in issue order, not finish order: a late prefetch
    // hit can finish before an earlier DRAM miss.
    cycle = outstanding.iter().fold(cycle, |c, &(_, fin)| c.max(fin));
    let [(l1_accesses, l1_misses), (l2_accesses, l2_misses), _] = h.level_stats();
    SimOutcome {
        ipc: instr as f64 / cycle.max(1.0),
        cycles: cycle,
        instructions: instr,
        l1_accesses,
        l1_misses,
        l2_accesses,
        l2_misses,
        llc_accesses: h.llc_accesses(),
        llc_misses: h.llc_misses(),
        issued_prefetches: h.issued_prefetches(),
        useful_prefetches: h.useful_prefetches(),
        late_prefetch_hits: h.late_prefetch_hits(),
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
            h.demand(line, now)
        };
        assert!(on_time.reached_llc && !on_time.dram);
        assert_eq!(on_time.latency, l1 + l2 + llc, "on-time prefetch hit");

        let one_late = {
            let mut h = Hierarchy::new(&cfg);
            h.prefetch(line, 0.0);
            let now = ready - l1 - l2 - llc - 1.0;
            h.demand(line, now)
        };
        assert_eq!(
            one_late.latency,
            l1 + l2 + llc + 1.0,
            "a 1-cycle-late prefetch costs exactly 1 extra cycle"
        );

        let late = {
            let mut h = Hierarchy::new(&cfg);
            h.prefetch(line, 0.0);
            let out = h.demand(line, 0.0);
            assert_eq!(h.late_prefetch_hits(), 1, "counted as a late hit");
            out
        };
        // A demand racing the prefetch from cycle 0 overlaps its L1/L2
        // traversal with the in-flight fill and completes exactly when
        // the fill does.
        assert_eq!(late.latency, ready);
    }
}
