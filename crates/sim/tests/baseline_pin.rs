//! Bitwise pins of the trace generators and the baseline simulator.
//!
//! For generator seeds 1 and 1592598566 at 50,000 loads — the sizes
//! of the benchmark's `sim-baselines` workload — these tests pin:
//!
//! * a digest of every [`Benchmark::all`] trace (pc, address and
//!   bubble of each access);
//! * the length of each timing benchmark's LLC stream, and a digest of
//!   its content (pc, address and bubble of each emitted access);
//! * every [`SimOutcome`] field (f64 fields by their bits) of the 8
//!   timing benchmarks under the 5 baseline prefetchers at degree 2,
//!   as one digest per run, plus the per-prefetcher totals of issued,
//!   useful and late prefetches and the stall counts that the
//!   benchmark reports;
//! * the per-prefetcher totals of polluting prefetches.
//!
//! A change to a generator, the cache model, the core loop or a
//! prefetcher's tables that moves a single bit fails here.

use voyager_prefetch::{BestOffset, Domino, Isb, NoPrefetcher, Prefetcher, Stms};
use voyager_sim::{llc_stream, simulate, SimConfig, SimOutcome};
use voyager_trace::gen::{Benchmark, GeneratorConfig};
use voyager_trace::Trace;

const LOADS: usize = 50_000;
const HELD_OUT_SEED: u64 = 1_592_598_566;

/// The timing benchmarks, in the benchmark's order.
const TIMING: [Benchmark; 8] = [
    Benchmark::Bfs,
    Benchmark::Cc,
    Benchmark::Mcf,
    Benchmark::Omnetpp,
    Benchmark::Pr,
    Benchmark::Soplex,
    Benchmark::Sphinx,
    Benchmark::Xalancbmk,
];

fn prefetchers() -> [Box<dyn Prefetcher>; 5] {
    let mut ps: [Box<dyn Prefetcher>; 5] = [
        Box::new(NoPrefetcher::new()),
        Box::new(Stms::new()),
        Box::new(Domino::new()),
        Box::new(Isb::new()),
        Box::new(BestOffset::new()),
    ];
    for p in &mut ps {
        p.set_degree(2);
    }
    ps
}

fn generate(bench: Benchmark, seed: u64) -> Trace {
    bench.generate(
        &GeneratorConfig::small()
            .with_accesses(LOADS)
            .with_seed(seed),
    )
}

/// FNV-1a over a sequence of words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.eat(trace.len() as u64);
    for a in trace {
        h.eat(a.pc);
        h.eat(a.addr);
        h.eat(u64::from(a.bubble));
    }
    h.0
}

fn outcome_digest(o: &SimOutcome) -> u64 {
    let mut h = Fnv::new();
    for x in [
        o.ipc.to_bits(),
        o.cycles.to_bits(),
        o.instructions,
        o.l1_accesses,
        o.l1_misses,
        o.l2_accesses,
        o.l2_misses,
        o.llc_accesses,
        o.llc_misses,
        o.issued_prefetches,
        o.useful_prefetches,
        o.late_prefetch_hits,
        o.mshr_stalls,
        o.rob_stalls,
    ] {
        h.eat(x);
    }
    h.0
}

fn pin_traces(seed: u64, expected: [u64; 11]) {
    let got = Benchmark::all().map(|b| trace_digest(&generate(b, seed)));
    assert_eq!(
        got, expected,
        "trace digests moved at seed {seed}: {got:#018x?}"
    );
}

fn pin_llc_streams(seed: u64, expected: [usize; 8]) {
    let cfg = SimConfig::scaled();
    let got = TIMING.map(|b| llc_stream(&generate(b, seed), &cfg).len());
    assert_eq!(got, expected, "LLC stream lengths moved at seed {seed}");
}

fn pin_llc_stream_contents(seed: u64, expected: [u64; 8]) {
    let cfg = SimConfig::scaled();
    let got = TIMING.map(|b| trace_digest(&llc_stream(&generate(b, seed), &cfg)));
    assert_eq!(
        got, expected,
        "LLC stream contents moved at seed {seed}: {got:#018x?}"
    );
}

/// Per-prefetcher totals over the 8 benchmarks: issued, useful and
/// late prefetches, MSHR stalls and ROB stalls.
type Totals = [[u64; 5]; 5];

fn pin_outcomes(
    seed: u64,
    expected: [[u64; 5]; 8],
    expected_totals: Totals,
    expected_polluting: [u64; 5],
) {
    let cfg = SimConfig::scaled();
    let mut got = [[0u64; 5]; 8];
    let mut totals: Totals = [[0; 5]; 5];
    let mut polluting = [0u64; 5];
    for (b, bench) in TIMING.into_iter().enumerate() {
        let trace = generate(bench, seed);
        for (p, mut pf) in prefetchers().into_iter().enumerate() {
            let o = simulate(&trace, pf.as_mut(), &cfg);
            got[b][p] = outcome_digest(&o);
            for (t, x) in totals[p].iter_mut().zip([
                o.issued_prefetches,
                o.useful_prefetches,
                o.late_prefetch_hits,
                o.mshr_stalls,
                o.rob_stalls,
            ]) {
                *t += x;
            }
            polluting[p] += o.polluting_prefetches;
            assert_eq!(
                got[b][p],
                expected[b][p],
                "{} under {} moved at seed {seed}: {o:?}",
                bench.name(),
                pf.name()
            );
        }
    }
    assert_eq!(totals, expected_totals, "totals moved at seed {seed}");
    assert_eq!(
        polluting, expected_polluting,
        "polluting prefetch totals moved at seed {seed}"
    );
}

#[test]
fn traces_seed_1() {
    pin_traces(
        1,
        [
            0x6573_6a1f_b77c_2cf5,
            0x70bf_697c_657e_9b7d,
            0x6075_b56c_ac3f_1cb2,
            0x6eef_6c78_27b8_6ee6,
            0x1615_f584_2c52_5cf4,
            0x78fa_2839_6db4_9ab9,
            0x460b_70d1_2f18_7cdd,
            0x8de3_72a7_9efb_0beb,
            0xf7b4_4b42_00d0_00e1,
            0x6296_b09c_7a94_bf98,
            0x97cd_966c_9ea9_0156,
        ],
    );
}

#[test]
fn traces_held_out_seed() {
    pin_traces(
        HELD_OUT_SEED,
        [
            0x8c1b_5296_4668_cfe1,
            0xd6c5_fba3_f676_8257,
            0xe0e5_1327_9728_e447,
            0xeb22_207d_7de6_0851,
            0x764c_1093_bdb6_a427,
            0x4df1_c123_74b6_fe62,
            0xa914_dadc_387f_7d57,
            0x023d_0f36_3f28_c5fd,
            0xf8b8_8495_544a_d5e2,
            0x2bdf_c6d3_82e9_5339,
            0x88b6_703d_cd9b_e9b6,
        ],
    );
}

#[test]
fn llc_streams_seed_1() {
    pin_llc_streams(1, [9451, 4533, 46305, 16372, 7595, 35027, 42912, 48706]);
}

#[test]
fn llc_streams_held_out_seed() {
    pin_llc_streams(
        HELD_OUT_SEED,
        [9147, 4636, 46085, 16387, 7701, 34918, 42724, 48834],
    );
}

#[test]
fn llc_stream_contents_seed_1() {
    pin_llc_stream_contents(
        1,
        [
            0xe1d2_a2a3_0d88_df7a,
            0x3cc2_0426_9982_d76d,
            0xe53a_7cc8_74df_44ac,
            0x9cd7_8331_2911_cfda,
            0x93e3_f844_0015_0a0f,
            0xa528_e980_477d_540e,
            0xa386_a432_fd80_db78,
            0x4b73_d700_2bf8_a9bf,
        ],
    );
}

#[test]
fn llc_stream_contents_held_out_seed() {
    pin_llc_stream_contents(
        HELD_OUT_SEED,
        [
            0xb8c7_a4ae_8564_32e2,
            0x99df_ed8a_d912_eb55,
            0x7bc4_4e1d_ae94_4db2,
            0xcab3_c94b_93d8_c6fe,
            0x7dda_b0e6_3ced_3bd2,
            0xa741_f814_04f0_7d80,
            0xe2ce_ee14_df14_7e8f,
            0x3e01_c8b5_b409_b307,
        ],
    );
}

#[test]
fn outcomes_seed_1() {
    pin_outcomes(
        1,
        [
            [
                0x3c2e_9ff0_89c8_980e,
                0x3c2e_9ff0_89c8_980e,
                0x3c2e_9ff0_89c8_980e,
                0x3c2e_9ff0_89c8_980e,
                0xe3cc_2f3f_197e_5728,
            ],
            [
                0x4ad2_5135_9839_3649,
                0x4ad2_5135_9839_3649,
                0x4ad2_5135_9839_3649,
                0x4ad2_5135_9839_3649,
                0xff4d_629c_df9b_92f4,
            ],
            [
                0xa6a5_019b_d21f_c879,
                0xc5aa_aec8_d7be_fe5d,
                0x5d19_38a5_4fca_929c,
                0x19e9_a5ac_703e_a1bc,
                0xcbd9_6d21_02f3_99ac,
            ],
            [
                0x5120_6dff_03d6_5b0d,
                0xb19c_11e1_8e44_709c,
                0xd0c3_f97d_bb59_bf59,
                0xa2a8_1806_235e_9366,
                0x4c8b_de8f_e1c2_614b,
            ],
            [
                0x147b_2310_3471_e5ed,
                0x66c3_e297_7e38_e9e4,
                0x1d1e_e13f_25a4_59d3,
                0x40a0_81a3_e5d1_d43a,
                0xca1d_8ef6_46c9_a47f,
            ],
            [
                0xa568_f125_8229_c3cd,
                0xd9b0_5cd5_e67e_b831,
                0x5518_8958_ade2_4438,
                0xaf06_554b_e263_9b9b,
                0xf75e_c17c_4cbc_e699,
            ],
            [
                0xb4cd_f36a_b989_a74b,
                0xcce9_10ea_ee9a_5d70,
                0x6df7_c749_c967_5cca,
                0x67a2_9537_a6f6_29fc,
                0x1b60_5daa_4fca_2ad6,
            ],
            [
                0x0fc0_52ee_6f3e_76d3,
                0xa9d0_e505_e44b_7490,
                0x62f3_3af6_f89b_3642,
                0xbdfc_029a_6553_cf03,
                0x8485_74b0_9a0e_b9f5,
            ],
        ],
        [
            [0, 0, 0, 130805, 9267],
            [101913, 74461, 71605, 123138, 8330],
            [94869, 73873, 72036, 123881, 8299],
            [86801, 64776, 51016, 88538, 8659],
            [241110, 62811, 55082, 91544, 7412],
        ],
        [0, 26658, 20295, 21117, 175760],
    );
}

#[test]
fn outcomes_held_out_seed() {
    pin_outcomes(
        HELD_OUT_SEED,
        [
            [
                0x0368_ac84_f155_f3aa,
                0x0368_ac84_f155_f3aa,
                0x0368_ac84_f155_f3aa,
                0x0368_ac84_f155_f3aa,
                0x7f60_8cf6_218c_1257,
            ],
            [
                0x77a0_9178_7977_686c,
                0x77a0_9178_7977_686c,
                0x77a0_9178_7977_686c,
                0x77a0_9178_7977_686c,
                0x8102_d5af_011c_cb89,
            ],
            [
                0xdaf9_0292_3010_b06d,
                0xd6ac_a62d_ec7f_c4e8,
                0x3090_1165_e6b0_743e,
                0xc0f3_02fb_d030_51ad,
                0x8cd3_4a03_1fca_5f06,
            ],
            [
                0xeef1_a89c_66fe_51f4,
                0x659e_4ab5_d9ee_713d,
                0x72cd_d2dc_256c_9414,
                0x7f46_5059_a371_d514,
                0xd9e9_4b6e_bfd0_1b01,
            ],
            [
                0xf581_8eec_c320_8643,
                0x91e0_cbb0_b093_26a6,
                0x8c28_9086_b54d_468d,
                0xf0c9_a4e3_28fa_47ed,
                0xc179_6a58_929f_bb78,
            ],
            [
                0x430f_eaca_22e9_9857,
                0x6e28_6706_d1e9_b406,
                0x219e_9866_3afc_b6e7,
                0xa806_b5c7_0bb0_b79d,
                0x676d_f529_0073_809a,
            ],
            [
                0xfaee_2523_25b5_6716,
                0x1c05_860a_ad96_c706,
                0x4eb3_96b6_191e_0b6d,
                0x31ae_47b0_f18e_c304,
                0x57e1_a93a_13d3_f905,
            ],
            [
                0xdfdf_b683_e970_df04,
                0xac33_2e2b_1a13_f639,
                0x514d_025c_fcb0_d178,
                0x322a_2f96_51a2_5cc9,
                0xed3e_f74d_0f99_69c1,
            ],
        ],
        [
            [0, 0, 0, 130615, 9420],
            [101181, 70901, 68149, 122684, 8559],
            [91098, 70365, 68598, 123533, 8552],
            [84877, 60281, 46920, 89259, 8871],
            [241236, 62159, 54274, 90654, 7568],
        ],
        [0, 29365, 20094, 23610, 176558],
    );
}
