//! Bitwise pins of the online protocols' outputs.
//!
//! Each test runs one protocol and configuration over the two streams
//! the benchmark's `paper-online` workload uses — the mcf LLC stream
//! filtered from 1,000 raw loads and a 750-access search trace, both
//! from generator seed 1 — and compares a digest of every prediction
//! list and every epoch loss's bits with a recorded constant. A change
//! to the sample pipeline, the epoch rule or the inference path that
//! alters a single prediction or loss bit fails here.

use voyager::{
    DeltaLstm, DeltaLstmConfig, FeatureSet, LabelMode, OnlineRun, OutputHead, VoyagerConfig,
};
use voyager_sim::{llc_stream, SimConfig};
use voyager_trace::gen::{Benchmark, GeneratorConfig};
use voyager_trace::labels::LabelScheme;
use voyager_trace::Trace;

fn streams() -> [Trace; 2] {
    let gen = GeneratorConfig::small().with_seed(1);
    let mcf = llc_stream(
        &Benchmark::Mcf.generate(&gen.with_accesses(1_000)),
        &SimConfig::scaled(),
    );
    let search = Benchmark::Search.generate(&gen.with_accesses(750));
    [mcf, search]
}

/// FNV-1a over the prediction lists (length-prefixed) and the epoch
/// losses' bit patterns.
fn digest(run: &OnlineRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for lines in &run.predictions {
        eat(lines.len() as u64);
        for &line in lines {
            eat(line);
        }
    }
    for loss in &run.epoch_losses {
        eat(u64::from(loss.to_bits()));
    }
    h
}

fn pin(expected: [u64; 2], run: impl Fn(&Trace) -> OnlineRun) {
    let got = streams().map(|s| digest(&run(&s)));
    assert_eq!(
        got, expected,
        "digests moved: got [{:#018x}, {:#018x}]",
        got[0], got[1]
    );
}

#[test]
fn scaled_online() {
    pin([0xb510_3f66_ffbd_fd5b, 0x67b4_34b8_4f16_4436], |s| {
        OnlineRun::execute(s, &VoyagerConfig::scaled())
    });
}

#[test]
fn scaled_profiled_two_passes() {
    let mut cfg = VoyagerConfig::scaled();
    cfg.train_passes = 2;
    pin([0x9165_4c92_4538_2936, 0x8a06_e680_6d0b_ebe9], |s| {
        OnlineRun::execute_profiled(s, &cfg)
    });
}

#[test]
fn single_label_pc() {
    let cfg = VoyagerConfig::test().with_labels(LabelMode::Single(LabelScheme::Pc));
    pin([0x855e_0709_6473_d407, 0x4900_436a_441b_485e], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn without_attention() {
    let cfg = VoyagerConfig::test().without_attention();
    pin([0x754f_b99c_993d_c3fa, 0x5a5f_90de_3758_ffe9], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn without_pc_feature() {
    let cfg = VoyagerConfig::test().with_features(FeatureSet {
        pc: false,
        address: true,
    });
    pin([0x40c5_d598_9be3_c818, 0x2d1b_d876_b858_6ef7], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn hierarchical_head() {
    let cfg = VoyagerConfig::test().with_output_head(OutputHead::Hier);
    pin([0x6fa2_eb1e_76a3_3003, 0xbffc_025f_c7f2_2a5a], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn delta_lstm() {
    pin([0xa123_fb8d_8a2f_1046, 0xa1f7_5622_cdfa_00a5], |s| {
        DeltaLstm::run_online(s, &DeltaLstmConfig::scaled())
    });
}
