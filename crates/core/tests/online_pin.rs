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
    pin([0x52a3_14c0_c03a_0b58, 0xfd9a_b452_e641_be36], |s| {
        OnlineRun::execute(s, &VoyagerConfig::scaled())
    });
}

#[test]
fn scaled_profiled_two_passes() {
    let mut cfg = VoyagerConfig::scaled();
    cfg.train_passes = 2;
    pin([0x1d8d_0569_5fab_15d1, 0x64ff_9561_eab9_c8fd], |s| {
        OnlineRun::execute_profiled(s, &cfg)
    });
}

#[test]
fn single_label_pc() {
    let cfg = VoyagerConfig::test().with_labels(LabelMode::Single(LabelScheme::Pc));
    pin([0xb224_20cc_5c74_41d0, 0x5f47_5a58_8049_1345], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn without_attention() {
    let cfg = VoyagerConfig::test().without_attention();
    pin([0xd6cf_0507_17a6_d5db, 0xbd59_b007_64a8_828a], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn without_pc_feature() {
    let cfg = VoyagerConfig::test().with_features(FeatureSet {
        pc: false,
        address: true,
    });
    pin([0x952d_2d4a_79ec_10fe, 0xb86e_62fd_3e03_9620], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn hierarchical_head() {
    let cfg = VoyagerConfig::test().with_output_head(OutputHead::Hier);
    pin([0xa258_b59f_e155_d576, 0x6d88_9fda_3a17_69c9], |s| {
        OnlineRun::execute(s, &cfg)
    });
}

#[test]
fn delta_lstm() {
    pin([0xf68c_c345_e7b9_bba1, 0xd613_322b_844a_e81d], |s| {
        DeltaLstm::run_online(s, &DeltaLstmConfig::scaled())
    });
}
