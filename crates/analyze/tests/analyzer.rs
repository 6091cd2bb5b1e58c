//! End-to-end tests for `voyager-analyze`: each fixture under
//! `tests/fixtures/` trips exactly its lint, a broken fixture workspace
//! fails the gate, the ratchet only shrinks, and the real workspace
//! passes — making `cargo test` itself enforce the analyzer's
//! invariants.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use voyager_analyze::allowlist::{self, Allowlist};
use voyager_analyze::callgraph::CallGraph;
use voyager_analyze::hotpath::{self, HotPathConfig};
use voyager_analyze::parse::parse_fns;
use voyager_analyze::policy::{self, PolicyConfig};
use voyager_analyze::report::render_json;
use voyager_analyze::run::{analyze_workspace, hot_path_config, load_allowlist};
use voyager_analyze::{lockorder, unsafety, SourceFile};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Runs every pass over one fixture and returns the distinct lints hit.
fn lints_in(name: &str) -> Vec<&'static str> {
    let source = std::fs::read_to_string(fixtures().join(name)).unwrap();
    let file = SourceFile::parse(name, &source);
    let mut lints: Vec<&'static str> = policy::check(&file, &PolicyConfig::strict())
        .iter()
        .map(|f| f.lint)
        .collect();
    let (edges, recv) = lockorder::extract(&file);
    lints.extend(recv.iter().map(|f| f.lint));
    lints.extend(lockorder::find_cycles(&edges).iter().map(|f| f.lint));
    let (unsafe_findings, _) = unsafety::check(&file);
    lints.extend(unsafe_findings.iter().map(|f| f.lint));
    lints.sort_unstable();
    lints.dedup();
    lints
}

#[test]
fn each_fixture_trips_exactly_its_lint() {
    for (file, lint) in [
        ("third_party_dep.rs", "third-party-dep"),
        ("nondeterminism.rs", "nondeterminism"),
        ("no_unwrap.rs", "no-unwrap"),
        ("no_expect.rs", "no-expect"),
        ("no_panic.rs", "no-panic"),
        ("static_mut.rs", "static-mut"),
        ("unchecked_index.rs", "unchecked-index"),
        ("missing_docs.rs", "missing-docs"),
        ("lock_inversion.rs", "lock-cycle"),
        ("recv_under_lock.rs", "recv-under-lock"),
        ("unsafe_no_safety.rs", "unsafe-audit"),
        ("hash_iteration.rs", "hash-iteration"),
        ("hash_iteration_generic_alias.rs", "hash-iteration"),
    ] {
        assert_eq!(lints_in(file), vec![lint], "fixture {file}");
    }
}

#[test]
fn alloc_hot_path_fixture_reports_the_chain() {
    let source = std::fs::read_to_string(fixtures().join("alloc_hot_path.rs")).unwrap();
    let file = SourceFile::parse("alloc_hot_path.rs", &source);
    let graph = CallGraph::build(parse_fns(&file));
    let cfg = HotPathConfig {
        roots: vec!["hot_lookup".into()],
        ..HotPathConfig::default()
    };
    let (findings, reports) = hotpath::check(&graph, &cfg);
    // The `out.push` on the `&mut` parameter is legal; only the
    // transitive `vec!` is flagged, with its chain.
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].lint, "alloc-in-hot-path");
    assert!(
        findings[0].message.contains("hot_lookup → helper"),
        "{}",
        findings[0].message
    );
    assert_eq!(reports[0].matched, 1);
}

#[test]
fn broken_workspace_fails_the_gate() {
    let report =
        analyze_workspace(&fixtures().join("bad_workspace"), &Allowlist::default()).unwrap();
    assert!(!report.is_clean());
    let lints: Vec<&str> = report.findings.iter().map(|f| f.lint).collect();
    for expected in ["third-party-dep", "no-unwrap", "missing-docs"] {
        assert!(lints.contains(&expected), "{expected} not in {lints:?}");
    }
    // Nothing is allowlisted, so every finding is a violation.
    assert_eq!(report.ratchet.violations.len(), report.findings.len());
}

#[test]
fn hash_alias_declared_in_another_file_is_tracked() {
    // `bo.rs` iterates a field typed `crate::fasthash::LineMap<..>`; the
    // generic alias is declared in `fasthash.rs`.
    let report =
        analyze_workspace(&fixtures().join("alias_workspace"), &Allowlist::default()).unwrap();
    let found: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.lint, f.path.as_str()))
        .collect();
    assert_eq!(
        found,
        vec![("hash-iteration", "crates/prefetch/src/bo.rs")],
        "{:#?}",
        report.findings
    );
}

#[test]
fn allowlist_ratchet_only_shrinks_end_to_end() {
    let report =
        analyze_workspace(&fixtures().join("bad_workspace"), &Allowlist::default()).unwrap();
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for f in &report.findings {
        *counts.entry((f.lint, f.path.as_str())).or_insert(0) += 1;
    }
    // Budgeting every finding exactly makes the gate pass...
    let mut exact = String::new();
    for ((lint, path), n) in &counts {
        writeln!(exact, "{lint} {path} {n}").unwrap();
    }
    let a = Allowlist::parse(&exact).unwrap();
    assert!(allowlist::check(&report.findings, &a).is_clean());
    // ...but padding any budget is a stale entry: the allowlist can
    // never be looser than reality, so fixes force it to shrink.
    let mut padded = String::new();
    for (i, ((lint, path), n)) in counts.iter().enumerate() {
        writeln!(padded, "{lint} {path} {}", if i == 0 { n + 1 } else { *n }).unwrap();
    }
    let a = Allowlist::parse(&padded).unwrap();
    let r = allowlist::check(&report.findings, &a);
    assert!(!r.is_clean());
    assert_eq!(r.stale.len(), 1);
}

#[test]
fn real_workspace_passes_the_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allowlist = load_allowlist(&root).unwrap();
    let report = analyze_workspace(&root, &allowlist).unwrap();
    assert!(
        report.is_clean(),
        "violations: {:#?}\nstale: {:?}",
        report.ratchet.violations,
        report.ratchet.stale,
    );
    // Sanity: the scan actually covered the workspace.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    // The allowlist is a shrink-only ratchet; it must never grow past
    // the single grandfathered entry.
    assert!(
        allowlist.total() <= 1,
        "allowlist grew: {}",
        allowlist.total()
    );
}

#[test]
fn real_workspace_hot_roots_are_allocation_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root, &load_allowlist(&root).unwrap()).unwrap();
    let allocs: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "alloc-in-hot-path")
        .collect();
    assert!(allocs.is_empty(), "{allocs:#?}");
    for r in &report.hot_paths {
        // A rename in a serving crate must not silently detach a root
        // from the gate.
        assert!(r.matched > 0, "hot root `{}` matched no functions", r.root);
        assert_eq!(r.violations, 0, "root `{}`", r.root);
        assert!(r.reachable >= r.matched, "root `{}`", r.root);
    }
    // The graph really covers the serving/compute surface.
    assert!(report.graph_fns > 400, "{} fns", report.graph_fns);
    assert!(report.graph_edges > 1000, "{} edges", report.graph_edges);
}

#[test]
fn real_workspace_unsafe_inventory_is_pinned_and_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root, &load_allowlist(&root).unwrap()).unwrap();
    let undocumented: Vec<_> = report
        .unsafe_sites
        .iter()
        .filter(|s| !s.has_safety_comment)
        .collect();
    assert!(undocumented.is_empty(), "{undocumented:#?}");
    // The whole inventory is the `layers` bench harness's counting
    // allocator (5 sites) plus the tensor SIMD module: dispatch into
    // `#[target_feature]` GEMM tiles, the portable tile's FMA copy and
    // gate-loop copies in simd/mod.rs (7), raw vector and in-place
    // operand loads/stores in simd/x86.rs (10) and simd/neon.rs (5).
    // A new `unsafe` site must be audited (SAFETY comment) and this pin
    // updated deliberately.
    assert_eq!(
        report.unsafe_sites.len(),
        27,
        "unsafe inventory changed: {:#?}",
        report.unsafe_sites
    );
    assert!(report.unsafe_sites.iter().all(|s| {
        s.path.starts_with("crates/bench/src/bin/") || s.path.starts_with("crates/tensor/src/simd/")
    }));
}

#[test]
fn real_workspace_json_report_validates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allowlist = load_allowlist(&root).unwrap();
    let report = analyze_workspace(&root, &allowlist).unwrap();
    let json = render_json(&report, &allowlist, &hot_path_config());
    voyager_obs::json::validate(&json).expect("well-formed JSON");
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"schema_version\": 1"));
}

#[test]
fn sanctioned_surface_is_pinned() {
    // These lists are exemptions from the hot-path walk; growing them
    // weakens the gate and must be a reviewed, deliberate change.
    let cfg = hot_path_config();
    assert_eq!(
        cfg.sanctioned_fns,
        [
            "rank_row",
            "rank_row_sparse",
            "rank_from_arena",
            "predict_quiet",
            "answer_batch"
        ]
    );
    assert_eq!(
        cfg.boundary_fns,
        ["prepare_int8", "reshape_for_output", "adopt_published"]
    );
    assert_eq!(
        cfg.sanctioned_modules,
        [
            "crates/tensor/src/infer.rs",
            "crates/tensor/src/topk.rs",
            "crates/tensor/src/simd/pack.rs"
        ]
    );
}
