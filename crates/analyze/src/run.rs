//! Workspace orchestration: which lints run on which files, and the
//! full gate pipeline used by both `main` and the self-test.

use crate::allowlist::{self, Allowlist, RatchetReport};
use crate::callgraph::CallGraph;
use crate::hotpath::{self, HotPathConfig, RootReport};
use crate::lockorder::{self, LockEdge};
use crate::parse;
use crate::policy::{self, PolicyConfig};
use crate::unsafety::{self, UnsafeSite};
use crate::{collect_rust_files, relative_path, Finding, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Workspace crates whose `src/` is *library* code, held to the strict
/// panic/docs lints (the analyzer dogfoods its own rules). `bench`
/// (CLI tools) is exempt from the panic lints but still policed for
/// offline-ness and lock order.
const LIB_CRATES: &[&str] = &[
    "tensor", "nn", "trace", "sim", "prefetch", "core", "distill", "runtime", "analyze", "obs",
];

/// Modules whose entire purpose is wall-clock measurement or seeding:
/// the only places `Instant::now` / `SystemTime::now` may appear.
/// Everything else in a library crate must be deterministic — that is
/// the trainer's bitwise-reproducibility contract.
const TIMING_MODULES: &[&str] = &[
    "crates/core/src/delta_lstm.rs",    // per-phase profiling counters
    "crates/core/src/online.rs",        // online-loop latency accounting
    "crates/runtime/src/fleet.rs",      // shed-decision EWMA + latency
    "crates/runtime/src/microbatch.rs", // serving latency percentiles
    "crates/runtime/src/trainer.rs",    // wall-clock throughput report
    "crates/obs/src/clock.rs",          // MonotonicClock: the Clock
    // impl behind span timing
    "crates/tensor/src/rng.rs", // thread_rng seeding (the one
                                // sanctioned nondeterminism entry)
];

/// Import roots every workspace file may use.
const WORKSPACE_ROOTS: &[&str] = &[
    "voyager",
    "voyager_tensor",
    "voyager_nn",
    "voyager_distill",
    "voyager_trace",
    "voyager_sim",
    "voyager_prefetch",
    "voyager_runtime",
    "voyager_bench",
    "voyager_analyze",
    "voyager_obs",
    "voyager_repro",
];

/// Crates whose `src/` feeds the hot-path call graph: the serving and
/// compute surface. Tooling crates (`analyze` itself, `obs`, `bench`)
/// are excluded — their helpers share common method names (`parse`,
/// `value`, `get`) and name-based resolution would wire them into the
/// serving graph as false edges.
const HOT_GRAPH_CRATES: &[&str] = &[
    "tensor", "nn", "core", "prefetch", "distill", "runtime", "sim", "trace",
];

/// Function names whose latency budget forbids heap allocation: the
/// arena-backed inference entry points (PR 5), the distilled-table
/// lookup (PR 6), every `Prefetcher::access` impl (PR 3's
/// caller-scratch contract), the microbatch compute loop, the
/// hierarchical-head shortlist scorers (PR 10), and the GEMM kernels
/// under everything.
const HOT_ROOTS: &[&str] = &[
    "predict_fast",
    "predict_int8",
    "predict_quiet",
    "access",
    "forward_batch",
    "route",
    "gemm",
    "gemm_acc",
    "gemm_i8_dequant",
    "hier_candidates",
    "hier_candidates_int8",
];

/// Modules whose entire purpose is amortized allocation: the inference
/// arena, the bounded-heap top-k scratch, and the SIMD GEMM packing
/// scratch (thread-local panels that grow to a high-water mark). They
/// are the sanctioned mechanism the hot paths lean on, so the walk
/// neither flags nor enters them.
const SANCTIONED_MODULES: &[&str] = &[
    "crates/tensor/src/infer.rs",
    "crates/tensor/src/topk.rs",
    "crates/tensor/src/simd/pack.rs",
];

/// Result materializers at the API boundary: they build the returned
/// `Vec` (the measured 72 B/call of `predict_fast`) but everything
/// they call must still be allocation-free. This list is pinned by the
/// workspace gate test so it can only grow deliberately.
const SANCTIONED_FNS: &[&str] = &[
    "rank_row",
    "rank_row_sparse",
    "rank_from_arena",
    "predict_quiet",
    "answer_batch",
];

/// Calls the hot-path walk does not enter: `prepare_int8` is one-time
/// lazy quantization setup, `reshape_for_output` reallocates only when
/// the output shape changes — steady-state serving reuses the buffer —
/// and `adopt_published` is the fleet hot-swap rebuild, which runs
/// between batches only when a new model version was published.
const BOUNDARY_FNS: &[&str] = &["prepare_int8", "reshape_for_output", "adopt_published"];

/// The workspace hot-path configuration (also serialized into the
/// `--json` report so CI consumers see the exemption surface).
pub fn hot_path_config() -> HotPathConfig {
    let own = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    HotPathConfig {
        roots: own(HOT_ROOTS),
        sanctioned_modules: own(SANCTIONED_MODULES),
        sanctioned_fns: own(SANCTIONED_FNS),
        boundary_fns: own(BOUNDARY_FNS),
    }
}

/// Everything the analysis produced, before and after the ratchet.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Every raw finding (policy + lock + reachability passes),
    /// allowlisted or not.
    pub findings: Vec<Finding>,
    /// All nested-acquisition edges seen (for `--graph`).
    pub edges: Vec<LockEdge>,
    /// Ratchet outcome of `findings` against the allowlist.
    pub ratchet: RatchetReport,
    /// Files scanned.
    pub files_scanned: usize,
    /// Every non-test `unsafe` site in the workspace (documented or
    /// not) — the audit inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Per-root hot-path reachability summaries.
    pub hot_paths: Vec<RootReport>,
    /// Functions in the intra-workspace call graph.
    pub graph_fns: usize,
    /// Resolved call edges in the intra-workspace call graph.
    pub graph_edges: usize,
}

impl AnalysisReport {
    /// True when the gate passes: no unallowlisted finding, no stale
    /// allowlist entry.
    pub fn is_clean(&self) -> bool {
        self.ratchet.is_clean()
    }
}

/// The crate a repo-relative path belongs to: `<name>` for
/// `crates/<name>/..`, the empty string for the root package.
fn crate_name(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Every hash-container alias of each crate, keyed by [`crate_name`]:
/// an alias may be declared in one file and used in another, or be
/// defined through an alias of another file.
fn crate_hash_aliases(files: &[(String, SourceFile)]) -> BTreeMap<&str, Vec<String>> {
    let mut aliases: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    loop {
        let mut grew = false;
        for (rel, file) in files {
            let known = aliases.entry(crate_name(rel)).or_default();
            for alias in policy::hash_aliases(file, known) {
                if !known.contains(&alias) {
                    known.push(alias);
                    grew = true;
                }
            }
        }
        if !grew {
            return aliases;
        }
    }
}

/// How a file is policed, derived from its repo-relative path.
fn config_for(rel: &str) -> PolicyConfig {
    let crate_name = crate_name(rel);
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    let is_bin = rel.contains("/bin/") || rel.ends_with("/main.rs");
    let is_lib = in_src && !is_bin && (LIB_CRATES.contains(&crate_name) || rel.starts_with("src/"));
    let timing_exempt = TIMING_MODULES.contains(&rel);
    let mut cfg = PolicyConfig::strict().with_workspace_crates(WORKSPACE_ROOTS);
    cfg.lint_nondeterminism =
        in_src && !is_bin && LIB_CRATES.contains(&crate_name) && !timing_exempt;
    cfg.lint_panics = is_lib;
    cfg.lint_docs = is_lib;
    cfg
}

/// Runs the full analysis over the workspace at `root` and checks the
/// result against `allowlist`.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn analyze_workspace(root: &Path, allowlist: &Allowlist) -> std::io::Result<AnalysisReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            for sub in ["src", "tests"] {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    files.extend(collect_rust_files(&dir)?);
                }
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            files.extend(collect_rust_files(&dir)?);
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let rel = relative_path(root, path);
        // Lint-violation fixtures are inputs to the analyzer's own
        // tests, not workspace code.
        if rel.contains("/fixtures/") {
            continue;
        }
        let source = std::fs::read_to_string(path)?;
        let file = SourceFile::parse(rel.clone(), &source);
        sources.push((rel, file));
    }
    let aliases = crate_hash_aliases(&sources);

    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let files_scanned = sources.len();
    let mut unsafe_sites = Vec::new();
    let mut graph_fns_src = Vec::new();
    for (rel, file) in &sources {
        let crate_aliases = aliases.get(crate_name(rel)).map_or(&[][..], Vec::as_slice);
        findings.extend(policy::check_in_crate(
            file,
            &config_for(rel),
            crate_aliases,
        ));
        let (file_edges, recv_findings) = lockorder::extract(file);
        edges.extend(file_edges);
        findings.extend(recv_findings);
        let (unsafe_findings, sites) = unsafety::check(file);
        findings.extend(unsafe_findings);
        unsafe_sites.extend(sites);
        // The call graph covers the serving/compute crates' `src/`.
        // Integration tests define helpers with arbitrary names and
        // would pollute root-name matching; tooling crates would wire
        // in false edges through common method names.
        let in_hot_graph = HOT_GRAPH_CRATES.iter().any(|c| {
            rel.strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(c))
                .is_some_and(|r| r.starts_with("/src/"))
        });
        if in_hot_graph {
            graph_fns_src.extend(parse::parse_fns(file));
        }
    }
    findings.extend(lockorder::find_cycles(&edges));
    let graph = CallGraph::build(graph_fns_src);
    let hot_cfg = hot_path_config();
    let (hot_findings, hot_paths) = hotpath::check(&graph, &hot_cfg);
    findings.extend(hot_findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    let ratchet = allowlist::check(&findings, allowlist);
    Ok(AnalysisReport {
        findings,
        edges,
        ratchet,
        files_scanned,
        unsafe_sites,
        hot_paths,
        graph_fns: graph.fns.len(),
        graph_edges: graph.edge_count(),
    })
}

/// Loads `analyze-allowlist.txt` from `root` (empty if absent).
///
/// # Errors
///
/// Returns a message for unreadable or malformed allowlists.
pub fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join("analyze-allowlist.txt");
    if !path.is_file() {
        return Ok(Allowlist::default());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Allowlist::parse(&text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_crate_src_gets_full_strictness() {
        for rel in ["crates/tensor/src/tensor.rs", "crates/distill/src/table.rs"] {
            let cfg = config_for(rel);
            assert!(
                cfg.lint_nondeterminism && cfg.lint_panics && cfg.lint_docs,
                "{rel}"
            );
        }
    }

    #[test]
    fn timing_modules_skip_only_the_nondeterminism_lint() {
        let cfg = config_for("crates/runtime/src/trainer.rs");
        assert!(!cfg.lint_nondeterminism);
        assert!(cfg.lint_panics && cfg.lint_docs);
    }

    #[test]
    fn bins_and_tools_skip_panic_lints() {
        for rel in [
            "crates/bench/src/bin/voyagerctl.rs",
            "crates/bench/src/lib.rs",
            "crates/analyze/src/main.rs",
        ] {
            let cfg = config_for(rel);
            assert!(!cfg.lint_panics, "{rel}");
            assert!(!cfg.lint_nondeterminism, "{rel}");
        }
        // ... but the analyzer's own library code dogfoods the rules.
        assert!(config_for("crates/analyze/src/policy.rs").lint_panics);
    }

    #[test]
    fn integration_tests_only_get_the_offline_lint() {
        let cfg = config_for("tests/end_to_end.rs");
        assert!(!cfg.lint_panics && !cfg.lint_docs && !cfg.lint_nondeterminism);
    }
}
