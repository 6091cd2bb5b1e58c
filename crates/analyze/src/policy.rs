//! Policy lints over the token stream of one source file.
//!
//! Each lint encodes a repo-wide invariant:
//!
//! * `third-party-dep` — the workspace is offline by policy: no
//!   third-party `use` / `extern crate` may appear anywhere.
//! * `nondeterminism` — the data-parallel trainer guarantees bitwise
//!   reproducibility, so wall-clock reads, env reads and thread-id
//!   dependence are forbidden outside an explicit set of timing
//!   modules.
//! * `no-unwrap` / `no-expect` / `no-panic` / `static-mut` /
//!   `unchecked-index` — library code must surface errors as values,
//!   not process aborts, and must not use unchecked slice access.
//! * `missing-docs` — every `pub` item in library code carries a doc
//!   comment.

use crate::lexer::TokenKind;
use crate::{Finding, SourceFile};

/// Which lints apply to a file and with what exemptions.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Path roots a `use` may start with (std/core/alloc, keywords and
    /// the workspace's own crates).
    pub allowed_use_roots: Vec<String>,
    /// Apply the nondeterminism lint (off for timing modules).
    pub lint_nondeterminism: bool,
    /// Apply the unwrap/expect/panic/static-mut/unchecked-index lints
    /// (library code only — binaries may abort).
    pub lint_panics: bool,
    /// Apply the missing-docs lint (library code only).
    pub lint_docs: bool,
}

impl PolicyConfig {
    /// Config for the Voyager workspace with every lint enabled.
    pub fn strict() -> Self {
        PolicyConfig {
            allowed_use_roots: ["std", "core", "alloc", "crate", "self", "super"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            lint_nondeterminism: true,
            lint_panics: true,
            lint_docs: true,
        }
    }

    /// Adds workspace-internal crate roots to the allowed `use` set.
    pub fn with_workspace_crates(mut self, crates: &[&str]) -> Self {
        self.allowed_use_roots
            .extend(crates.iter().map(|s| s.to_string()));
        self
    }
}

/// Runs every enabled policy lint over `file`.
pub fn check(file: &SourceFile, cfg: &PolicyConfig) -> Vec<Finding> {
    check_in_crate(file, cfg, &[])
}

/// [`check`] for a file of a crate whose other files declare the
/// hash-container aliases `crate_aliases` (see [`hash_aliases`]).
pub fn check_in_crate(
    file: &SourceFile,
    cfg: &PolicyConfig,
    crate_aliases: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_third_party(file, cfg, &mut findings);
    if cfg.lint_nondeterminism {
        check_nondeterminism(file, &mut findings);
        check_hash_iteration(file, crate_aliases, &mut findings);
    }
    if cfg.lint_panics {
        check_panics(file, &mut findings);
    }
    if cfg.lint_docs {
        check_docs(file, &mut findings);
    }
    findings
}

fn finding(file: &SourceFile, lint: &'static str, line: u32, message: String) -> Finding {
    Finding {
        lint,
        path: file.path.clone(),
        line,
        message,
    }
}

/// `use <root>::...` / `extern crate <name>` with a root outside the
/// allowed set. Applies to test code too: even tests must build
/// offline.
///
/// Under 2018+ uniform paths, `use foo::X` can also resolve to a
/// module or type `foo` declared in the same file, so locally declared
/// item names are allowed roots too.
fn check_third_party(file: &SourceFile, cfg: &PolicyConfig, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut local: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if matches!(
            toks[i].text.as_str(),
            "mod" | "struct" | "enum" | "trait" | "union"
        ) && toks[i].kind == TokenKind::Ident
        {
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                local.push(&name.text);
            }
        }
    }
    for i in 0..toks.len() {
        let root = if toks[i].is_ident("use") {
            // Statement position only: `use` after `;`, `{`, `}`, `pub`
            // or attributes — not e.g. a variable named `use` (keyword,
            // cannot happen) — then the first path segment.
            match toks.get(i + 1) {
                Some(t) if t.kind == TokenKind::Ident => Some((t.text.as_str(), t.line)),
                // `use ::path` is an explicit external-crate path.
                Some(t) if t.is_punct(':') => toks
                    .get(i + 3)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| (t.text.as_str(), t.line)),
                _ => None,
            }
        } else if toks[i].is_ident("extern") && toks.get(i + 1).is_some_and(|t| t.is_ident("crate"))
        {
            toks.get(i + 2)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| (t.text.as_str(), t.line))
        } else {
            None
        };
        let Some((root, line)) = root else { continue };
        // `use` inside `{}` groups (`use a::{b, c}`) or generic code can
        // only re-reference an already-imported root; the root decides.
        if !cfg.allowed_use_roots.iter().any(|a| a == root) && !local.contains(&root) {
            out.push(finding(
                file,
                "third-party-dep",
                line,
                format!("`{root}` is not std/core/alloc or a workspace crate; the workspace builds offline with zero third-party dependencies"),
            ));
        }
    }
}

/// Call patterns that make output depend on wall clock, environment or
/// thread identity.
const NONDET_PATTERNS: &[(&[&str], &str)] = &[
    (
        &["Instant", ":", ":", "now"],
        "wall-clock read (`Instant::now`)",
    ),
    (
        &["SystemTime", ":", ":", "now"],
        "wall-clock read (`SystemTime::now`)",
    ),
    (&["env", ":", ":", "var"], "environment read (`env::var`)"),
    (
        &["env", ":", ":", "var_os"],
        "environment read (`env::var_os`)",
    ),
    (
        &["thread", ":", ":", "current"],
        "thread-identity read (`thread::current`)",
    ),
];

fn check_nondeterminism(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        for (pattern, what) in NONDET_PATTERNS {
            let matches = pattern.iter().enumerate().all(|(k, want)| {
                toks.get(i + k).is_some_and(|t| {
                    if want.chars().all(|c| c.is_alphanumeric() || c == '_') {
                        t.is_ident(want)
                    } else {
                        t.is_punct(want.chars().next().unwrap_or(' '))
                    }
                })
            });
            if matches {
                out.push(finding(
                    file,
                    "nondeterminism",
                    toks[i].line,
                    format!(
                        "{what} outside an allowlisted timing module breaks the trainer's bitwise-reproducibility contract"
                    ),
                ));
            }
        }
    }
}

/// Methods whose call on a hash container observes iteration order.
/// Lookup-shaped access (`get`, `contains_key`, `entry`, `insert`) is
/// deliberately absent: membership maps are deterministic, only
/// *iteration* leaks the hasher's ordering.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Names of the `type` aliases declared in `file` — plain
/// (`type Name = ..;`) or generic (`type Name<K, V> = ..;`) — whose
/// definition mentions `HashMap`, `HashSet`, a name in `known`, or
/// another such alias of the file.
pub fn hash_aliases(file: &SourceFile, known: &[String]) -> Vec<String> {
    let toks = &file.tokens;
    let mut decls: Vec<(&str, std::ops::Range<usize>)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("type") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        // Skip the generic parameters, if any.
        let mut k = i + 2;
        if toks.get(k).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0usize;
            while let Some(t) = toks.get(k) {
                k += 1;
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        if toks.get(k).is_some_and(|t| t.is_punct('=')) {
            let end = (k..toks.len())
                .find(|&j| toks[j].is_punct(';'))
                .unwrap_or(toks.len());
            decls.push((&name.text, k + 1..end));
        }
    }
    let mut aliases: Vec<String> = Vec::new();
    loop {
        let before = aliases.len();
        for (name, rhs) in &decls {
            let hashy = toks[rhs.clone()].iter().any(|t| {
                t.is_ident("HashMap")
                    || t.is_ident("HashSet")
                    || known.iter().chain(&aliases).any(|a| t.is_ident(a))
            });
            if hashy && !aliases.iter().any(|a| a == name) {
                aliases.push(name.to_string());
            }
        }
        if aliases.len() == before {
            return aliases;
        }
    }
}

/// `HashMap`/`HashSet` iteration in non-test code: iteration order
/// depends on the process-random `RandomState` hasher, so anything
/// order-sensitive downstream (float accumulation, first-wins merges,
/// serialized output) silently loses bitwise reproducibility. A
/// binding, field or parameter whose declared type (or initializer)
/// mentions `HashMap`/`HashSet` or a hash alias — this file's own,
/// generic ones included, or one of `crate_aliases`, declared elsewhere
/// in the crate — is hash-typed; iterating such a name — via an
/// iteration-shaped method or a `for .. in` — is flagged. Membership
/// maps that are only ever probed stay legal.
fn check_hash_iteration(file: &SourceFile, crate_aliases: &[String], out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let is_hash_kw = |t: &crate::lexer::Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    let mut aliases = hash_aliases(file, crate_aliases);
    aliases.extend(crate_aliases.iter().cloned());
    let hash_ty = |t: &crate::lexer::Token| is_hash_kw(t) || aliases.iter().any(|a| t.is_ident(a));
    // Pass 2: hash-typed names from annotations (`name: HashMap<..>`,
    // covering fields and params) and initializers
    // (`let [mut] name = HashMap::new()`).
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
        {
            let mut k = i + 2;
            while k < toks.len() && k - i < 16 {
                let n = &toks[k];
                if n.is_punct(',')
                    || n.is_punct(';')
                    || n.is_punct(')')
                    || n.is_punct('{')
                    || n.is_punct('=')
                    || n.is_punct('>')
                {
                    break;
                }
                if hash_ty(n) {
                    names.push(t.text.clone());
                    break;
                }
                k += 1;
            }
        }
        if t.is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = toks.get(k).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            if !toks.get(k + 1).is_some_and(|n| n.is_punct('=')) {
                continue;
            }
            let mut j = k + 2;
            while j < toks.len() && j - k < 24 && !toks[j].is_punct(';') {
                if hash_ty(&toks[j]) {
                    names.push(name.text.clone());
                    break;
                }
                j += 1;
            }
        }
    }
    let is_hash_name = |t: &crate::lexer::Token| names.iter().any(|n| t.is_ident(n));
    // Pass 3: flag iteration over hash-typed names.
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if is_hash_name(t)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| HASH_ITER_METHODS.contains(&n.text.as_str()))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                file,
                "hash-iteration",
                t.line,
                format!(
                    "`.{}()` on hash container `{}`: iteration order is nondeterministic; use \
                     BTreeMap/BTreeSet or sort before consuming",
                    toks[i + 2].text,
                    t.text
                ),
            ));
        }
        // `for .. in [&[mut]] path.to.name {` — direct iteration.
        if t.is_ident("in") {
            let mut k = i + 1;
            while toks
                .get(k)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
            {
                k += 1;
            }
            let mut last: Option<usize> = None;
            while toks.get(k).is_some_and(|n| n.kind == TokenKind::Ident) {
                last = Some(k);
                if toks.get(k + 1).is_some_and(|n| n.is_punct('.'))
                    && toks.get(k + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                {
                    k += 2;
                } else {
                    k += 1;
                    break;
                }
            }
            if let Some(last) = last {
                if toks.get(k).is_some_and(|n| n.is_punct('{')) && is_hash_name(&toks[last]) {
                    out.push(finding(
                        file,
                        "hash-iteration",
                        toks[last].line,
                        format!(
                            "`for .. in` over hash container `{}`: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or sort before consuming",
                            toks[last].text
                        ),
                    ));
                }
            }
        }
    }
}

/// `.unwrap()`, `.expect(...)`, `panic!(...)`, `static mut`, and
/// `get_unchecked` in non-test library code.
fn check_panics(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if t.is_ident("unwrap") && prev_dot && next_paren {
            out.push(finding(
                file,
                "no-unwrap",
                t.line,
                "`.unwrap()` in library code; return an error or use a checked pattern".into(),
            ));
        } else if t.is_ident("expect") && prev_dot && next_paren {
            out.push(finding(
                file,
                "no-expect",
                t.line,
                "`.expect(...)` in library code; return an error or use a checked pattern".into(),
            ));
        } else if t.is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(finding(
                file,
                "no-panic",
                t.line,
                "`panic!` in library code; return an error instead".into(),
            ));
        } else if t.is_ident("static") && toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
            out.push(finding(
                file,
                "static-mut",
                t.line,
                "`static mut` is unsynchronized global state".into(),
            ));
        } else if (t.is_ident("get_unchecked") || t.is_ident("get_unchecked_mut")) && prev_dot {
            out.push(finding(
                file,
                "unchecked-index",
                t.line,
                "unchecked slice access in library code".into(),
            ));
        }
    }
}

/// Items that the missing-docs lint covers (matching rustc's
/// `missing_docs`: `use` re-exports and impls are exempt).
const DOC_ITEMS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
];

fn check_docs(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] || !toks[i].is_ident("pub") {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not externally public.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Find the item keyword, skipping qualifiers (`unsafe fn`,
        // `async fn`, `const fn`: `const` followed by `fn` is a
        // qualifier, not a const item).
        let mut k = i + 1;
        let mut item = None;
        while let Some(t) = toks.get(k) {
            if t.kind != TokenKind::Ident {
                break;
            }
            if DOC_ITEMS.contains(&t.text.as_str()) {
                let qualifier = (t.is_ident("const") || t.is_ident("static"))
                    && toks.get(k + 1).is_some_and(|n| n.is_ident("fn"));
                if !qualifier {
                    item = Some(t.text.clone());
                    break;
                }
            } else if !matches!(t.text.as_str(), "unsafe" | "async" | "extern") {
                break;
            }
            k += 1;
        }
        let Some(item) = item else { continue };
        // `pub mod foo;` is documented by `//!` inner docs in foo.rs;
        // only inline `pub mod foo { }` needs docs at the declaration.
        if item == "mod" && toks.get(k + 2).is_some_and(|t| t.is_punct(';')) {
            continue;
        }
        // Only module-level items: a `pub` inside a fn body (closures
        // can't be pub) or struct fields... struct fields matter but
        // are noisy; restrict to items preceded by `;`, `{`, `}`,
        // attributes, doc comments, or nothing.
        let mut j = i;
        let mut documented = false;
        let mut plausible_item = true;
        while j > 0 {
            let p = &toks[j - 1];
            if p.kind == TokenKind::DocComment {
                documented = true;
                break;
            }
            // `//!` docs document the enclosing module, not the item
            // that happens to follow them.
            if p.kind == TokenKind::InnerDocComment {
                break;
            }
            if p.is_punct(']') {
                // Attribute: scan back to its opening `#[`.
                let mut depth = 0usize;
                let mut kk = j - 1;
                loop {
                    if toks[kk].is_punct(']') {
                        depth += 1;
                    } else if toks[kk].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if kk == 0 {
                        break;
                    }
                    kk -= 1;
                }
                if kk > 0 && toks[kk - 1].is_punct('#') {
                    j = kk - 1;
                    continue;
                }
                plausible_item = false;
                break;
            }
            if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') || p.is_punct(',') {
                break;
            }
            plausible_item = false;
            break;
        }
        if plausible_item && !documented {
            out.push(finding(
                file,
                "missing-docs",
                toks[i].line,
                format!("public `{item}` without a doc comment"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("fixture.rs", src);
        check(
            &file,
            &PolicyConfig::strict().with_workspace_crates(&["voyager_tensor"]),
        )
    }

    fn lints(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn third_party_use_is_flagged_workspace_is_not() {
        assert_eq!(lints("use serde::Serialize;"), vec!["third-party-dep"]);
        assert!(lints("use std::fs;\nuse voyager_tensor::Tensor2;\nuse crate::x;").is_empty());
    }

    #[test]
    fn extern_crate_is_flagged() {
        assert_eq!(lints("extern crate rand;"), vec!["third-party-dep"]);
    }

    #[test]
    fn nondeterminism_patterns_match() {
        assert_eq!(
            lints("fn f() { let t = Instant::now(); }"),
            vec!["nondeterminism"]
        );
        assert_eq!(
            lints("fn f() { let t = std::time::SystemTime::now(); }"),
            vec!["nondeterminism"]
        );
        assert_eq!(
            lints("fn f() { let v = std::env::var(\"X\"); }"),
            vec!["nondeterminism"]
        );
    }

    #[test]
    fn nondeterminism_in_tests_is_fine() {
        assert!(lints("#[cfg(test)]\nmod tests { fn f() { Instant::now(); } }").is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_membership_is_not() {
        let iterate = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }";
        assert_eq!(lints(iterate), vec!["hash-iteration"]);
        let probe = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> bool { m.contains_key(&1) && m.get(&2).is_some() }";
        assert!(lints(probe).is_empty());
        let btree = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 { m.values().sum() }";
        assert!(lints(btree).is_empty());
    }

    #[test]
    fn for_in_over_hash_field_and_local_is_flagged() {
        let field = "struct S { table: HashMap<u64, u32> }\nimpl S { fn f(&self) { for v in &self.table { drop(v); } } }";
        assert_eq!(lints(field), vec!["hash-iteration"]);
        let local = "fn f() { let mut s = HashSet::new(); s.insert(1); for v in &s { drop(v); } }";
        assert_eq!(lints(local), vec!["hash-iteration"]);
    }

    #[test]
    fn hash_type_aliases_are_tracked() {
        let src = "type Bbv = HashMap<u64, f64>;\nfn f(b: &Bbv) -> f64 { b.values().sum() }";
        assert_eq!(lints(src), vec!["hash-iteration"]);
    }

    #[test]
    fn generic_and_chained_hash_aliases_are_tracked() {
        let generic = "type LineMap<K, V> = HashMap<K, V, Fast>;\nstruct S { m: LineMap<u64, u64> }\nimpl S { fn f(&self) -> u64 { self.m.values().sum() } }";
        assert_eq!(lints(generic), vec!["hash-iteration"]);
        let chained = "type Pairs<V> = Lines<(u64, u64), V>;\ntype Lines<K, V> = HashMap<K, V>;\nfn f(p: &Pairs<u8>) { for v in p { drop(v); } }";
        assert_eq!(lints(chained), vec!["hash-iteration"]);
        let other = "type Ring<T> = VecDeque<T>;\nfn f(r: &Ring<u8>) -> usize { r.iter().count() }";
        assert!(lints(other).is_empty());
    }

    #[test]
    fn hash_aliases_of_other_files_are_tracked() {
        let src = "struct S { m: crate::fasthash::FastMap<u64, u64> }\nimpl S { fn f(&self) -> usize { self.m.keys().count() } }";
        assert!(lints(src).is_empty(), "unknown alias");
        let mut cfg = PolicyConfig::strict();
        cfg.lint_docs = false;
        let file = SourceFile::parse("x.rs", src);
        let found: Vec<&str> = check_in_crate(&file, &cfg, &["FastMap".into()])
            .iter()
            .map(|f| f.lint)
            .collect();
        assert_eq!(found, vec!["hash-iteration"]);
    }

    #[test]
    fn hash_iteration_in_tests_is_fine() {
        let src = "#[cfg(test)]\nmod t { fn f(m: &HashMap<u32, u32>) -> u32 { m.values().sum() } }";
        assert!(lints(src).is_empty());
    }

    #[test]
    fn unwrap_family_flagged_outside_tests_only() {
        assert_eq!(
            lints("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }"),
            vec!["no-unwrap", "no-expect", "no-panic"]
        );
        assert!(lints("#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }").is_empty());
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        assert!(lints("// x.unwrap()\nfn f() { let s = \"x.unwrap()\"; }").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        assert!(lints("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }").is_empty());
    }

    #[test]
    fn static_mut_and_unchecked_index_flagged() {
        assert_eq!(lints("static mut X: u32 = 0;"), vec!["static-mut"]);
        assert_eq!(
            lints("fn f() { let y = xs.get_unchecked(0); }"),
            vec!["unchecked-index"]
        );
    }

    #[test]
    fn missing_docs_on_pub_items() {
        assert_eq!(lints("pub fn undocumented() {}"), vec!["missing-docs"]);
        assert!(lints("/// Documented.\npub fn documented() {}").is_empty());
        assert!(lints("pub(crate) fn internal() {}").is_empty());
        assert!(lints("pub use crate::other::Thing;").is_empty());
    }

    #[test]
    fn missing_docs_sees_through_attributes() {
        assert!(lints("/// Doc.\n#[derive(Debug)]\npub struct S;").is_empty());
        assert_eq!(
            lints("#[derive(Debug)]\npub struct S;"),
            vec!["missing-docs"]
        );
    }

    #[test]
    fn pub_const_fn_is_a_fn_not_a_const() {
        let f = run("pub const fn f() -> u32 { 0 }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`fn`"));
    }
}
