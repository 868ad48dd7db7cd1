//! Telemetry-coverage pass: cross-check every namespaced metric against
//! (a) the code that writes it and (b) the documentation.
//!
//! The kernel's observability story (DESIGN.md §5, EXPERIMENTS.md) leans
//! on `kernel.*` / `net.*` / `delivery.*` / `lockdep.*` counters; a
//! counter that is registered but never incremented silently reports 0
//! forever, and one that is incremented but undocumented is invisible to
//! anyone reading the experiment tables. Both are findings:
//!
//! * [`RULE_DEAD_COUNTER`](crate::lint::RULE_DEAD_COUNTER) — every
//!   registration site for the name is handle-bound to an identifier
//!   that no write method (`inc`/`add`/`set`/`record*`/`observe`) ever
//!   touches, or is read-only chained.
//! * [`RULE_UNDOCUMENTED_COUNTER`](crate::lint::RULE_UNDOCUMENTED_COUNTER)
//!   — a live metric name (or, for `format!`-built names, its prefix up
//!   to the first `{`) appears nowhere in DESIGN.md or EXPERIMENTS.md.
//!
//! Site classification is deliberately conservative about *liveness*: a
//! registration whose handle escapes into another call
//! (`ShardedTable::new(registry.counter(…))`) or a bare namespaced
//! string literal (the lockdep mirror's `(name, value)` tuples) is
//! *assumed written* — the pass only calls a counter dead when every
//! site is provably unwritten. The assume-used caveat is documented in
//! DESIGN.md §3h.

use crate::callgraph::skip_balanced;
use crate::lexer::TokenKind;
use crate::lint::{
    FileLint, Violation, METRIC_WRITE_METHODS, RULE_DEAD_COUNTER, RULE_UNDOCUMENTED_COUNTER,
};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Metric namespaces the pass audits.
pub const METRIC_NAMESPACES: &[&str] = &["kernel.", "net.", "delivery.", "lockdep."];

/// Registry constructors whose first string argument names a metric.
const REGISTRY_CALLS: &[&str] = &["counter", "gauge", "histogram"];

/// How one registration site uses the returned handle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Site {
    /// `registry.counter("x").inc()` — written on the spot.
    ImmediateWrite,
    /// `let c = …` / `field: …` — bound to this identifier; written iff
    /// some `ident.write_method(` exists anywhere in the workspace.
    HandleBound(String),
    /// Chained into a non-write method, or registered and dropped.
    Unwritten,
    /// Handle escapes (argument position, closure, return) — assume
    /// written; soundness caveat documented in DESIGN.md §3h.
    Escaped,
}

struct Decl {
    name: String,
    file: PathBuf,
    line: u32,
    site: Site,
}

/// Run the coverage pass over the lexed workspace. `root` locates
/// DESIGN.md / EXPERIMENTS.md for the documentation check.
pub fn telemetry_coverage(files: &[FileLint], root: &Path) -> Vec<Violation> {
    let mut decls: Vec<Decl> = Vec::new();
    let mut written_idents: HashSet<String> = HashSet::new();
    let mut escaped_idents: HashSet<String> = HashSet::new();

    for fl in files {
        if fl.file_is_test {
            continue;
        }
        collect_file(fl, &mut decls, &mut written_idents, &mut escaped_idents);
    }

    // Group sites by metric name (dynamic names keyed by full template).
    let mut by_name: HashMap<&str, Vec<&Decl>> = HashMap::new();
    for d in &decls {
        by_name.entry(&d.name).or_default().push(d);
    }

    let docs = read_docs(root);
    let mut out = Vec::new();
    let mut names: Vec<&&str> = by_name.keys().collect();
    names.sort();
    for name in names {
        let sites = &by_name[*name];
        let alive = sites.iter().any(|d| match &d.site {
            Site::ImmediateWrite | Site::Escaped => true,
            // A bound handle is live if some write reaches its ident, or
            // the ident itself is handed onward (argument / field move)
            // — past that point the pass assumes it is written.
            Site::HandleBound(id) => written_idents.contains(id) || escaped_idents.contains(id),
            Site::Unwritten => false,
        });
        let first = sites
            .iter()
            .min_by_key(|d| (&d.file, d.line))
            .expect("non-empty group");
        if !alive {
            out.push(Violation {
                file: first.file.clone(),
                line: first.line as usize,
                rule: RULE_DEAD_COUNTER,
                text: format!("\"{name}\""),
                detail: format!(
                    "metric `{name}` is registered but no write \
                     (inc/add/set/record/observe) reaches it"
                ),
            });
            continue;
        }
        let key = doc_key(name);
        if !docs.contains(key) {
            out.push(Violation {
                file: first.file.clone(),
                line: first.line as usize,
                rule: RULE_UNDOCUMENTED_COUNTER,
                text: format!("\"{name}\""),
                detail: format!(
                    "metric `{name}` is written but `{key}` appears in neither \
                     DESIGN.md nor EXPERIMENTS.md"
                ),
            });
        }
    }
    out
}

/// The substring a metric name must have in the docs: the full name, or
/// for `format!` templates the prefix up to the first `{`.
fn doc_key(name: &str) -> &str {
    match name.find('{') {
        Some(b) => &name[..b],
        None => name,
    }
}

fn read_docs(root: &Path) -> String {
    let mut docs = String::new();
    for f in ["DESIGN.md", "EXPERIMENTS.md"] {
        if let Ok(s) = fs::read_to_string(root.join(f)) {
            docs.push_str(&s);
            docs.push('\n');
        }
    }
    docs
}

fn is_metric_name(s: &str) -> bool {
    METRIC_NAMESPACES.iter().any(|ns| s.starts_with(ns))
}

/// Scan one file for registration sites, bare namespaced literals,
/// handle writes, and handles that escape by name (a bound ident used
/// as a whole call argument or moved into a struct field).
fn collect_file(
    fl: &FileLint,
    decls: &mut Vec<Decl>,
    written: &mut HashSet<String>,
    escaped: &mut HashSet<String>,
) {
    let toks = &fl.lexed.tokens;
    // String tokens consumed as registry-call arguments; leftovers with
    // a metric namespace are bare declarations (lockdep mirror tuples).
    let mut consumed: HashSet<usize> = HashSet::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let in_test = fl.test_flags.get(i).copied().unwrap_or(false);
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let next_is_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));

        // Handle writes: `IDENT.inc(` / `self.sent[i].inc(` — record the
        // receiver identifier (reverse-skipping an index expression).
        if is_method && next_is_paren && METRIC_WRITE_METHODS.contains(&t.text.as_str()) {
            if let Some(recv) = receiver_ident(toks, i - 1) {
                written.insert(recv);
            }
        }

        // Escapes by name: the ident is a whole call argument
        // (`Sampler::new(gauge)`) or a field-init value (`contention,` in
        // `ShardedTable::new`) — the handle moves somewhere this pass
        // cannot follow.
        {
            let prev_escape = i > 0
                && (toks[i - 1].is_punct('(')
                    || toks[i - 1].is_punct(',')
                    || toks[i - 1].is_punct(':'));
            let next_escape = toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct(')') || n.is_punct(',') || n.is_punct('}'));
            if prev_escape && next_escape {
                escaped.insert(t.text.clone());
            }
        }

        // Registration sites: `.counter("name")` etc.
        if !in_test && is_method && next_is_paren && REGISTRY_CALLS.contains(&t.text.as_str()) {
            let end = skip_balanced(toks, i + 1, toks.len());
            let name_tok = (i + 2..end).find(|&j| toks[j].kind == TokenKind::Str);
            if let Some(j) = name_tok {
                if is_metric_name(&toks[j].text) {
                    consumed.insert(j);
                    decls.push(Decl {
                        name: toks[j].text.clone(),
                        file: fl.path.clone(),
                        line: toks[j].line,
                        site: classify_site(toks, i, end),
                    });
                }
                // Non-namespaced names are outside this pass's scope,
                // but still consumed so they don't look bare.
                consumed.insert(j);
            }
            i = end;
            continue;
        }
        i += 1;
    }

    // Bare namespaced literals: declared and assumed written (they feed
    // dynamic registration, e.g. the lockdep mirror's name/value tuples).
    for (j, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Str
            && !consumed.contains(&j)
            && is_metric_name(&t.text)
            && !fl.test_flags.get(j).copied().unwrap_or(false)
        {
            decls.push(Decl {
                name: t.text.clone(),
                file: fl.path.clone(),
                line: t.line,
                site: Site::Escaped,
            });
        }
    }
}

/// The identifier a write-method receiver chain hangs off: for
/// `self.sent[i].inc()` the `.` at `dot` is preceded by `]` — skip the
/// index back to `[` and take the identifier before it.
fn receiver_ident(toks: &[crate::lexer::Token], dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    if toks[k].is_punct(']') {
        let mut depth = 0i32;
        loop {
            if toks[k].is_punct(']') {
                depth += 1;
            } else if toks[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    (toks[k].kind == TokenKind::Ident).then(|| toks[k].text.clone())
}

/// Classify how the registration at `call_idx` (the `counter` ident)
/// uses its handle; `end` is the index just past the argument list.
fn classify_site(toks: &[crate::lexer::Token], call_idx: usize, end: usize) -> Site {
    // Forward look: chained method?
    if toks.get(end).is_some_and(|t| t.is_punct('.')) {
        if let Some(m) = toks.get(end + 1) {
            if m.kind == TokenKind::Ident
                && METRIC_WRITE_METHODS.contains(&m.text.as_str())
                && toks.get(end + 2).is_some_and(|p| p.is_punct('('))
            {
                return Site::ImmediateWrite;
            }
        }
        return Site::Unwritten; // read-only chain (`.value()`, `.snapshot()`)
    }
    // Backward look: who receives the handle? Walk to the statement /
    // field boundary; crossing an unbalanced `(` means the handle is an
    // argument to an enclosing call — it escapes.
    let mut b = call_idx;
    let mut paren = 0i32;
    while b > 0 {
        let t = &toks[b - 1];
        if t.is_punct(')') {
            paren += 1;
        } else if t.is_punct('(') {
            paren -= 1;
            if paren < 0 {
                return Site::Escaped;
            }
        } else if paren == 0
            && (t.is_punct(';') || t.is_punct(',') || t.is_punct('{') || t.is_punct('}'))
        {
            break;
        }
        b -= 1;
    }
    // `let [mut] NAME = …` or `name: …` (struct field init / struct def
    // default) binds the handle to an identifier.
    if toks.get(b).is_some_and(|t| t.is_ident("let")) {
        let mut n = b + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        if let Some(name) = toks.get(n).filter(|t| t.kind == TokenKind::Ident) {
            return Site::HandleBound(name.text.clone());
        }
        return Site::Escaped;
    }
    if let Some(name) = toks.get(b).filter(|t| t.kind == TokenKind::Ident) {
        // `name:` but not `name::`.
        if toks.get(b + 1).is_some_and(|c| c.is_punct(':'))
            && !toks.get(b + 2).is_some_and(|c| c.is_punct(':'))
        {
            return Site::HandleBound(name.text.clone());
        }
    }
    // `registry.counter("x");` registers and drops: provably unwritten
    // at this site.
    if toks.get(end).is_some_and(|t| t.is_punct(';')) {
        return Site::Unwritten;
    }
    Site::Escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, docs_root: &Path) -> Vec<Violation> {
        let fl = FileLint::new(PathBuf::from("crates/x/src/lib.rs"), src);
        telemetry_coverage(std::slice::from_ref(&fl), docs_root)
    }

    // Point the docs at a directory with no DESIGN.md so `documented`
    // is empty unless a test writes its own.
    fn no_docs() -> PathBuf {
        PathBuf::from("/nonexistent-docs-root")
    }

    #[test]
    fn immediate_write_is_live_but_undocumented_without_docs() {
        let out = run(
            "fn f(t: &Registry) { t.counter(\"kernel.raised\").inc(); }",
            &no_docs(),
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNDOCUMENTED_COUNTER);
    }

    #[test]
    fn handle_bound_never_written_is_dead() {
        let src = "fn f(t: &Registry) -> u64 { let c = t.counter(\"net.orphan\"); c.value() }";
        let out = run(src, &no_docs());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_DEAD_COUNTER);
        assert!(out[0].detail.contains("net.orphan"));
    }

    #[test]
    fn handle_escaping_as_an_argument_is_assumed_written() {
        let src =
            "fn f(t: &Registry) { let gauge = t.gauge(\"kernel.depth\"); Sampler::new(gauge); }";
        let out = run(src, &no_docs());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNDOCUMENTED_COUNTER, "escape ⇒ not dead");
    }

    #[test]
    fn handle_bound_and_written_elsewhere_is_live() {
        let src = "
struct S { delivered: Counter }
impl S {
    fn new(t: &Registry) -> Self { Self { delivered: t.counter(\"delivery.ok\") } }
    fn hit(&self) { self.delivered.inc(); }
}
";
        let out = run(src, &no_docs());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(
            out[0].rule, RULE_UNDOCUMENTED_COUNTER,
            "live, just undocumented"
        );
    }

    #[test]
    fn indexed_receiver_write_counts() {
        let src = "
struct S { lanes: [Counter; 4] }
impl S {
    fn new(t: &Registry) -> Self { Self { lanes: make(t.counter(\"net.lane\")) } }
    fn hit(&self, i: usize) { self.lanes[i].inc(); }
}
";
        let out = run(src, &no_docs());
        // `lanes` escapes into make() → assumed written; only the doc
        // finding remains.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNDOCUMENTED_COUNTER);
    }

    #[test]
    fn escaped_handle_is_assumed_written() {
        let src = "fn f(t: &Registry) { Table::new(t.counter(\"kernel.contention\")); }";
        let out = run(src, &no_docs());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNDOCUMENTED_COUNTER, "escape ⇒ not dead");
    }

    #[test]
    fn bare_namespaced_literal_is_a_declaration() {
        let src = "fn mirror() { for (n, v) in [(\"lockdep.cycles\", c)] { push(n, v); } }";
        let out = run(src, &no_docs());
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNDOCUMENTED_COUNTER);
        assert!(out[0].detail.contains("lockdep.cycles"));
    }

    #[test]
    fn dynamic_names_check_their_prefix_against_docs() {
        let dir = std::env::temp_dir().join("doct-coverage-docs-test");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("DESIGN.md"),
            "Per-peer sends land in net.sent.<peer>.\n",
        )
        .unwrap();
        let src = "fn f(t: &Registry, i: u32) { t.counter(format!(\"net.sent.{}\", i)).inc(); }";
        let out = run(src, &dir);
        assert!(out.is_empty(), "prefix `net.sent.` is documented: {out:#?}");
    }

    #[test]
    fn non_namespaced_metrics_are_out_of_scope() {
        let out = run(
            "fn f(t: &Registry) { let c = t.counter(\"other.thing\"); }",
            &no_docs(),
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn test_code_sites_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(t: &Registry) { let c = t.counter(\"kernel.fake\"); }\n}\n";
        let out = run(src, &no_docs());
        assert!(out.is_empty(), "{out:#?}");
    }
}
