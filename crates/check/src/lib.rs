//! # flows-check — `flowslint`, migration-safety lints for this workspace
//!
//! The paper's migratable-thread techniques rest on invariants `rustc`
//! cannot check: global state must not leak into migratable code (§3.3),
//! raw addresses must not be serialized across a stack-copy migration
//! (§3.4.1), and every syscall must flow through `flows-sys` so the
//! `SyscallCounts` accounting that `flows-trace` reports stays honest.
//! This crate enforces those invariants *at the source level* with a
//! hand-rolled lexer (see [`lexer`]) — dependency-free, no rustc plugin,
//! fast enough to run on every CI invocation.
//!
//! ## Rules
//!
//! | id | checks |
//! |----|--------|
//! | `unsafe-safety-comment` | every `unsafe` occurrence carries a `// SAFETY:` comment (same line, the contiguous comment/attribute block above, or a `# Safety` doc section) |
//! | `no-global-state` | `static mut` / `thread_local!` forbidden in the migratable crates (`core`, `ampi`, `npb`, `chare`) outside `core/src/privatize.rs` |
//! | `pup-raw-pointer` | raw-pointer fields flagged in any struct or enum that implements `Pup`, by an `impl` or `pup_fields!` (raw addresses do not survive stack-copy migration) |
//! | `no-direct-libc` | `libc::` forbidden outside `flows-sys` (bypasses `SyscallCounts`) |
//! | `migration-image-closure` | no process-local state (raw pointers, fds, locks, channel endpoints, hash-randomized maps) transitively reachable from a migration-image root (`Tcb`, `RankBox`, and annotated roots such as `PackedThread` and `MoveRec`); a fixed root that names no workspace type is itself a finding |
//! | `atomic-protocol` | every annotated atomic publish/consume site uses a Release/Acquire-class ordering, and every tag has both sides |
//! | `wire-exhaustive` | every message of an annotated wire protocol is matched in some annotated handler fn |
//!
//! `pup-raw-pointer` and the last three run on a workspace-wide symbol
//! graph (see [`parse`]) built from the token stream the [`lexer`] front
//! end produces: a `Pup` impl may sit in another file than its type, and
//! the last three follow source annotations (the grammar is documented
//! in [`parse`]).
//!
//! ## Waivers
//!
//! A deliberate exception is declared in a comment:
//!
//! ```text
//! // flowslint::allow(no-direct-libc): fork-based benchmark child, by design
//! ```
//!
//! The comment must *start* with the marker, as item annotations must
//! (see [`parse`]), so prose that mentions a waiver — like the example
//! above — is inert. A waiver on a pure-comment line covers the next
//! line that contains code; on a code line it covers that line. The
//! `allow-file` variant, written the same way, waives the rule for the
//! whole file. Waivers
//! must name a real rule — unknown ids are themselves findings — so a
//! typo cannot silently disable checking. A line waiver that suppresses
//! nothing is a finding too, so a waiver cannot outlive the code it
//! excused and quietly cover whatever moves onto its line later.

mod graph_rules;
pub mod interleave;
pub mod lexer;
pub mod parse;
pub mod tokens;

use lexer::{find_token, strip, Stripped};
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::path::Path;

/// The seven lint rules (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unsafe` without a `// SAFETY:` / `# Safety` justification.
    UnsafeSafetyComment,
    /// `static mut` / `thread_local!` in migratable crates.
    NoGlobalState,
    /// Raw-pointer field in a `Pup`-implementing type.
    PupRawPointer,
    /// Direct `libc::` use outside `flows-sys`.
    NoDirectLibc,
    /// Process-local state reachable from a migration-image root.
    MigrationImageClosure,
    /// Annotated atomic publish/consume with a too-weak ordering, or an
    /// unpaired tag.
    AtomicProtocol,
    /// Wire-protocol message matched in no annotated handler.
    WireExhaustive,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::UnsafeSafetyComment,
        Rule::NoGlobalState,
        Rule::PupRawPointer,
        Rule::NoDirectLibc,
        Rule::MigrationImageClosure,
        Rule::AtomicProtocol,
        Rule::WireExhaustive,
    ];

    /// The stable id used in reports and waiver comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
            Rule::NoGlobalState => "no-global-state",
            Rule::PupRawPointer => "pup-raw-pointer",
            Rule::NoDirectLibc => "no-direct-libc",
            Rule::MigrationImageClosure => "migration-image-closure",
            Rule::AtomicProtocol => "atomic-protocol",
            Rule::WireExhaustive => "wire-exhaustive",
        }
    }

    /// One-line description, as `--list-rules` prints it.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::UnsafeSafetyComment => {
                "every `unsafe` carries a SAFETY justification"
            }
            Rule::NoGlobalState => {
                "no `static mut` / `thread_local!` in migratable crates"
            }
            Rule::PupRawPointer => {
                "no raw-pointer fields in Pup-serialized types"
            }
            Rule::NoDirectLibc => "all syscalls flow through flows-sys",
            Rule::MigrationImageClosure => {
                "no process-local state reachable from a migration-image root"
            }
            Rule::AtomicProtocol => {
                "annotated atomic publish/consume sites carry Release/Acquire \
                 orderings and pair up"
            }
            Rule::WireExhaustive => {
                "every wire-protocol message is matched in an annotated handler"
            }
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (`None` for meta-findings like bad waivers).
    pub rule: Option<Rule>,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = self.rule.map(|r| r.id()).unwrap_or("flowslint");
        write!(f, "{}:{}: [{}] {}", self.file, self.line, rule, self.msg)
    }
}

/// Crates whose code runs on migratable thread stacks: per-thread state
/// must be privatized (paper §3.3), never process-global.
const MIGRATABLE_CRATES: [&str; 4] = ["core", "ampi", "npb", "chare"];

/// The one sanctioned home of thread-local machinery in migratable
/// crates: the swap-global privatization layer itself.
const PRIVATIZE_FILE: &str = "core/src/privatize.rs";

pub(crate) struct SourceFile {
    pub(crate) path: String,
    /// `crates/<key>/...` → `<key>`; everything else → "".
    pub(crate) crate_key: String,
    pub(crate) stripped: Stripped,
    /// Per-line waived rules (line-scoped `flowslint::allow`), each with
    /// the index of the comment line that declared it.
    line_waivers: Vec<Vec<(Rule, usize)>>,
    /// File-scoped waivers (`flowslint::allow-file`).
    file_waivers: HashSet<Rule>,
    /// Line waivers, as `(rule, declaring line)`, that suppressed a
    /// finding; every other declared line waiver is stale.
    used: RefCell<HashSet<(Rule, usize)>>,
}

fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("").to_string()
    } else {
        String::new()
    }
}

/// Parse line- and file-scoped waiver markers out of one comment line
/// that starts with one. Returns (line rules, file rules, bad ids).
fn parse_waivers(comment: &str) -> (Vec<Rule>, Vec<Rule>, Vec<String>) {
    let (mut line, mut file, mut bad) = (Vec::new(), Vec::new(), Vec::new());
    let mut rest = comment.trim_start();
    if !rest.starts_with("flowslint::allow") {
        return (line, file, bad);
    }
    while let Some(at) = rest.find("flowslint::allow") {
        rest = &rest[at + "flowslint::allow".len()..];
        let file_scope = rest.starts_with("-file");
        if file_scope {
            rest = &rest["-file".len()..];
        }
        let Some(open) = rest.find('(') else { continue };
        let Some(close) = rest[open..].find(')') else { continue };
        let ids = &rest[open + 1..open + close];
        for id in ids.split(',') {
            let id = id.trim();
            match Rule::from_id(id) {
                Some(r) if file_scope => file.push(r),
                Some(r) => line.push(r),
                None => bad.push(id.to_string()),
            }
        }
        rest = &rest[open + close..];
    }
    (line, file, bad)
}

fn analyze(path: &str, src: &str, findings: &mut Vec<Finding>) -> SourceFile {
    let stripped = strip(src);
    let n = stripped.code.len();
    let mut line_waivers: Vec<Vec<(Rule, usize)>> = vec![Vec::new(); n];
    let mut file_waivers = HashSet::new();
    for i in 0..n {
        let comment = &stripped.comments[i];
        if comment.is_empty() {
            continue;
        }
        let (line, file, bad) = parse_waivers(comment);
        for id in bad {
            findings.push(Finding {
                file: path.to_string(),
                line: i + 1,
                rule: None,
                msg: format!("waiver names unknown rule `{id}`"),
            });
        }
        file_waivers.extend(file);
        if line.is_empty() {
            continue;
        }
        // A waiver covers its own line; a pure-comment waiver line also
        // covers everything down to (and including) the next code line.
        let declared = line.iter().map(|&r| (r, i));
        line_waivers[i].extend(declared.clone());
        if stripped.code[i].trim().is_empty() {
            for (j, lw) in line_waivers.iter_mut().enumerate().take(n).skip(i + 1) {
                lw.extend(declared.clone());
                if !stripped.code[j].trim().is_empty() {
                    break;
                }
            }
        }
    }
    SourceFile {
        path: path.to_string(),
        crate_key: crate_key(path),
        stripped,
        line_waivers,
        file_waivers,
        used: RefCell::default(),
    }
}

impl SourceFile {
    pub(crate) fn file_waived(&self, rule: Rule) -> bool {
        self.file_waivers.contains(&rule)
    }

    /// The declaring line of the line waiver for `rule` covering
    /// `line_idx`, if any.
    pub(crate) fn line_waiver(&self, rule: Rule, line_idx: usize) -> Option<usize> {
        self.line_waivers
            .get(line_idx)?
            .iter()
            .find(|&&(r, _)| r == rule)
            .map(|&(_, at)| at)
    }

    /// Record that the line waiver declared at `at` suppressed a finding.
    pub(crate) fn mark_used(&self, rule: Rule, at: usize) {
        self.used.borrow_mut().insert((rule, at));
    }

    /// One finding per declared line waiver that suppressed nothing.
    /// Runs after every rule has reported.
    fn stale_waivers(&self, out: &mut Vec<Finding>) {
        let used = self.used.borrow();
        for (i, lw) in self.line_waivers.iter().enumerate() {
            for &(rule, at) in lw {
                // Each waiver once: on the line that declares it.
                if at == i && !used.contains(&(rule, at)) {
                    out.push(Finding {
                        file: self.path.clone(),
                        line: at + 1,
                        rule: None,
                        msg: format!(
                            "stale waiver: `flowslint::allow({})` suppresses nothing — delete it",
                            rule.id()
                        ),
                    });
                }
            }
        }
    }

    pub(crate) fn report(&self, rule: Rule, line_idx: usize, msg: String, out: &mut Vec<Finding>) {
        if self.file_waived(rule) {
            return;
        }
        if let Some(at) = self.line_waiver(rule, line_idx) {
            self.mark_used(rule, at);
        } else {
            out.push(Finding {
                file: self.path.clone(),
                line: line_idx + 1,
                rule: Some(rule),
                msg,
            });
        }
    }

    /// An unwaivable meta-finding (malformed annotation), mirroring the
    /// unknown-waiver-id findings.
    pub(crate) fn meta_finding(&self, line_idx: usize, msg: String) -> Finding {
        Finding {
            file: self.path.clone(),
            line: line_idx + 1,
            rule: None,
            msg,
        }
    }
}

fn mentions_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety")
}

/// A line that may sit between a SAFETY comment and its `unsafe`:
/// blank, or an attribute.
pub(crate) fn is_transparent(code: &str) -> bool {
    let t = code.trim();
    t.is_empty() || t.starts_with("#[") || t.starts_with("#![") || t == ")]"
}

fn rule_unsafe(f: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..f.stripped.code.len() {
        if find_token(&f.stripped.code[i], "unsafe").is_empty() {
            continue;
        }
        let mut covered = mentions_safety(&f.stripped.comments[i]);
        let mut j = i;
        while !covered && j > 0 {
            j -= 1;
            let has_comment = !f.stripped.comments[j].is_empty();
            if mentions_safety(&f.stripped.comments[j]) {
                covered = true;
                break;
            }
            // Keep climbing through the contiguous comment/attribute
            // block; stop at the first real code line.
            if !has_comment && !is_transparent(&f.stripped.code[j]) {
                break;
            }
        }
        if !covered {
            f.report(
                Rule::UnsafeSafetyComment,
                i,
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section)".into(),
                out,
            );
        }
    }
}

fn rule_global_state(f: &SourceFile, out: &mut Vec<Finding>) {
    if !MIGRATABLE_CRATES.contains(&f.crate_key.as_str()) || f.path.ends_with(PRIVATIZE_FILE) {
        return;
    }
    for (i, code) in f.stripped.code.iter().enumerate() {
        for at in find_token(code, "static") {
            let rest = code[at + "static".len()..].trim_start();
            if rest.starts_with("mut ") || rest.starts_with("mut\t") {
                f.report(
                    Rule::NoGlobalState,
                    i,
                    "`static mut` in a migratable crate: state shared across threads \
                     does not migrate (privatize it via `core/src/privatize.rs`)"
                        .into(),
                    out,
                );
            }
        }
        for at in find_token(code, "thread_local") {
            if code[at + "thread_local".len()..].trim_start().starts_with('!') {
                f.report(
                    Rule::NoGlobalState,
                    i,
                    "`thread_local!` in a migratable crate: TLS belongs to the OS \
                     thread, not the migratable flow (\"Fibers are not (P)Threads\")"
                        .into(),
                    out,
                );
            }
        }
    }
}

fn rule_no_libc(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.crate_key == "sys" {
        return;
    }
    for (i, code) in f.stripped.code.iter().enumerate() {
        for at in find_token(code, "libc") {
            if code[at + "libc".len()..].trim_start().starts_with("::") {
                f.report(
                    Rule::NoDirectLibc,
                    i,
                    "direct `libc::` call outside `flows-sys` bypasses the \
                     `SyscallCounts` accounting that `flows-trace` reports"
                        .into(),
                    out,
                );
                break; // one finding per line is enough
            }
        }
    }
}

/// Lint a set of in-memory sources. `files` is `(workspace-relative
/// path, contents)`. This is the engine behind [`lint_tree`] and the
/// entry point fixture tests drive directly.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    lint(files, false)
}

/// Lint a whole tree of in-memory sources, as [`lint_workspace`] does:
/// [`lint_sources`] plus the checks only a whole tree can answer (every
/// fixed migration-image root names a type defined in it).
pub fn lint_tree(files: &[(String, String)]) -> Vec<Finding> {
    lint(files, true)
}

fn lint(files: &[(String, String)], whole_tree: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| analyze(p, s, &mut findings))
        .collect();
    // The symbol graph: one parse per file, consumed by the
    // interprocedural rules below.
    let syms: Vec<parse::FileSymbols> = parsed
        .iter()
        .map(|f| parse::parse_file(&f.stripped))
        .collect();
    for (f, s) in parsed.iter().zip(&syms) {
        for (line_idx, msg) in &s.anno_errors {
            findings.push(f.meta_finding(*line_idx, msg.clone()));
        }
    }
    let pup_types = graph_rules::pup_types(&syms);
    for (f, s) in parsed.iter().zip(&syms) {
        rule_unsafe(f, &mut findings);
        rule_global_state(f, &mut findings);
        rule_no_libc(f, &mut findings);
        graph_rules::rule_pup_raw_pointer(f, s, &pup_types, &mut findings);
    }
    graph_rules::rule_image_closure(&parsed, &syms, &mut findings);
    if whole_tree {
        graph_rules::rule_fixed_roots_resolve(&syms, &mut findings);
    }
    graph_rules::rule_atomic_protocol(&parsed, &mut findings);
    graph_rules::rule_wire_exhaustive(&parsed, &syms, &mut findings);
    for f in &parsed {
        f.stale_waivers(&mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Directories never linted: vendored shims model *external* crates
/// (the libc shim IS libc); build outputs and fixtures are not our source.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Should this workspace-relative path be linted?
fn lintable(rel: &str) -> bool {
    rel.ends_with(".rs") && !rel.split('/').any(|part| SKIP_DIRS.contains(&part))
}

fn collect(dir: &Path, root: &Path, files: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if !path.file_name().and_then(|n| n.to_str()).is_some_and(|n| SKIP_DIRS.contains(&n)) {
                collect(&path, root, files)?;
            }
        } else if lintable(&rel) {
            files.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Walk the workspace rooted at `root` and lint every non-vendored
/// `.rs` file. Returns `(findings, files scanned)`.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let n = files.len();
    Ok((lint_tree(&files), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        lint_sources(&[(path.to_string(), src.to_string())])
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/core/src/scheduler.rs"), "core");
        assert_eq!(crate_key("src/main.rs"), "");
    }

    #[test]
    fn waiver_parsing() {
        let (l, f, bad) = parse_waivers(" flowslint::allow(no-direct-libc): reason");
        assert_eq!(l, vec![Rule::NoDirectLibc]);
        assert!(f.is_empty() && bad.is_empty());
        let (l, f, bad) = parse_waivers(" flowslint::allow-file(no-global-state)");
        assert!(l.is_empty());
        assert_eq!(f, vec![Rule::NoGlobalState]);
        assert!(bad.is_empty());
        let (_, _, bad) = parse_waivers(" flowslint::allow(no-such-rule)");
        assert_eq!(bad, vec!["no-such-rule".to_string()]);
        let (l, f, bad) = parse_waivers(" e.g. flowslint::allow(no-direct-libc): prose");
        assert!(l.is_empty() && f.is_empty() && bad.is_empty(), "unanchored is inert");
    }

    #[test]
    fn unknown_waiver_id_is_a_finding() {
        let f = lint_one("crates/x/src/a.rs", "// flowslint::allow(nope)\nfn main() {}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].rule.is_none());
    }
}
