//! The symbol-graph rules: raw pointers in `Pup` types, migration-image
//! closure, atomic-protocol pairing, and wire-message exhaustiveness.
//! All four work on the workspace-wide symbol graph built by
//! [`crate::parse`], because the thing they check — a type and its `Pup`
//! impl, a type reachable from a migration root, a publish/consume pair,
//! a protocol and its dispatcher — routinely spans files and crates.

use crate::lexer::find_token;
use crate::parse::{FileSymbols, ItemAnno};
use crate::tokens::Tok;
use crate::{Finding, Rule, SourceFile};
use std::collections::{BTreeMap, HashMap, HashSet};

// ---------------------------------------------------------------------
// Rule: pup-raw-pointer
// ---------------------------------------------------------------------

/// Names of the types that implement `Pup` anywhere in the tree, by an
/// `impl Pup for X` or a `pup_fields!(X { .. })` (which the parser
/// records as the impl it expands to). Collected workspace-wide: the
/// impl and the type may live in different files.
pub(crate) fn pup_types(syms: &[FileSymbols]) -> HashSet<&str> {
    syms.iter()
        .flat_map(|s| &s.impls)
        .filter(|i| i.trait_name.as_deref() == Some("Pup"))
        .filter_map(|i| i.type_name.as_deref())
        .collect()
}

/// Every raw-pointer field of a `Pup` type defined in `f`, reported on
/// the field's line: a packed address is dead once a stack-copy
/// migration lands the image elsewhere.
pub(crate) fn rule_pup_raw_pointer(
    f: &SourceFile,
    s: &FileSymbols,
    pup_types: &HashSet<&str>,
    out: &mut Vec<Finding>,
) {
    for t in s.types.iter().filter(|t| pup_types.contains(t.name.as_str())) {
        for field in t.fields.iter().filter(|field| field.raw_ptr) {
            let code = f.stripped.code[field.line].trim();
            f.report(
                Rule::PupRawPointer,
                field.line,
                format!(
                    "raw-pointer field in `Pup` type `{}` ({code}): raw addresses do not \
                     survive stack-copy migration — store a slot-relative offset or index \
                     instead",
                    t.name
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: migration-image-closure
// ---------------------------------------------------------------------

/// Types that always root the reachability walk, in addition to
/// anything annotated as a root: the thread control block and the AMPI
/// rank container, whose state the images that cross process boundaries
/// carry (paper §3.4). Each must name a type of the workspace
/// ([`rule_fixed_roots_resolve`]).
const FIXED_ROOTS: [&str; 2] = ["Tcb", "RankBox"];
/// Where [`FIXED_ROOTS`] is declared: the site of a finding that one of
/// them resolves to nothing.
const FIXED_ROOTS_AT: (&str, u32) = (file!(), line!() - 3);

/// A fixed root that no type of the tree defines is a finding: an
/// unresolved name matches nothing, so a rename would silently drop the
/// root from the walk instead of failing the gate. Only a whole tree can
/// tell, so this runs from [`crate::lint_tree`], not on fixtures.
pub(crate) fn rule_fixed_roots_resolve(syms: &[FileSymbols], out: &mut Vec<Finding>) {
    for root in FIXED_ROOTS {
        if !syms.iter().any(|s| s.types.iter().any(|t| t.name == root)) {
            out.push(Finding {
                file: FIXED_ROOTS_AT.0.to_string(),
                line: FIXED_ROOTS_AT.1 as usize,
                rule: Some(Rule::MigrationImageClosure),
                msg: format!(
                    "fixed migration-image root `{root}` names no type of the workspace, so \
                     nothing is walked from it: rename it here, or mark its successor \
                     `// flows-image: root`"
                ),
            });
        }
    }
}

/// The workspace's deterministic hashed containers (`flows_core::idhash`):
/// their hasher has no per-process seed, so iteration order is the same
/// in every process and survives a restore. The names are trusted only
/// when the field's crate does not define an alias of its own by them.
const DETERMINISTIC_MAPS: [&str; 2] = ["IdMap", "IdSet"];
/// The std maps `IdMap`/`IdSet` wrap.
const STD_MAPS: [&str; 2] = ["HashMap", "HashSet"];

/// Why a type name is process-local, or `None` if it is fine.
fn process_local(name: &str) -> Option<&'static str> {
    Some(match name {
        "HashMap" | "HashSet" | "RandomState" => {
            "hash-randomized container — iteration order is seeded per process, \
             so replay diverges after restore; \
             `IdMap`/`IdSet` are the deterministic form"
        }
        "Mutex" | "RwLock" | "Condvar" | "Parker" | "Barrier" | "Once" | "OnceLock"
        | "OnceCell" | "LazyLock" => "OS-thread synchronization state is meaningless once \
             the image lands in another process",
        "Sender" | "Receiver" | "SyncSender" => {
            "channel endpoint — the peer queue lives on this process's heap"
        }
        "RawFd" | "OwnedFd" | "BorrowedFd" | "File" | "TcpStream" | "TcpListener"
        | "UdpSocket" | "UnixStream" | "UnixListener" | "UnixDatagram" => {
            "file descriptor — indexes a per-process descriptor table"
        }
        "MemFd" | "Mapping" => "memory mapping / memfd — a per-process resource",
        "JoinHandle" | "Thread" => "OS thread handle",
        "Instant" => "monotonic clock reading — the origin is per-process",
        "AtomicPtr" | "NonNull" => "raw address in disguise",
        _ => return None,
    })
}

/// A line waiver, as `(file index, declaring line)`.
type Waiver = (usize, usize);

/// A pending step of the reachability walk: a type (`(file index, type
/// index)`), the field path that reached it, its root, and the waiver
/// that pruned the path, if one did.
type Step = (usize, usize, String, String, Option<Waiver>);

/// Walk type reachability from every migration root and flag
/// process-local state that is reachable without a waiver.
///
/// A waived field is not reported, and neither is anything below it: the
/// waiver asserts the pack path handles it explicitly. The walk still
/// goes on below it, reporting nothing, only to learn whether the waiver
/// suppresses a finding; a waiver that suppresses none is stale.
pub(crate) fn rule_image_closure(
    files: &[SourceFile],
    syms: &[FileSymbols],
    out: &mut Vec<Finding>,
) {
    // Name → every definition site (same-crate candidates preferred at
    // resolution time, so an `ampi::Head` does not drag in a `net::Head`).
    let mut index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, s) in syms.iter().enumerate() {
        for (ti, t) in s.types.iter().enumerate() {
            index.entry(&t.name).or_default().push((fi, ti));
        }
    }
    // (crate, alias name) → the names the alias expands to. Resolved only
    // within a crate: an alias is a local shorthand.
    let mut aliases: HashMap<(&str, &str), Vec<&str>> = HashMap::new();
    for (fi, s) in syms.iter().enumerate() {
        for a in &s.aliases {
            aliases
                .entry((&files[fi].crate_key, &a.name))
                .or_default()
                .extend(a.refs.iter().map(String::as_str));
        }
    }

    // Seed: fixed roots plus annotated ones. The walk carries the root
    // name and the field path for the report.
    let mut queue: Vec<Step> = Vec::new();
    for (fi, s) in syms.iter().enumerate() {
        for (ti, t) in s.types.iter().enumerate() {
            let fixed = FIXED_ROOTS.contains(&t.name.as_str());
            if fixed || t.annos.contains(&ItemAnno::ImageRoot) {
                queue.push((fi, ti, t.name.clone(), t.name.clone(), None));
            }
        }
    }

    let mut visited: HashSet<(usize, usize, Option<Waiver>)> = HashSet::new();
    while let Some((fi, ti, path, root, pruned)) = queue.pop() {
        if !visited.insert((fi, ti, pruned)) {
            continue;
        }
        let t = &syms[fi].types[ti];
        if t.annos.contains(&ItemAnno::ImageOpaque) {
            continue; // hand-written serializer owns this subtree
        }
        let f = &files[fi];
        if f.file_waived(Rule::MigrationImageClosure) {
            continue;
        }
        for field in &t.fields {
            let pruned = f
                .line_waiver(Rule::MigrationImageClosure, field.line)
                .map(|at| (fi, at))
                .or(pruned);
            let flag = |msg: String, out: &mut Vec<Finding>| match pruned {
                Some((wfi, at)) => files[wfi].mark_used(Rule::MigrationImageClosure, at),
                None => f.report(Rule::MigrationImageClosure, field.line, msg, out),
            };
            let fpath = trim_path(&format!("{path}.{}", field.name));
            if field.raw_ptr {
                flag(
                    format!(
                        "raw pointer reachable from migration root `{root}` at `{fpath}` \
                         ({}): addresses do not survive repacking in another process — \
                         store an offset/index, or waive with the invariant that rebinds it",
                        field.ty_text
                    ),
                    out,
                );
            }
            // Each name with the alias it was reached through, if any.
            let mut names: Vec<(&str, Option<&str>)> =
                field.refs.iter().map(|r| (r.as_str(), None)).collect();
            let mut seen_here: HashSet<&str> = HashSet::new();
            while let Some((r, via)) = names.pop() {
                if !seen_here.insert(r) {
                    continue;
                }
                // A local alias is resolved before its name is trusted: a
                // crate's own `type IdMap<K, V> = HashMap<K, V>` is still a
                // std map. An alias that names `IdHasher` is the id-hashed
                // form, so the std map it wraps is not randomized.
                if let Some(expands) = aliases.get(&(f.crate_key.as_str(), r)) {
                    let id_hashed = expands.contains(&"IdHasher");
                    names.extend(
                        expands
                            .iter()
                            .filter(|&&e| !(id_hashed && STD_MAPS.contains(&e)))
                            .map(|&e| (e, via.or(Some(r)))),
                    );
                } else if DETERMINISTIC_MAPS.contains(&r) {
                    continue;
                } else if let Some(cands) = index.get(r) {
                    let same: Vec<(usize, usize)> = cands
                        .iter()
                        .copied()
                        .filter(|(cfi, _)| files[*cfi].crate_key == f.crate_key)
                        .collect();
                    let chosen = if same.is_empty() { cands.clone() } else { same };
                    for (cfi, cti) in chosen {
                        queue.push((cfi, cti, fpath.clone(), root.clone(), pruned));
                    }
                } else if let Some(why) = process_local(r) {
                    let via = via.map(|a| format!(" (through alias `{a}`)")).unwrap_or_default();
                    flag(
                        format!(
                            "process-local `{r}`{via} reachable from migration root `{root}` \
                             at `{fpath}`: {why}; capture this state in the wire format \
                             explicitly or waive with a justification"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// Keep reported paths readable: elide the middle of very deep chains.
fn trim_path(path: &str) -> String {
    let hops: Vec<&str> = path.split('.').collect();
    if hops.len() <= 8 {
        return path.to_string();
    }
    format!(
        "{}…{}",
        hops[..3].join("."),
        hops[hops.len() - 3..].join(".")
    )
}

// ---------------------------------------------------------------------
// Rule: atomic-protocol
// ---------------------------------------------------------------------

/// One annotated atomic site.
struct AtomicSite {
    file_idx: usize,
    /// The annotated code line (where waivers apply and findings land).
    line: usize,
    publishes: bool,
    tag: String,
}

/// Atomic operations that write (can publish) and read (can consume).
/// RMW ops appear in both.
const WRITE_OPS: [&str; 12] = [
    "store", "swap", "compare_exchange", "compare_exchange_weak", "fetch_add", "fetch_sub",
    "fetch_or", "fetch_and", "fetch_xor", "fetch_nand", "fetch_max", "fetch_update",
];
const READ_OPS: [&str; 12] = [
    "load", "swap", "compare_exchange", "compare_exchange_weak", "fetch_add", "fetch_sub",
    "fetch_or", "fetch_and", "fetch_xor", "fetch_nand", "fetch_max", "fetch_update",
];

/// Gather the statement starting at `line`: concatenated code lines
/// until the delimiters balance and a `;` has appeared (capped — an
/// annotation should sit on the operation, not a page above it).
fn statement_text(f: &SourceFile, line: usize) -> String {
    let mut stmt = String::new();
    let mut depth = 0i32;
    let end = (line + 8).min(f.stripped.code.len());
    for l in line..end {
        let code = &f.stripped.code[l];
        stmt.push_str(code);
        stmt.push(' ');
        for ch in code.chars() {
            match ch {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                _ => {}
            }
        }
        if depth <= 0 && code.contains(';') {
            break;
        }
    }
    stmt
}

fn has_any_token(text: &str, words: &[&str]) -> bool {
    words.iter().any(|w| !find_token(text, w).is_empty())
}

/// Parse `flows-atomic:` directives and check each site's operation and
/// ordering; then check tag pairing across the whole file set.
pub(crate) fn rule_atomic_protocol(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (i, comment) in f.stripped.comments.iter().enumerate() {
            let text = comment.trim();
            let Some(rest) = text.strip_prefix("flows-atomic:") else {
                continue;
            };
            let mut words = rest.split_whitespace();
            let verb = words.next().unwrap_or("");
            let tag: String = words
                .next()
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            let publishes = match verb {
                "publishes" => true,
                "consumes" => false,
                _ => {
                    out.push(f.meta_finding(
                        i,
                        format!(
                            "unknown flows-atomic directive `{verb}` (expected \
                             `publishes <tag>` or `consumes <tag>`)"
                        ),
                    ));
                    continue;
                }
            };
            if tag.is_empty() {
                out.push(f.meta_finding(i, format!("flows-atomic `{verb}` names no tag")));
                continue;
            }
            // Same-line annotation covers its line; a pure-comment line
            // covers the next code line (waiver convention).
            let mut target = i;
            if f.stripped.code[i].trim().is_empty() {
                match (i + 1..f.stripped.code.len()).find(|&j| !f.stripped.code[j].trim().is_empty())
                {
                    Some(j) => target = j,
                    None => {
                        out.push(f.meta_finding(i, "flows-atomic annotation covers no code".into()));
                        continue;
                    }
                }
            }
            sites.push(AtomicSite { file_idx: fi, line: target, publishes, tag: tag.clone() });

            let stmt = statement_text(f, target);
            let (ops, side): (&[&str], _) = if publishes {
                (&WRITE_OPS, "publish")
            } else {
                (&READ_OPS, "consume")
            };
            if !has_any_token(&stmt, ops) {
                f.report(
                    Rule::AtomicProtocol,
                    target,
                    format!(
                        "flows-atomic `{side}s {tag}` covers no atomic {side} operation \
                         (move the annotation onto the store/load it describes)"
                    ),
                    out,
                );
                continue;
            }
            let strong = if publishes {
                has_any_token(&stmt, &["Release", "AcqRel", "SeqCst"])
            } else {
                has_any_token(&stmt, &["Acquire", "AcqRel", "SeqCst"])
            };
            if !strong {
                let (need, lost) = if publishes {
                    ("Release", "the consumer's Acquire load cannot synchronize with it, \
                      so data written before the flag may not be visible")
                } else {
                    ("Acquire", "reads after it may be satisfied before the publisher's \
                      writes become visible")
                };
                f.report(
                    Rule::AtomicProtocol,
                    target,
                    format!(
                        "{side} of tag `{tag}` uses no {need}-class ordering — {lost}; \
                         strengthen the ordering or waive with the invariant that makes \
                         Relaxed sufficient"
                    ),
                    out,
                );
            }
        }
    }

    // Pairing over every annotated site, waived or not: a waiver blesses
    // one site's ordering, it does not delete the site from the protocol.
    let mut tags: BTreeMap<&str, (Vec<&AtomicSite>, Vec<&AtomicSite>)> = BTreeMap::new();
    for s in &sites {
        let entry = tags.entry(&s.tag).or_default();
        if s.publishes {
            entry.0.push(s);
        } else {
            entry.1.push(s);
        }
    }
    for (tag, (pubs, cons)) in tags {
        if cons.is_empty() {
            let s = pubs[0];
            files[s.file_idx].report(
                Rule::AtomicProtocol,
                s.line,
                format!(
                    "tag `{tag}` is published but no site consumes it — either the \
                     consumer is missing its `flows-atomic` annotation or the protocol \
                     has no reader"
                ),
                out,
            );
        } else if pubs.is_empty() {
            let s = cons[0];
            files[s.file_idx].report(
                Rule::AtomicProtocol,
                s.line,
                format!(
                    "unpaired acquire: tag `{tag}` is consumed but no site publishes it \
                     — either the publisher is missing its `flows-atomic` annotation or \
                     this read is not part of a protocol"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: wire-exhaustive
// ---------------------------------------------------------------------

#[derive(Default)]
struct Proto {
    /// `(message name, file_idx, line)` — consts of the defining mod or
    /// variants of the defining enum.
    messages: Vec<(String, usize, usize)>,
    /// `(file_idx, line)` of each `defines` site.
    def_sites: Vec<(usize, usize)>,
    /// `(file_idx, first line, last line)` of each handler fn.
    handlers: Vec<(usize, usize, usize)>,
}

/// Is the identifier at `idx` used in a dispatch position: a match arm
/// pattern (`=> `, `| `, a guard's `if`) or an equality comparison?
fn is_match_site(toks: &[Tok], idx: usize) -> bool {
    if let Some(next) = toks.get(idx + 1) {
        if next.is_punct("=>")
            || next.is_punct("|")
            || next.is_punct("==")
            || next.is_punct("!=")
            || next.is_ident("if")
        {
            return true;
        }
    }
    // Walk back over the `path::` prefix, then look for a comparison or
    // an alternative separator before the whole path.
    let mut j = idx;
    while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].ident().is_some() {
        j -= 2;
    }
    j.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|prev| prev.is_punct("==") || prev.is_punct("!=") || prev.is_punct("|"))
}

/// Every message of every `defines` protocol must be matched inside
/// some `handles` fn; a protocol with no handler at all is itself a
/// finding.
pub(crate) fn rule_wire_exhaustive(
    files: &[SourceFile],
    syms: &[FileSymbols],
    out: &mut Vec<Finding>,
) {
    let mut protos: BTreeMap<String, Proto> = BTreeMap::new();
    for (fi, s) in syms.iter().enumerate() {
        for m in &s.mods {
            for a in &m.annos {
                if let ItemAnno::WireDefines(p) = a {
                    let proto = protos.entry(p.clone()).or_default();
                    proto.def_sites.push((fi, m.line));
                    for (cname, cline) in &s.consts {
                        if *cline >= m.line && *cline <= m.end_line {
                            proto.messages.push((cname.clone(), fi, *cline));
                        }
                    }
                }
            }
        }
        for t in &s.types {
            if !t.is_enum {
                continue;
            }
            for a in &t.annos {
                if let ItemAnno::WireDefines(p) = a {
                    let proto = protos.entry(p.clone()).or_default();
                    proto.def_sites.push((fi, t.line));
                    for (vname, vline) in &t.variants {
                        proto.messages.push((vname.clone(), fi, *vline));
                    }
                }
            }
        }
        for func in &s.fns {
            for a in &func.annos {
                if let ItemAnno::WireHandles(p) = a {
                    protos
                        .entry(p.clone())
                        .or_default()
                        .handlers
                        .push((fi, func.line, func.end_line));
                }
            }
        }
    }

    for (name, proto) in &protos {
        if proto.def_sites.is_empty() {
            for &(fi, line, _) in &proto.handlers {
                files[fi].report(
                    Rule::WireExhaustive,
                    line,
                    format!("handler for unknown protocol `{name}` — no mod or enum \
                             carries the matching `defines` annotation"),
                    out,
                );
            }
            continue;
        }
        if proto.handlers.is_empty() {
            let (fi, line) = proto.def_sites[0];
            files[fi].report(
                Rule::WireExhaustive,
                line,
                format!(
                    "protocol `{name}` defines {} message(s) but no fn is annotated as \
                     its handler — messages would be silently dropped",
                    proto.messages.len()
                ),
                out,
            );
            continue;
        }
        let names: HashSet<&str> = proto.messages.iter().map(|(n, _, _)| n.as_str()).collect();
        let mut matched: HashSet<&str> = HashSet::new();
        for &(fi, start, end) in &proto.handlers {
            let toks = &syms[fi].toks;
            for (idx, tok) in toks.iter().enumerate() {
                if tok.line < start || tok.line > end {
                    continue;
                }
                if let Some(word) = tok.ident() {
                    if names.contains(word) && is_match_site(toks, idx) {
                        matched.insert(word);
                    }
                }
            }
        }
        for (msg, fi, line) in &proto.messages {
            if !matched.contains(msg.as_str()) {
                files[*fi].report(
                    Rule::WireExhaustive,
                    *line,
                    format!(
                        "wire message `{msg}` of protocol `{name}` is matched in no \
                         handler — it would be silently dropped on receive; handle it \
                         or waive here"
                    ),
                    out,
                );
            }
        }
    }
}
