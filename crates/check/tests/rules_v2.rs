//! Fixture tests for the v2 symbol-graph rules: each must fire on a
//! seeded violation, stay quiet on the compliant twin, and respect a
//! waiver. Fixtures are inline string literals — the lexer blanks
//! string contents, so linting this workspace does not see the seeded
//! violations inside these tests.

use flows_check::{lint_sources, Finding, Rule};

fn lint_at(path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), src.to_string())])
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().filter_map(|f| f.rule).collect()
}

// ---- rule 5: migration-image-closure ----

#[test]
fn pr6_clone_hashmap_reachable_from_rankbox_fires() {
    // The literal shape of the PR-6 bug: per-sender protocol state in a
    // RandomState HashMap directly inside the migration image. RankBox
    // is a fixed closure root — no annotation needed.
    let src = "use std::collections::HashMap;\n\
               pub struct RankBox {\n\
               \x20   pub rank: u64,\n\
               \x20   pub next_seq: HashMap<u64, u64>,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::MigrationImageClosure]);
    assert_eq!(f[0].line, 4, "finding lands on the offending field");
    assert!(f[0].msg.contains("HashMap"), "{}", f[0].msg);
}

#[test]
fn closure_is_transitive_through_workspace_types() {
    // The banned type is two hops from the root — the whole point of
    // the symbol graph over the old per-line scan.
    let src = "pub struct RankBox {\n\
               \x20   pub inner: Inner,\n\
               }\n\
               pub struct Inner {\n\
               \x20   pub guard: std::sync::Mutex<u64>,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::MigrationImageClosure]);
    assert_eq!(f[0].line, 5);
    assert!(f[0].msg.contains("Mutex"), "{}", f[0].msg);
}

#[test]
fn annotated_root_pulls_type_into_the_image() {
    let src = "// flows-image: root\n\
               pub struct Snapshot {\n\
               \x20   pub fd: std::os::fd::OwnedFd,\n\
               }\n";
    let f = lint_at("crates/mem/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::MigrationImageClosure]);
}

#[test]
fn fixed_root_that_names_no_type_of_the_tree_fires() {
    // A tree that defines `Tcb` but no `RankBox`: the walk would silently
    // lose that root, so the whole-tree lint names it. A fixture linted
    // on its own (`lint_sources`) is not a whole tree and stays quiet.
    let tcb = ("crates/core/src/tcb.rs".to_string(), "pub struct Tcb {\n    pub id: u64,\n}\n".to_string());
    let f = flows_check::lint_tree(std::slice::from_ref(&tcb));
    assert_eq!(rules_of(&f), vec![Rule::MigrationImageClosure]);
    assert!(f[0].msg.contains("`RankBox` names no type"), "{}", f[0].msg);
    assert_eq!(f[0].file, "crates/check/src/graph_rules.rs");
    assert!(lint_sources(std::slice::from_ref(&tcb)).is_empty());
    let rank_box = ("crates/ampi/src/world.rs".to_string(), "pub struct RankBox {\n    pub rank: u64,\n}\n".to_string());
    assert!(flows_check::lint_tree(&[tcb, rank_box]).is_empty());
}

#[test]
fn closure_clean_on_migratable_fields() {
    let src = "pub struct RankBox {\n\
               \x20   pub rank: u64,\n\
               \x20   pub mail: Vec<Entry>,\n\
               \x20   pub next_seq: Vec<(u64, u64)>,\n\
               }\n\
               pub struct Entry {\n\
               \x20   pub tag: u64,\n\
               \x20   pub bytes: Vec<u8>,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn closure_waiver_suppresses_the_field() {
    let src = "use std::collections::HashMap;\n\
               pub struct RankBox {\n\
               \x20   // flowslint::allow(migration-image-closure): rebuilt from\n\
               \x20   // the sorted pair list on unpack, never shipped.\n\
               \x20   pub cache: HashMap<u64, u64>,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn opaque_type_is_not_descended() {
    let src = "// flows-image: root\n\
               pub struct Image {\n\
               \x20   pub blob: Blob,\n\
               }\n\
               // flows-image: opaque — hand-written Pup ships bytes only; the\n\
               // pool handle is re-bound on unpack.\n\
               pub struct Blob {\n\
               \x20   pub pool: std::sync::Mutex<u64>,\n\
               }\n";
    assert!(lint_at("crates/mem/src/x.rs", src).is_empty());
}

#[test]
fn opaque_without_reason_is_a_meta_finding() {
    let src = "// flows-image: opaque\n\
               pub struct Blob {\n\
               \x20   pub x: u64,\n\
               }\n";
    let f = lint_at("crates/mem/src/x.rs", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].rule.is_none(), "meta-finding, not a rule hit");
}

#[test]
fn id_maps_are_deterministic() {
    // `IdMap`/`IdSet` alias `HashMap`/`HashSet` with the unseeded id
    // hasher: iteration order is the same in every process.
    let src = "use flows_core::{IdMap, IdSet};\n\
               pub struct RankBox {\n\
               \x20   pub next_seq: IdMap<u64, u64>,\n\
               \x20   pub peers: flows_core::IdSet<u64>,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn local_alias_cannot_hide_a_randomized_map() {
    // A std map behind a local alias, one and two aliases deep.
    let src = "use std::collections::HashMap;\n\
               type Seqs = HashMap<u64, u64>;\n\
               type Counters = Seqs;\n\
               pub struct RankBox {\n\
               \x20   pub next_seq: Seqs,\n\
               \x20   pub send_seq: Counters,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(
        rules_of(&f),
        vec![Rule::MigrationImageClosure, Rule::MigrationImageClosure]
    );
    assert_eq!((f[0].line, f[1].line), (5, 6));
    assert!(f[0].msg.contains("`HashMap` (through alias `Seqs`)"), "{}", f[0].msg);
    assert!(f[1].msg.contains("(through alias `Counters`)"), "{}", f[1].msg);
}

#[test]
fn alias_of_an_id_map_is_clean() {
    let src = "use flows_core::IdMap;\n\
               type Seqs = IdMap<u64, u64>;\n\
               pub struct RankBox {\n\
               \x20   pub next_seq: Seqs,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn local_id_map_alias_of_a_std_map_is_flagged() {
    // The trusted name does not vouch for a crate's own alias by it.
    let src = "use std::collections::{HashMap, HashSet};\n\
               type IdMap<K, V> = HashMap<K, V>;\n\
               type IdSet<K> = HashSet<K, std::hash::RandomState>;\n\
               pub struct RankBox {\n\
               \x20   pub next_seq: IdMap<u64, u64>,\n\
               \x20   pub peers: IdSet<u64>,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(
        rules_of(&f),
        vec![Rule::MigrationImageClosure, Rule::MigrationImageClosure, Rule::MigrationImageClosure]
    );
    assert!(f[0].msg.contains("`HashMap` (through alias `IdMap`)"), "{}", f[0].msg);
    assert!(f.iter().skip(1).all(|x| x.line == 6 && x.msg.contains("alias `IdSet`")));
}

#[test]
fn local_alias_over_the_id_hasher_is_clean() {
    // What flows-core itself defines: the std map with `IdHasher`.
    let src = "use std::collections::HashMap;\n\
               use std::hash::BuildHasherDefault;\n\
               type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;\n\
               pub struct RankBox {\n\
               \x20   pub next_seq: IdMap<u64, u64>,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn alias_resolves_only_within_its_crate() {
    // `Seqs` in another crate names something else there.
    let files = [
        (
            "crates/ampi/src/x.rs".to_string(),
            "pub struct RankBox {\n\
             \x20   pub next_seq: Seqs,\n\
             }\n"
                .to_string(),
        ),
        (
            "crates/net/src/y.rs".to_string(),
            "type Seqs = std::collections::HashMap<u64, u64>;\n".to_string(),
        ),
    ];
    assert!(lint_sources(&files).is_empty());
}

// ---- stale waivers ----

#[test]
fn waiver_on_a_deterministic_map_is_stale() {
    // What the two `RankBox` waivers became once the maps were `IdMap`s.
    let src = "pub struct RankBox {\n\
               \x20   // flowslint::allow(migration-image-closure): drained to sorted pairs.\n\
               \x20   pub next_seq: IdMap<u64, u64>,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].rule.is_none(), "meta-finding, not a rule hit");
    assert_eq!(f[0].line, 2, "lands on the waiver itself");
    assert!(f[0].msg.contains("stale waiver"), "{}", f[0].msg);
}

#[test]
fn waiver_is_used_by_a_finding_below_its_field() {
    // The flagged map is one hop below the waived field: the waiver
    // prunes it, so the waiver is live.
    let src = "pub struct RankBox {\n\
               \x20   // flowslint::allow(migration-image-closure): rebuilt on unpack.\n\
               \x20   pub cache: Cache,\n\
               }\n\
               pub struct Cache {\n\
               \x20   pub map: std::collections::HashMap<u64, u64>,\n\
               }\n";
    assert!(lint_at("crates/ampi/src/x.rs", src).is_empty());
}

#[test]
fn pruned_type_is_still_reported_on_an_unwaived_path() {
    // `Cache` hangs off the root twice; waiving one path must not hide
    // the other.
    let src = "pub struct RankBox {\n\
               \x20   // flowslint::allow(migration-image-closure): rebuilt on unpack.\n\
               \x20   pub cache: Cache,\n\
               \x20   pub other: Cache,\n\
               }\n\
               pub struct Cache {\n\
               \x20   pub map: std::collections::HashMap<u64, u64>,\n\
               }\n";
    let f = lint_at("crates/ampi/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::MigrationImageClosure]);
    assert_eq!(f[0].line, 7);
}

#[test]
fn waiver_for_a_line_with_nothing_to_suppress_is_stale() {
    let src = "// flowslint::allow(no-direct-libc): left over from a fork call.\n\
               fn a() {}\n";
    let f = lint_at("crates/mech/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].rule.is_none());
    assert_eq!(f[0].line, 1);
}


// ---- rule 6: atomic-protocol ----

#[test]
fn relaxed_full_publish_fires() {
    // The acceptance-criteria fixture: a FULL-flag publish with Relaxed
    // ordering — the consumer's Acquire cannot synchronize with it.
    let src = "use std::sync::atomic::{AtomicU32, Ordering};\n\
               pub fn send(flag: &AtomicU32) {\n\
               \x20   flag.store(1, Ordering::Relaxed); // flows-atomic: publishes slot-full\n\
               }\n\
               pub fn recv(flag: &AtomicU32) -> bool {\n\
               \x20   flag.load(Ordering::Acquire) == 1 // flows-atomic: consumes slot-full\n\
               }\n";
    let f = lint_at("crates/net/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::AtomicProtocol]);
    assert_eq!(f[0].line, 3);
    assert!(f[0].msg.contains("Release"), "{}", f[0].msg);
}

#[test]
fn release_acquire_pair_is_clean() {
    let src = "use std::sync::atomic::{AtomicU32, Ordering};\n\
               pub fn send(flag: &AtomicU32) {\n\
               \x20   flag.store(1, Ordering::Release); // flows-atomic: publishes slot-full\n\
               }\n\
               pub fn recv(flag: &AtomicU32) -> bool {\n\
               \x20   flag.load(Ordering::Acquire) == 1 // flows-atomic: consumes slot-full\n\
               }\n";
    assert!(lint_at("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn waived_relaxed_site_is_clean_and_still_pairs() {
    // The waiver blesses the ordering; the site still counts for
    // pairing, so the Acquire side must not report an unpaired tag.
    let src = "use std::sync::atomic::{AtomicU32, Ordering};\n\
               pub fn send(flag: &AtomicU32) {\n\
               \x20   // flowslint::allow(atomic-protocol): the counter itself is\n\
               \x20   // the only datum; no side data rides this flag.\n\
               \x20   flag.store(1, Ordering::Relaxed); // flows-atomic: publishes ticks\n\
               }\n\
               pub fn recv(flag: &AtomicU32) -> u32 {\n\
               \x20   flag.load(Ordering::Acquire) // flows-atomic: consumes ticks\n\
               }\n";
    assert!(lint_at("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn unpaired_tags_fire_on_both_sides() {
    let publish_only = "use std::sync::atomic::{AtomicU32, Ordering};\n\
                        pub fn send(flag: &AtomicU32) {\n\
                        \x20   flag.store(1, Ordering::Release); // flows-atomic: publishes orphan\n\
                        }\n";
    let f = lint_at("crates/net/src/x.rs", publish_only);
    assert_eq!(rules_of(&f), vec![Rule::AtomicProtocol]);
    assert!(f[0].msg.contains("no site consumes"), "{}", f[0].msg);

    let consume_only = "use std::sync::atomic::{AtomicU32, Ordering};\n\
                        pub fn recv(flag: &AtomicU32) -> u32 {\n\
                        \x20   flag.load(Ordering::Acquire) // flows-atomic: consumes orphan\n\
                        }\n";
    let f = lint_at("crates/net/src/x.rs", consume_only);
    assert_eq!(rules_of(&f), vec![Rule::AtomicProtocol]);
    assert!(f[0].msg.contains("unpaired acquire"), "{}", f[0].msg);
}

#[test]
fn annotation_covering_no_atomic_op_fires() {
    let src = "pub fn noop(x: u64) -> u64 {\n\
               \x20   x + 1 // flows-atomic: publishes nothing-here\n\
               }\n\
               pub fn peer(flag: &std::sync::atomic::AtomicU32) -> u32 {\n\
               \x20   flag.load(std::sync::atomic::Ordering::Acquire) // flows-atomic: consumes nothing-here\n\
               }\n";
    let f = lint_at("crates/net/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::AtomicProtocol]);
    assert!(f[0].msg.contains("no atomic publish operation"), "{}", f[0].msg);
}

// ---- rule 7: wire-exhaustive ----

#[test]
fn unmatched_const_message_fires() {
    let src = "// flows-wire: defines toy\n\
               pub mod toy {\n\
               \x20   pub const PING: u8 = 1;\n\
               \x20   pub const PONG: u8 = 2;\n\
               }\n\
               // flows-wire: handles toy\n\
               pub fn pump(k: u8) {\n\
               \x20   match k {\n\
               \x20       x if x == toy::PING => {}\n\
               \x20       _ => {}\n\
               \x20   }\n\
               }\n";
    let f = lint_at("crates/net/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::WireExhaustive]);
    assert_eq!(f[0].line, 4, "finding lands on the unmatched message");
    assert!(f[0].msg.contains("PONG"), "{}", f[0].msg);
}

#[test]
fn fully_matched_protocol_is_clean() {
    let src = "// flows-wire: defines toy\n\
               pub mod toy {\n\
               \x20   pub const PING: u8 = 1;\n\
               \x20   pub const PONG: u8 = 2;\n\
               }\n\
               // flows-wire: handles toy\n\
               pub fn pump(k: u8) {\n\
               \x20   if k == toy::PING {\n\
               \x20       return;\n\
               \x20   }\n\
               \x20   match k {\n\
               \x20       x if x == toy::PONG => {}\n\
               \x20       _ => {}\n\
               \x20   }\n\
               }\n";
    assert!(lint_at("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn guarded_arm_counts_as_a_match() {
    let src = "// flows-wire: defines toy\n\
               pub mod toy {\n\
               \x20   pub const PING: u8 = 1;\n\
               }\n\
               // flows-wire: handles toy\n\
               pub fn pump(k: u8, child: bool) {\n\
               \x20   match k {\n\
               \x20       toy::PING if child => {}\n\
               \x20       _ => {}\n\
               \x20   }\n\
               }\n";
    assert!(lint_at("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn waived_message_is_clean() {
    let src = "// flows-wire: defines toy\n\
               pub mod toy {\n\
               \x20   pub const PING: u8 = 1;\n\
               \x20   // flowslint::allow(wire-exhaustive): send-only probe tag,\n\
               \x20   // answered by the peer's PING.\n\
               \x20   pub const PONG: u8 = 2;\n\
               }\n\
               // flows-wire: handles toy\n\
               pub fn pump(k: u8) {\n\
               \x20   if k == toy::PING {}\n\
               }\n";
    assert!(lint_at("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn enum_variant_protocol_is_checked() {
    let clean = "// flows-wire: defines ev\n\
                 pub enum Ev {\n\
                 \x20   Ping,\n\
                 \x20   Pong,\n\
                 }\n\
                 // flows-wire: handles ev\n\
                 pub fn pump(e: Ev) {\n\
                 \x20   match e {\n\
                 \x20       Ev::Ping => {}\n\
                 \x20       Ev::Pong => {}\n\
                 \x20   }\n\
                 }\n";
    assert!(lint_at("crates/net/src/x.rs", clean).is_empty());

    let missing = "// flows-wire: defines ev\n\
                   pub enum Ev {\n\
                   \x20   Ping,\n\
                   \x20   Pong,\n\
                   }\n\
                   // flows-wire: handles ev\n\
                   pub fn pump(e: Ev) {\n\
                   \x20   match e {\n\
                   \x20       Ev::Ping => {}\n\
                   \x20       _ => {}\n\
                   \x20   }\n\
                   }\n";
    let f = lint_at("crates/net/src/x.rs", missing);
    assert_eq!(rules_of(&f), vec![Rule::WireExhaustive]);
    assert!(f[0].msg.contains("Pong"), "{}", f[0].msg);
}

#[test]
fn protocol_without_any_handler_fires() {
    let src = "// flows-wire: defines toy\n\
               pub mod toy {\n\
               \x20   pub const PING: u8 = 1;\n\
               }\n";
    let f = lint_at("crates/net/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::WireExhaustive]);
    assert!(f[0].msg.contains("no fn is annotated"), "{}", f[0].msg);
}

#[test]
fn handler_for_unknown_protocol_fires() {
    let src = "// flows-wire: handles ghost\n\
               pub fn pump(k: u8) {\n\
               \x20   let _ = k;\n\
               }\n";
    let f = lint_at("crates/net/src/x.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::WireExhaustive]);
    assert!(f[0].msg.contains("unknown protocol"), "{}", f[0].msg);
}

// ---- cross-file: the graph spans the whole scan set ----

#[test]
fn protocol_defined_and_handled_in_different_files() {
    let defs = "// flows-wire: defines xf\n\
                pub mod xf {\n\
                \x20   pub const A: u8 = 1;\n\
                }\n";
    let handler = "// flows-wire: handles xf\n\
                   pub fn pump(k: u8) {\n\
                   \x20   if k == crate::xf::A {}\n\
                   }\n";
    let f = lint_sources(&[
        ("crates/net/src/proto.rs".to_string(), defs.to_string()),
        ("crates/net/src/pump.rs".to_string(), handler.to_string()),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

// ---- coverage pins: the files the v2 rules exist for stay in scope ----

#[test]
fn annotated_hotspots_stay_annotated() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root two levels up");
    for (file, needle) in [
        ("crates/net/src/shm.rs", "flows-atomic: publishes shm-slot-full"),
        ("crates/net/src/shm.rs", "flows-atomic: consumes shm-slot-full"),
        ("crates/core/src/steal.rs", "flows-atomic: publishes steal-inbox"),
        ("crates/core/src/steal.rs", "flows-atomic: consumes steal-inbox"),
        ("crates/converse/src/netpump.rs", "flows-wire: defines net-ctrl"),
        ("crates/converse/src/netpump.rs", "flows-wire: handles net-ctrl"),
        ("crates/ampi/src/proto.rs", "flows-wire: defines ampi-ctl"),
        ("crates/ampi/src/recover.rs", "flows-wire: handles ampi-ctl"),
        ("crates/core/src/migrate.rs", "flows-image: root"),
        ("crates/ampi/src/proto.rs", "flows-image: root"),
        ("crates/ampi/src/proto.rs", "flows-image: root\n#[derive(Debug, Default, Clone, PartialEq)]\npub struct MoveRec"),
    ] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} left the tree: {e}"));
        assert!(
            text.contains(needle),
            "{file} lost its `{needle}` annotation — the concurrency-protocol \
             coverage this lint exists for would silently vanish"
        );
    }
}

#[test]
fn hotspot_files_lint_clean_in_isolation() {
    // The files the v2 rules were built for (slot ring, steal mesh,
    // deferred reclaim) must stay in the scan set and individually
    // clean — a rename or an unwaived regression here fails loudly.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root two levels up");
    for file in [
        "crates/net/src/shm.rs",
        "crates/core/src/steal.rs",
        "crates/mem/src/reclaim.rs",
    ] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} left the tree — update this pin: {e}"));
        // Cross-file pairings (wire handlers, atomic peers) live in
        // other files, so only closure/per-file correctness is checked
        // here; full-workspace cleanliness is asserted separately.
        let f = lint_sources(&[(file.to_string(), text)])
            .into_iter()
            .filter(|f| f.rule == Some(Rule::MigrationImageClosure))
            .collect::<Vec<_>>();
        assert!(f.is_empty(), "{file} has unwaived closure findings: {f:?}");
    }
}
