//! The `flowslint` binary's contract: text findings on stdout and exit
//! 0 (clean), 1 (findings) or 2 (usage error), run with `--root` on a
//! scratch tree under the temp dir.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A scratch source tree, removed when dropped (a failed test too).
struct Tree(PathBuf);

impl Tree {
    /// A tree that lints clean: it defines the fixed migration-image
    /// roots, which a whole-tree run requires.
    fn new(name: &str) -> Tree {
        let root =
            std::env::temp_dir().join(format!("flowslint-cli-{}-{name}", std::process::id()));
        let tree = Tree(root);
        tree.write(
            "crates/core/src/lib.rs",
            "pub struct Tcb {\n    id: u64,\n}\npub struct RankBox {\n    n: u64,\n}\n",
        );
        tree
    }

    fn write(&self, rel: &str, src: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }

    fn flowslint(&self, args: &[&str]) -> Output {
        run(&[&["--root", self.0.to_str().unwrap()], args].concat())
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    std::process::Command::new(Path::new(env!("CARGO_BIN_EXE_flowslint")))
        .args(args)
        .output()
        .expect("run flowslint")
}

#[test]
fn clean_tree_exits_0() {
    let tree = Tree::new("clean");
    let out = tree.flowslint(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn planted_static_mut_exits_1_with_its_finding() {
    let tree = Tree::new("static-mut");
    tree.write("crates/core/src/x.rs", "static mut COUNTER: u64 = 0;\n");
    let out = tree.flowslint(&[]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("crates/core/src/x.rs:1: [no-global-state] "),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn unknown_argument_exits_2() {
    let tree = Tree::new("unknown-arg");
    let out = tree.flowslint(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--format`"));
}
