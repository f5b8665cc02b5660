//! `flowslint` — run the flows-check rules over the workspace.
//!
//! ```text
//! flowslint [--root DIR] [--list-rules] [--help]
//! ```
//!
//! Prints one `file:line: [rule] message` line per finding on stdout and
//! a summary on stderr. Exits 0 when clean, 1 on findings, 2 on
//! usage/IO errors. With no `--root` the workspace is found by walking
//! up from the current directory to the first `Cargo.toml` containing
//! `[workspace]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

const USAGE: &str = "usage: flowslint [--root DIR] [--list-rules] [--help]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("flowslint: --root needs a value");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in flows_check::Rule::ALL {
                    println!("{:24} {}", r.id(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("flowslint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("flowslint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };
    let (findings, scanned) = match flows_check::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flowslint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    eprintln!(
        "flowslint: {} finding(s) in {} files ({} rules)",
        findings.len(),
        scanned,
        flows_check::Rule::ALL.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
