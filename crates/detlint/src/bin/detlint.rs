//! `detlint` — run the workspace determinism-and-invariant linter.
//!
//! ```text
//! detlint --workspace [--self-check] [--root DIR]
//! detlint PATH [PATH...]          # lint specific files (workspace-relative)
//! detlint --list-rules
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use mosaic_detlint::rules;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: detlint [--workspace] [--self-check] [--root DIR] [PATH...]\n       \
         detlint --list-rules\n\n  \
         --workspace    lint every workspace source (crates/, xtests/, examples/, tests/)\n  \
         --self-check   also fail on directives that no longer suppress anything\n  \
         --root DIR     workspace root (default: current directory)\n  \
         --list-rules   print the rule catalog and exit\n  \
         PATH           lint specific files, given workspace-relative"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut self_check = false;
    let mut root = PathBuf::from(".");
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--self-check" => self_check = true,
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => usage(),
            },
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{}  {:24} {}", r.code, r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => paths.push(other.to_string()),
        }
    }
    if !workspace && paths.is_empty() {
        usage();
    }

    let report = if workspace {
        mosaic_detlint::scan_workspace(&root, self_check)
    } else {
        mosaic_detlint::scan_files(&root, &paths, self_check)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "detlint: {} file(s), {} finding(s), {} suppressed by directives{}",
        report.files,
        report.findings.len(),
        report.suppressed,
        if self_check { " (self-check on)" } else { "" }
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
