//! The workspace itself passes every lint rule, and every waiver in it
//! says why.

use lint_fixtures::config::workspace_root;
use lint_fixtures::walk::rust_sources;
use std::path::Path;
use std::process::Command;

/// The CI lint step: clippy over the whole workspace, warnings denied.
#[test]
fn workspace_has_no_diagnostics() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(workspace_root())
        .args([
            "clippy",
            "--quiet",
            "--offline",
            "--workspace",
            "--all-targets",
        ])
        .args([
            "--exclude",
            "lint-fixtures",
            "--message-format=short",
            "--target-dir",
        ])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `clippy::allow_attributes_without_reason` accepts `reason = ""`, so this
/// checks that each `#[expect]` in the tree has a non-empty reason.
#[test]
fn every_waiver_in_the_tree_documents_its_reason() {
    let mut bad = Vec::new();
    for file in rust_sources().unwrap() {
        let text = std::fs::read_to_string(workspace_root().join(&file)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let line = line.trim_start();
            if !(line.starts_with("#[expect(") || line.starts_with("#![expect(")) {
                continue;
            }
            // The attribute runs to the first line that closes it.
            let end = (i..lines.len())
                .find(|&j| lines[j].trim_end().ends_with(")]"))
                .unwrap_or(i);
            let attribute = lines[i..=end].join("\n");
            let reason = attribute.split_once("reason = \"").map(|(_, r)| r);
            if reason.is_none_or(|r| r.starts_with('"')) {
                bad.push(format!("{}:{}", file.display(), i + 1));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "waivers without a reason:\n{}",
        bad.join("\n")
    );
}
