//! Each workspace lint rule still rejects its fixture. Clippy runs once per
//! fixture feature, under the same root `[workspace.lints]` and
//! `clippy.toml` the crates use, in a target directory of its own.

use lint_fixtures::config::{workspace_root, RULES, SIM_LOGIC_LINTS, WIRE_LINT};
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// Whether clippy accepted the package, and its JSON diagnostics.
fn clippy(features: &str) -> (bool, String) {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(workspace_root())
        .args([
            "clippy",
            "--quiet",
            "--offline",
            "-p",
            "lint-fixtures",
            "--all-targets",
        ])
        .args([
            "--message-format=json",
            "--features",
            features,
            "--target-dir",
        ])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo clippy runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Clippy's verdict on each rule's fixture, in `RULES` order.
fn verdicts() -> &'static [(bool, String)] {
    static VERDICTS: OnceLock<Vec<(bool, String)>> = OnceLock::new();
    VERDICTS.get_or_init(|| RULES.iter().map(|r| clippy(r.feature)).collect())
}

fn reports(json: &str, lint: &str) -> bool {
    json.contains(&format!("\"code\":\"{lint}\""))
}

#[test]
fn fixtures_match_expected_diagnostics() {
    for (rule, (passed, json)) in RULES.iter().zip(verdicts()) {
        assert!(
            !passed,
            "{}: clippy accepted the {} fixture",
            rule.code, rule.feature
        );
        for lint in rule.lints {
            assert!(
                reports(json, lint),
                "{}: clippy failed without reporting {lint}",
                rule.code
            );
        }
    }
}

/// Every lint the workspace denies — in `[workspace.lints]` or in a
/// crate-root scope — is proven by some fixture.
#[test]
fn every_rule_fires_somewhere_in_the_fixture_suite() {
    let manifest = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let mut denied: Vec<String> = SIM_LOGIC_LINTS
        .iter()
        .chain([&WIRE_LINT])
        .map(|l| l.to_string())
        .collect();
    let mut prefix = None;
    for line in manifest.lines() {
        if line.starts_with('[') {
            prefix = line
                .strip_prefix("[workspace.lints.")
                .map(|t| t.trim_end_matches(']'));
        } else if let (Some(tool), Some((lint, level))) = (prefix, line.split_once(" = ")) {
            if level == "\"deny\"" || level == "\"forbid\"" {
                denied.push(if tool == "rust" {
                    lint.to_string()
                } else {
                    format!("{tool}::{lint}")
                });
            }
        }
    }
    assert!(
        denied.len() > SIM_LOGIC_LINTS.len() + 1,
        "no [workspace.lints] entry was read"
    );
    for lint in denied {
        assert!(
            verdicts().iter().any(|(_, json)| reports(json, &lint)),
            "no fixture proves {lint}"
        );
    }
}

/// With no feature only `waiver_ok` is built: correctly waived code passes.
#[test]
fn waived_fixture_is_clean() {
    let (passed, json) = clippy("");
    assert!(passed, "clippy rejected correctly waived code:\n{json}");
}

/// A crate root is compliant with the safety rules (H001 and the rest)
/// by inheriting `[workspace.lints]`, so every member's manifest must opt in.
#[test]
fn compliant_crate_root_is_clean() {
    let root = workspace_root();
    let mut manifests = vec![
        root.join("Cargo.toml"),
        root.join("lint-fixtures/Cargo.toml"),
    ];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            manifests.push(entry.unwrap().path().join("Cargo.toml"));
        }
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            manifest.display()
        );
    }
}
