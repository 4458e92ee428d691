//! Where the workspace lint rules live and what proves each one fires: the
//! rule → fixture → lint table, and the crates each scoped rule binds. The
//! scopes themselves are declared at the crate roots; the tests below keep
//! this table and those declarations in step.

use std::path::{Path, PathBuf};

/// A workspace rule and the fixture that proves it still fires.
pub struct Rule {
    /// The rule's code in the README's "Static analysis" table.
    pub code: &'static str,
    /// The feature of this package that builds the rule's fixture module.
    pub feature: &'static str,
    /// Lints clippy must report when it rejects that fixture.
    pub lints: &'static [&'static str],
}

/// Every rule with a fixture. C001 is a `compile_fail` doctest on
/// `netstack::tcp::SeqNum` and A001 is `tests/frame_path.rs`, so neither
/// has a feature here.
pub const RULES: &[Rule] = &[
    rule("D001", "d001", &["clippy::disallowed_types"]),
    rule(
        "D002",
        "d002",
        &["clippy::disallowed_methods", "clippy::disallowed_types"],
    ),
    rule("D003", "d003", &["clippy::disallowed_methods"]),
    rule(
        "D004",
        "d004",
        &["clippy::disallowed_methods", "clippy::disallowed_types"],
    ),
    rule("H001", "h001", &["unsafe_code"]),
    rule("N001", "n001", &["clippy::cast_possible_truncation"]),
    rule(
        "P001",
        "p001",
        &[
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
        ],
    ),
    rule(
        "R001",
        "r001",
        &["clippy::let_underscore_must_use", "unused_must_use"],
    ),
    rule(
        "W001",
        "waiver_missing_reason",
        &[
            "clippy::allow_attributes_without_reason",
            "clippy::allow_attributes",
        ],
    ),
    rule("W002", "waiver_unknown_lint", &["unknown_lints"]),
    rule("W003", "waiver_unused", &["unfulfilled_lint_expectations"]),
];

const fn rule(code: &'static str, feature: &'static str, lints: &'static [&'static str]) -> Rule {
    Rule {
        code,
        feature,
        lints,
    }
}

/// The sim-logic crates (directories under `crates/`), whose roots deny
/// [`SIM_LOGIC_LINTS`] (P001 and R001).
pub const SIM_LOGIC_CRATES: [&str; 7] = [
    "conduit",
    "jitsu",
    "netstack",
    "sim",
    "unikernel",
    "xen-sim",
    "xenstore",
];
pub const SIM_LOGIC_LINTS: [&str; 4] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::let_underscore_must_use",
];

/// The wire-format crates, whose roots also deny [`WIRE_LINT`] (N001).
pub const WIRE_CRATES: [&str; 3] = ["conduit", "netstack", "xenstore"];
pub const WIRE_LINT: &str = "clippy::cast_possible_truncation";

/// The crates the retired frame-copy rule (A001) scanned; the
/// `shares_allocation` checks in `tests/frame_path.rs` now cover them.
pub const FRAME_PATH_CRATES: [&str; 4] = ["netstack", "conduit", "unikernel", "jitsu"];

/// The one directory whose files may waive the wall-clock rule (D002).
pub const WALL_CLOCK_SANCTUARY: &str = "src/bin";

/// The workspace root.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::rust_sources;
    use std::fs;

    fn read(rel: &str) -> String {
        fs::read_to_string(workspace_root().join(rel)).unwrap()
    }

    /// The lints a crate root denies in its `#![deny(...)]`.
    fn root_denies(krate: &str) -> Vec<String> {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        let Some(start) = lib.find("#![deny(") else {
            return Vec::new();
        };
        let list = &lib[start + "#![deny(".len()..];
        let list = &list[..list.find(")]").unwrap()];
        list.split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect()
    }

    fn crate_dirs() -> Vec<String> {
        let mut dirs: Vec<String> = fs::read_dir(workspace_root().join("crates"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        dirs.sort();
        dirs
    }

    #[test]
    fn defaults_cover_the_sim_facing_crates() {
        for krate in SIM_LOGIC_CRATES {
            let denies = root_denies(krate);
            for lint in SIM_LOGIC_LINTS {
                assert!(
                    denies.iter().any(|d| d == lint),
                    "crates/{krate} does not deny {lint}"
                );
            }
        }
    }

    #[test]
    fn frame_path_and_cast_scopes_are_narrower_than_core() {
        for krate in WIRE_CRATES.iter().chain(&FRAME_PATH_CRATES) {
            assert!(
                SIM_LOGIC_CRATES.contains(krate),
                "{krate} is outside the core scope"
            );
        }
        assert!(WIRE_CRATES.len() < SIM_LOGIC_CRATES.len());
        for krate in crate_dirs() {
            let denies_casts = root_denies(&krate).iter().any(|d| d == WIRE_LINT);
            assert_eq!(
                denies_casts,
                WIRE_CRATES.contains(&krate.as_str()),
                "crates/{krate}"
            );
        }
        let frame_path = read("tests/frame_path.rs");
        for krate in FRAME_PATH_CRATES {
            let module = if krate == "jitsu" { "Synjitsu" } else { krate };
            assert!(
                frame_path.contains(module),
                "tests/frame_path.rs never reaches {krate}"
            );
        }
    }

    #[test]
    fn rule_codes_are_known() {
        let manifest = read("lint-fixtures/Cargo.toml");
        let features = &manifest[manifest.find("[features]").unwrap()..];
        let features = &features[..features.find("\n\n").unwrap()];
        let declared = features
            .lines()
            .filter_map(|l| l.split_once(" = "))
            .map(|(f, _)| f);
        assert!(
            declared.eq(RULES.iter().map(|r| r.feature)),
            "features and RULES differ"
        );
        for (i, rule) in RULES.iter().enumerate() {
            let (letter, digits) = rule.code.split_at(1);
            assert!(
                "DHNPRW".contains(letter) && digits.len() == 3,
                "{}",
                rule.code
            );
            assert!(
                RULES[..i].iter().all(|r| r.code != rule.code),
                "{} twice",
                rule.code
            );
            let module = workspace_root().join(format!("lint-fixtures/src/{}.rs", rule.feature));
            assert!(module.is_file(), "no fixture module for {}", rule.code);
            for lint in rule.lints {
                let name = lint.strip_prefix("clippy::").unwrap_or(lint);
                assert!(
                    name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                    "{lint}"
                );
            }
        }
    }

    #[test]
    fn wall_clock_sanctuary_is_exactly_the_root_bin_dir() {
        let waivers: Vec<PathBuf> = rust_sources()
            .unwrap()
            .into_iter()
            .filter(|f| !f.starts_with("lint-fixtures"))
            .filter(|f| read(f.to_str().unwrap()).contains("clippy::disallowed_"))
            .collect();
        assert!(
            !waivers.is_empty(),
            "the bench harness must be able to read the host clock"
        );
        for file in waivers {
            assert_eq!(
                file.parent(),
                Some(Path::new(WALL_CLOCK_SANCTUARY)),
                "{}",
                file.display()
            );
        }
    }
}
