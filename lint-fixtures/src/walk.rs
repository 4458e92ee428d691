//! The workspace members' Rust sources, less build output and the rule
//! fixture modules, which exist to break the rules.

use crate::config::{workspace_root, RULES};
use std::path::PathBuf;
use std::{fs, io};

/// The directories holding the workspace members' Rust sources.
pub const SOURCE_DIRS: [&str; 6] = [
    "src",
    "tests",
    "examples",
    "crates",
    "vendor",
    "lint-fixtures",
];

/// Every `.rs` file under [`SOURCE_DIRS`] but those in `target`
/// directories and the feature-gated fixture modules, as paths relative
/// to the workspace root, in sorted order.
pub fn rust_sources() -> io::Result<Vec<PathBuf>> {
    let root = workspace_root();
    let fixtures: Vec<PathBuf> = RULES
        .iter()
        .map(|r| PathBuf::from(format!("lint-fixtures/src/{}.rs", r.feature)))
        .collect();
    let mut pending: Vec<PathBuf> = SOURCE_DIRS.iter().map(PathBuf::from).collect();
    let mut files = Vec::new();
    while let Some(dir) = pending.pop() {
        for entry in fs::read_dir(root.join(&dir))? {
            let entry = entry?;
            let rel = dir.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                if entry.file_name() != "target" {
                    pending.push(rel);
                }
            } else if rel.extension().is_some_and(|e| e == "rs") && !fixtures.contains(&rel) {
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn walk_finds_this_crate_and_skips_fixtures() {
        let files = rust_sources().unwrap();
        for found in [
            "lint-fixtures/src/walk.rs",
            "lint-fixtures/src/waiver_ok.rs",
            "src/lib.rs",
        ] {
            assert!(
                files.iter().any(|f| f == Path::new(found)),
                "{found} not found"
            );
        }
        assert!(files
            .iter()
            .any(|f| f.starts_with("crates/netstack/src/tcp")));
        for rule in RULES {
            assert!(
                files
                    .iter()
                    .all(|f| !f.ends_with(format!("{}.rs", rule.feature))),
                "{}",
                rule.code
            );
        }
        assert!(files
            .iter()
            .all(|f| f.components().all(|c| c.as_os_str() != "target")));
        assert!(files.windows(2).all(|w| w[0] < w[1]));
    }
}
