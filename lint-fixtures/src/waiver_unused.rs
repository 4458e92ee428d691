//! W003: a waiver that waives nothing is an error
//! (`unfulfilled_lint_expectations`), so stale waivers surface when the
//! violation they covered goes away.
pub fn f() -> u32 {
    #[expect(clippy::unwrap_used, reason = "this line no longer unwraps anything")]
    let v = 41 + 1;
    v
}
