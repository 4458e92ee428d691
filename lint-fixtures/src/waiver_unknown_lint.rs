//! W002: waiving a lint that does not exist is an error (`unknown_lints`).
pub fn f() -> u32 {
    #[expect(clippy::no_such_lint, reason = "this lint does not exist")]
    let v = 42;
    v
}
