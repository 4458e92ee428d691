//! R001: discarded `Result` values — `let _ =` bindings
//! (`clippy::let_underscore_must_use`) and bare semicolon statements
//! (rustc's `unused_must_use`). Non-Result discards and named bindings are
//! fine, and a reasoned `#[expect]` waives a discard.

pub fn might_fail(x: u32) -> Result<u32, String> {
    if x == 0 {
        Err("zero".to_string())
    } else {
        Ok(x)
    }
}

pub fn infallible(x: u32) -> u32 {
    x.wrapping_add(1)
}

pub fn discards() -> u32 {
    let _ = might_fail(1);
    might_fail(2);
    let kept = might_fail(3);
    let _ = infallible(4);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fixture: this discard is intentional"
    )]
    let _ = might_fail(5);
    kept.unwrap_or(0)
}
