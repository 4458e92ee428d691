//! W001: a waiver without a reason is itself an error
//! (`clippy::allow_attributes_without_reason`), and so is a bare `#[allow]`
//! (`clippy::allow_attributes`), which could never report going stale.
pub fn f(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used)]
    let a = x.unwrap();
    #[allow(clippy::unwrap_used, reason = "an allow, not an expect")]
    let b = x.unwrap();
    a + b
}
