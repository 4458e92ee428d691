//! Correctly waived violations pass: one reasoned `#[expect]` per
//! statement, stacked on a statement that needs two.
pub fn waived(x: Option<u32>) -> u32 {
    #[expect(clippy::disallowed_types, reason = "counting is order-insensitive")]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an in-memory map holds far fewer than 2^32 entries"
    )]
    let n = std::collections::HashMap::<u32, u32>::new().len() as u32;
    #[expect(clippy::unwrap_used, reason = "caller guarantees Some")]
    let v = x.unwrap();
    let m = std::collections::BTreeMap::from([(1u32, 2u32)]);
    #[expect(
        clippy::unwrap_used,
        reason = "the map was built non-empty on the line above"
    )]
    let k = m.keys().next().copied().unwrap_or(0) + m.values().next().copied().unwrap();
    n + v + k
}
