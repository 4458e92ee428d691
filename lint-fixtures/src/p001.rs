//! P001: `unwrap`/`expect`/`panic!` in non-test code (`clippy::unwrap_used`,
//! `clippy::expect_used`, `clippy::panic`); clippy.toml's
//! `allow-*-in-tests` keeps `#[cfg(test)]` modules quiet.
pub fn risky(x: Option<u32>, y: Result<u32, String>) -> u32 {
    let a = x.unwrap();
    let b = y.expect("y is always Ok here");
    if a + b > 100 {
        panic!("overflow of the made-up budget");
    }
    // Non-panicking escape hatches are fine without waivers.
    let c = x.unwrap_or(0);
    a + b + c
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let two: u32 = "2".parse().unwrap();
        assert_eq!(super::risky(Some(1), Ok(two)), 4);
    }
}
