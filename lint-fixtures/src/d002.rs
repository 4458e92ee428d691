//! D002: wall-clock time is disallowed (`clippy::disallowed_methods` and
//! `clippy::disallowed_types`) — imports, expressions, even test modules.
use std::time::Instant;

pub fn elapsed_ms() -> u128 {
    let start = Instant::now();
    start.elapsed().as_millis()
}

pub fn since_epoch() -> u64 {
    let now = std::time::SystemTime::now();
    let _ = now;
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_still_wall_clock() {
        let _ = std::time::Instant::now();
    }
}
