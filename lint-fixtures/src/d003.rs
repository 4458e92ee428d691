//! D003: every ambient-entropy entry point of the rand API is disallowed
//! (`clippy::disallowed_methods`).
use rand::SeedableRng;

pub fn ambient() -> u64 {
    let rng = rand::thread_rng();
    let seeded_from_os = rand::rngs::StdRng::from_entropy();
    let _ = (rng, seeded_from_os);
    rand::random()
}
