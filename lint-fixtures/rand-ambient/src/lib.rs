//! Signature-only stand-ins for rand's ambient-entropy entry points. The
//! bodies return constants: the D003 fixture is linted, never run.

/// rand's per-thread generator, seeded from the OS.
pub struct ThreadRng;

/// `rand::thread_rng`.
pub fn thread_rng() -> ThreadRng {
    ThreadRng
}

/// `rand::random`.
pub fn random<T: Default>() -> T {
    T::default()
}

/// rand's seedable-generator trait.
pub trait SeedableRng: Sized {
    /// `SeedableRng::from_entropy`: seed from the OS.
    fn from_entropy() -> Self;
}

/// rand's generators.
pub mod rngs {
    /// rand's standard generator.
    pub struct StdRng;

    impl crate::SeedableRng for StdRng {
        fn from_entropy() -> StdRng {
            StdRng
        }
    }
}
