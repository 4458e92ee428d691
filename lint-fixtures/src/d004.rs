//! D004: OS threads and locks are disallowed (`clippy::disallowed_methods`
//! and `clippy::disallowed_types`): their interleavings escape the virtual
//! clock.
use std::sync::Mutex;
use std::sync::RwLock;

pub fn spawn_worker() {
    let shared = Mutex::new(0u32);
    let lock = RwLock::new(Vec::<u8>::new());
    let handle = std::thread::spawn(move || {
        let _guard = shared.lock();
    });
    let _ = (lock, handle);
}
