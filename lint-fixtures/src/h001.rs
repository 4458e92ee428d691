//! H001: `unsafe` code is forbidden in every crate (`unsafe_code`, set to
//! `forbid` in `[workspace.lints.rust]`), so no crate root can opt back in.

pub fn read_through_a_raw_pointer(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p }
}
