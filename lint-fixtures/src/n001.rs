//! N001: unchecked narrowing `as` casts in wire-format code
//! (`clippy::cast_possible_truncation`). Widening and same-width casts are
//! fine.

pub fn narrows(len: usize, port: u32, stamp: u64) -> (u16, u8, u16) {
    let l = len as u16;
    let p = port as u8;
    let s = stamp as u16;
    (l, p, s)
}

pub fn widens(x: u16) -> u64 {
    let a = x as u32;
    (a as u64) + 1
}
