//! D001: hash collections iterate in a per-process random order, so the
//! types themselves are disallowed (`clippy::disallowed_types`) — in field
//! types, let bindings, set loops and test modules alike. Ordered
//! collections stay legal.
use std::collections::{BTreeMap, HashMap, HashSet};

pub struct Stats {
    pub table: HashMap<String, u32>,
    pub ordered: BTreeMap<String, u32>,
}

impl Stats {
    pub fn sum(&self) -> u32 {
        self.table.values().sum()
    }

    pub fn ordered_sum(&self) -> u32 {
        self.ordered.values().sum()
    }
}

pub fn loops() {
    let mut set = HashSet::new();
    set.insert(1u32);
    for x in &set {
        let _ = x;
    }
    let m: HashMap<u32, u32> = HashMap::new();
    for (k, v) in m.iter() {
        let _ = (k, v);
    }
    let lookup_only: HashMap<u32, u32> = HashMap::new();
    let _ = lookup_only.get(&1);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_insensitive_assertion() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(m.values().count(), 0);
    }
}
