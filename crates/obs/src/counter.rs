//! Named monotonic counters with a process-global registry, for the
//! long tail of "how often did this happen" observability (corrupt
//! wisdom lines, backpressure rejections, cache misses) that doesn't
//! warrant a histogram.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic event counter. Cheap to clone (`Arc` inside via
/// [`counter`]); `add`/`incr` are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter (unregistered — use [`counter`] for the
    /// named global registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Arc<Counter>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<Counter>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The process-global counter named `name`, created on first use.
/// Dotted lowercase names by convention (`wisdom.corrupt_lines`).
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().lock().expect("counter registry poisoned");
    Arc::clone(map.entry(name.to_string()).or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_named_and_shared() {
        let a = counter("test.counter_mod.alpha");
        a.incr();
        a.add(4);
        // Same name resolves to the same counter.
        assert_eq!(counter("test.counter_mod.alpha").get(), 5);
        assert_eq!(counter("test.counter_mod.beta").get(), 0);
    }
}
