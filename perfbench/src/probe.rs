//! A fixed host-speed probe, so host-time metrics can be read at one
//! reference speed of a shared host.
//!
//! Other tenants of a shared machine slow a whole run down for minutes
//! at a time, by a share that varies from run to run. The probe is a
//! fixed piece of the benchmark's own code (string formatting, hashing,
//! sorting and parsing through the standard library, a few kilobytes of
//! working set), timed between the measured chunks of a run. It does not
//! change when the program under test changes, so the ratio of its time
//! to [`REFERENCE_NS`] says how slow the host is at that moment, and the
//! host time measured until the next probe is divided by it.
//!
//! The probe runs straight after a chunk, with the caches as the program
//! left them, so it also feels contention for the memory system. The
//! price: a change that shrinks or grows the program's working set moves
//! the probe a little too (a few percent between a 16 MiB and a 145 MiB
//! workload). Every run prints its raw host rate beside the normalized
//! one.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's host time on an idle host (two-core x86-64 VM), in ns.
pub const REFERENCE_NS: f64 = 400_000.0;

/// The probe's state: an xorshift generator, so every pass does the
/// same kind of work on different values.
pub struct Probe {
    x: u64,
}

impl Probe {
    /// A probe seeded with a fixed value.
    pub fn new() -> Probe {
        Probe {
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// How much slower than the reference the host runs now: the median
    /// time of `passes` passes over [`REFERENCE_NS`].
    pub fn slowdown(&mut self, passes: usize) -> f64 {
        let mut times: Vec<u64> = (0..passes).map(|_| self.run()).collect();
        times.sort_unstable();
        times[passes / 2] as f64 / REFERENCE_NS
    }

    /// Runs one pass and returns its host time in ns.
    fn run(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut map: HashMap<String, Vec<String>> = HashMap::new();
        for i in 0..400u64 {
            let r = self.next();
            let entries = map.entry(format!("svc-{}-{}", r % 97, i % 13)).or_default();
            entries.push(format!("{:.3}", (r % 10_000) as f64 / 7.0));
            if entries.len() > 3 {
                entries.sort();
                let sum: f64 = entries
                    .iter()
                    .map(|s| s.parse::<f64>().unwrap_or(0.0))
                    .sum();
                entries.truncate(1);
                entries.push(sum.to_string());
            }
        }
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        let joined = keys
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(",");
        black_box(joined.len());
        t0.elapsed().as_nanos() as u64
    }
}
