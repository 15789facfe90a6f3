//! Pins the paper reproduction: exports the simulated results of E1
//! (Figure 10), E2 (§5.2), E3 (Figure 11) and E5 (QoS ablation) as one
//! deterministic JSON document, and checks the paper's bands.
//!
//! Usage:
//!
//! ```text
//! fidelity_export [--out FILE]
//! ```
//!
//! With no flags, writes `artifacts/paper_fidelity.json` relative to
//! the current directory. Every number is simulated (virtual time, byte
//! and message counts); nothing is read from the host clock, so two
//! runs produce byte-identical files and the checked-in copy is a pin
//! any change to the simulated behaviour must regenerate on purpose.
//!
//! The run exits non-zero when a band is missed:
//!
//! * each E3 row within ±10% of the paper's Figure 11 value
//!   (7.9 / 6.2 / 3.2 / 2.9 Mbps);
//! * E2's uMiddle share of the UPnP SetPower latency between 3% and 7%
//!   (the paper's ~10 ms of ~160 ms, about 5%).

use std::fmt::Write as _;

use bench::experiments::{e1_service_level, e2_device_level, e3_transport_level, e5_ablation_qos};

/// E1 repetitions and E3 measurement window: the same as the
/// `experiments` harness, so the pinned numbers are the printed tables.
const E1_REPETITIONS: usize = 5;
const E3_MEASURE_SECS: u64 = 30;

/// Allowed relative deviation of an E3 row from the paper.
const E3_BAND: f64 = 0.10;
/// Allowed range of E2's uMiddle share of the SetPower latency.
const E2_SHARE_BAND: (f64, f64) = (0.03, 0.07);

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "artifacts/paper_fidelity.json".to_owned();
    let mut i = 0;
    while i < raw.len() {
        match (raw[i].as_str(), raw.get(i + 1)) {
            ("--out", Some(path)) => {
                out = path.clone();
                i += 2;
            }
            (other, _) => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fidelity_export [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let e1 = e1_service_level(E1_REPETITIONS);
    let e2 = e2_device_level();
    let e3 = e3_transport_level(E3_MEASURE_SECS);
    let e5 = e5_ablation_qos();

    let mut j = String::new();
    j.push_str("{\n  \"name\": \"paper_fidelity\",\n");
    j.push_str(
        "  \"units\": \"durations: simulated ns; rates: per simulated second; \
         throughput: Mbps of simulated goodput; counts: messages or bytes\",\n",
    );
    let _ = writeln!(
        j,
        "  \"e1\": {{\"repetitions\": {E1_REPETITIONS}, \"rows\": ["
    );
    for (k, r) in e1.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"device\": {:?}, \"mean_time_ns\": {}, \"rate_per_s\": {:.6}, \
             \"paper_rate_per_s\": {:.1}, \"samples\": {}}}{}",
            r.device,
            r.mean_time.as_nanos(),
            r.rate_per_sec,
            r.paper_rate,
            r.samples,
            comma(k, e1.len())
        );
    }
    j.push_str("  ]},\n");
    let share = e2.upnp_umiddle_share.as_nanos() as f64 / e2.upnp_total.as_nanos() as f64;
    let _ = writeln!(
        j,
        "  \"e2\": {{\"upnp_total_ns\": {}, \"upnp_umiddle_share_ns\": {}, \
         \"upnp_umiddle_share\": {share:.6}, \"upnp_samples\": {}, \
         \"mouse_translation_ns\": {}, \"mouse_samples\": {}}},",
        e2.upnp_total.as_nanos(),
        e2.upnp_umiddle_share.as_nanos(),
        e2.upnp_samples,
        e2.mouse_translation.as_nanos(),
        e2.mouse_samples
    );
    let _ = writeln!(
        j,
        "  \"e3\": {{\"measure_s\": {E3_MEASURE_SECS}, \"rows\": ["
    );
    for (k, r) in e3.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"test\": {:?}, \"mbps\": {:.6}, \"paper_mbps\": {:.1}, \"observed\": {}}}{}",
            r.test,
            r.mbps,
            r.paper_mbps,
            r.observed,
            comma(k, e3.len())
        );
    }
    j.push_str("  ]},\n");
    j.push_str("  \"e5\": {\"rows\": [\n");
    for (k, r) in e5.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"policy\": {:?}, \"delivered\": {}, \"dropped\": {}, \"max_buffered_bytes\": {}}}{}",
            r.policy,
            r.delivered,
            r.dropped,
            r.max_buffered,
            comma(k, e5.len())
        );
    }
    j.push_str("  ]}\n}\n");
    bench::report::write_artifact(&out, &j, "paper fidelity pin (E1, E2, E3, E5)");

    let mut misses = Vec::new();
    for r in &e3 {
        let dev = (r.mbps - r.paper_mbps) / r.paper_mbps;
        println!(
            "E3 {:14} {:6.2} Mbps vs paper {:.1} ({:+.1}%)",
            r.test,
            r.mbps,
            r.paper_mbps,
            dev * 100.0
        );
        if dev.abs() > E3_BAND {
            misses.push(format!(
                "E3 {} at {:.2} Mbps is outside ±{:.0}% of the paper's {:.1}",
                r.test,
                r.mbps,
                E3_BAND * 100.0,
                r.paper_mbps
            ));
        }
    }
    println!(
        "E2 uMiddle share of SetPower latency: {:.1}%",
        share * 100.0
    );
    if !(E2_SHARE_BAND.0..=E2_SHARE_BAND.1).contains(&share) {
        misses.push(format!(
            "E2 uMiddle share {:.1}% is outside {:.0}%..{:.0}%",
            share * 100.0,
            E2_SHARE_BAND.0 * 100.0,
            E2_SHARE_BAND.1 * 100.0
        ));
    }
    if !misses.is_empty() {
        for m in &misses {
            eprintln!("fidelity band missed: {m}");
        }
        std::process::exit(1);
    }
    println!("fidelity bands: ok");
}

fn comma(k: usize, len: usize) -> &'static str {
    if k + 1 < len {
        ","
    } else {
        ""
    }
}
