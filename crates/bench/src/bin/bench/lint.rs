//! `bench lint`: lints the committed `BENCH_*.json` records and parses
//! every `artifacts/*.json` pin under a repository root (default `.`).
//!
//! Every benchmark record must parse as JSON and carry the four keys
//! the before/after convention requires — `name`, `before`, `after`,
//! `units` — so a reader (or a future regression gate) can always tell
//! what was measured, in what unit, and what it is being compared
//! against. Every pin must parse, so a hand-edited or truncated pin
//! fails here rather than in a determinism gate. Run by the CI lint
//! stage (`./ci.sh lint`); exits 1 listing every malformed file.

use std::path::{Path, PathBuf};

use simnet::Json;

use crate::{Args, Command};

pub const COMMAND: Command = Command {
    name: "lint",
    values: &[],
    switches: &[],
    takes_args: true,
    usage: "lint [ROOT]   (default: .)",
    run,
};

/// Keys every benchmark record must carry at the top level.
const REQUIRED_KEYS: [&str; 4] = ["name", "before", "after", "units"];

/// Numeric keys every row of a multi-row scaling curve
/// (`e9c_shard_scale`) must carry.
const CURVE_ROW_KEYS: [&str; 5] = [
    "shards",
    "devices",
    "events",
    "events_per_sec",
    "barrier_stall_ns",
];

/// Pushes a problem for each of `keys` that `obj` lacks or holds as a
/// non-number; `what` starts each message.
fn require_numbers(problems: &mut Vec<String>, what: &str, obj: &Json, keys: &[&str]) {
    for key in keys {
        match obj.get(key) {
            Some(Json::Num(_)) => {}
            Some(_) => problems.push(format!("{what} key {key:?} is not a number")),
            None => problems.push(format!("{what} missing required key {key:?}")),
        }
    }
}

/// Pushes a problem unless `obj` carries a non-empty string `mode`.
fn require_mode(problems: &mut Vec<String>, what: &str, obj: &Json) {
    match obj.get("mode") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        Some(_) => problems.push(format!("{what} \"mode\" must be a non-empty string")),
        None => problems.push(format!("{what} missing required key \"mode\"")),
    }
}

/// Validates one `e9c_shard_scale` scaling-curve value, wherever it
/// appears in a record: it must be an array of at least two rows (one
/// point is not a curve), every row an object carrying the numeric
/// [`CURVE_ROW_KEYS`], with `shards` strictly increasing down the
/// sweep.
fn lint_scaling_curve(at: &str, curve: &Json) -> Vec<String> {
    let Json::Array(_, rows) = curve else {
        return vec![format!("{at}: e9c_shard_scale must be an array")];
    };
    let mut problems = Vec::new();
    if rows.len() < 2 {
        problems.push(format!(
            "{at}: e9c_shard_scale needs at least 2 rows to be a scaling curve (has {})",
            rows.len()
        ));
    }
    let mut prev_shards: Option<f64> = None;
    for (i, row) in rows.iter().enumerate() {
        if !matches!(row, Json::Object(..)) {
            problems.push(format!("{at}: e9c_shard_scale[{i}] is not an object"));
            continue;
        }
        let what = format!("{at}: e9c_shard_scale[{i}]");
        require_numbers(&mut problems, &what, row, &CURVE_ROW_KEYS);
        if let Some(Json::Num(text)) = row.get("shards") {
            if let Ok(shards) = text.parse::<f64>() {
                if let Some(prev) = prev_shards.filter(|&prev| shards <= prev) {
                    problems.push(format!(
                        "{what} shard counts must be strictly increasing ({shards} after {prev})"
                    ));
                }
                prev_shards = Some(shards);
            }
        }
    }
    problems
}

/// Validates one `trace_loss` value from the observability record: an
/// object carrying the retention policy name plus the retained/lost
/// span counts the before/after comparison is about.
fn lint_trace_loss(at: &str, loss: &Json) -> Vec<String> {
    if !matches!(loss, Json::Object(..)) {
        return vec![format!("{at}: trace_loss must be an object")];
    }
    let mut problems = Vec::new();
    let what = format!("{at}: trace_loss");
    require_mode(&mut problems, &what, loss);
    require_numbers(&mut problems, &what, loss, &["retained", "lost"]);
    problems
}

/// Validates one `attrib` value from the observability record: an
/// object carrying the side's mode label and the measured wall-clock
/// overhead ratio; the `after` side (attribution on) must also carry
/// the budget the perf gate enforces.
fn lint_attrib(at: &str, attrib: &Json, is_after: bool) -> Vec<String> {
    if !matches!(attrib, Json::Object(..)) {
        return vec![format!("{at}: attrib must be an object")];
    }
    let mut problems = Vec::new();
    let what = format!("{at}: attrib");
    require_mode(&mut problems, &what, attrib);
    require_numbers(&mut problems, &what, attrib, &["overhead_ratio"]);
    if is_after && !matches!(attrib.get("budget_ratio"), Some(Json::Num(_))) {
        problems.push(format!(
            "{at}: attrib \"after\" side must carry a numeric \"budget_ratio\""
        ));
    }
    problems
}

/// Numeric keys both sides of the perf_dir record's `e12_delta_gossip`
/// A/B row must carry.
const GOSSIP_ROW_KEYS: [&str; 5] = [
    "runtimes",
    "steady_bytes",
    "join_convergence_ms",
    "leave_convergence_ms",
    "final_entries",
];

/// Validates one side of the perf_dir record: an `e12_delta_gossip`
/// object with the A/B's numeric keys and a `mode` label; the `after`
/// side must additionally carry the headline `steady_bytes_ratio` and
/// the `e12_lookup_scale` object with the gated lookup numbers.
fn lint_dir_side(at: &str, side: &Json, is_after: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let require_object = |problems: &mut Vec<String>, name: &str, keys: &[&str]| {
        let what = format!("{at}: {name}");
        match side.get(name) {
            Some(obj @ Json::Object(..)) => {
                if name == "e12_delta_gossip" {
                    require_mode(problems, &what, obj);
                }
                require_numbers(problems, &what, obj, keys);
            }
            Some(_) => problems.push(format!("{what} must be an object")),
            None => problems.push(format!(
                "perf_dir record: {at:?} must carry an {name:?} object"
            )),
        }
    };
    require_object(&mut problems, "e12_delta_gossip", &GOSSIP_ROW_KEYS);
    if is_after {
        if !matches!(side.get("steady_bytes_ratio"), Some(Json::Num(_))) {
            problems.push(format!(
                "{at}: perf_dir record must carry a numeric \"steady_bytes_ratio\""
            ));
        }
        let lookup_keys = ["total_ports", "p99_ns", "scan_fallbacks"];
        require_object(&mut problems, "e12_lookup_scale", &lookup_keys);
    }
    problems
}

/// Validates one record's content; returns every problem found.
fn lint_record(text: &str) -> Vec<String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("does not parse as JSON ({e})")],
    };
    if !matches!(doc, Json::Object(..)) {
        return vec!["top level is not a JSON object".to_owned()];
    }
    let mut problems = Vec::new();
    for key in REQUIRED_KEYS {
        match doc.get(key) {
            None => problems.push(format!("missing required key {key:?}")),
            Some(Json::Null) => problems.push(format!("required key {key:?} is null")),
            Some(_) => {}
        }
    }
    if let Some(v) = doc.get("name") {
        if !matches!(v, Json::Str(s) if !s.is_empty()) {
            problems.push("key \"name\" must be a non-empty string".to_owned());
        }
    }
    // Scaling-curve convention: wherever a record carries an
    // `e9c_shard_scale` value (top level or inside the before/after
    // snapshots), it must be shaped like a multi-row curve.
    let mut curve_sites = vec![("top level", &doc)];
    for key in ["before", "after"] {
        if let Some(v) = doc.get(key) {
            curve_sites.push((key, v));
        }
    }
    for (at, holder) in curve_sites {
        if let Some(curve) = holder.get("e9c_shard_scale") {
            problems.extend(lint_scaling_curve(at, curve));
        }
    }
    // Observability convention: the record's before/after comparison is
    // the trace-loss A/B (drop-on-full vs flight recorder) plus the
    // attribution-overhead A/B (fold off vs on), so both sides must
    // carry well-formed `trace_loss` and `attrib` objects.
    if matches!(doc.get("name"), Some(Json::Str(s)) if s == "observability") {
        for key in ["before", "after"] {
            match doc.get(key).and_then(|side| side.get("trace_loss")) {
                Some(loss) => problems.extend(lint_trace_loss(key, loss)),
                None => problems.push(format!(
                    "observability record: {key:?} must carry a \"trace_loss\" object"
                )),
            }
            match doc.get(key).and_then(|side| side.get("attrib")) {
                Some(attrib) => problems.extend(lint_attrib(key, attrib, key == "after")),
                None => problems.push(format!(
                    "observability record: {key:?} must carry an \"attrib\" object"
                )),
            }
        }
    }
    // Directory-federation convention: the perf_dir record's before/after
    // comparison is the full-refresh vs delta-gossip A/B, and the gated
    // lookup numbers ride on the `after` side.
    if matches!(doc.get("name"), Some(Json::Str(s)) if s == "perf_dir") {
        for key in ["before", "after"] {
            if let Some(side) = doc.get(key) {
                problems.extend(lint_dir_side(key, side, key == "after"));
            }
        }
    }
    problems
}

/// The files under `dir` whose name starts with `prefix` and ends in
/// `.json`, sorted.
fn json_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn run(args: &Args) {
    let root = Path::new(args.rest.first().map_or(".", String::as_str));
    let records = json_files(root, "BENCH_");
    let pins = json_files(&root.join("artifacts"), "");
    if records.is_empty() || pins.is_empty() {
        eprintln!(
            "bench lint: no BENCH_*.json records or artifacts/*.json pins under {}",
            root.display()
        );
        std::process::exit(1);
    }

    let mut failures = 0usize;
    let checks = records
        .iter()
        .map(|p| (p, lint_record as fn(&str) -> Vec<String>))
        .chain(
            pins.iter()
                .map(|p| (p, lint_pin as fn(&str) -> Vec<String>)),
        );
    for (path, lint) in checks {
        let display = path.display();
        let problems = match std::fs::read_to_string(path) {
            Ok(text) => lint(&text),
            Err(e) => vec![format!("unreadable ({e})")],
        };
        if problems.is_empty() {
            println!("bench lint: {display}: ok");
        } else {
            for p in &problems {
                eprintln!("bench lint: {display}: {p}");
            }
            failures += 1;
        }
    }
    let total = records.len() + pins.len();
    if failures > 0 {
        eprintln!("bench lint: {failures} of {total} file(s) malformed");
        std::process::exit(1);
    }
    println!(
        "bench lint: {} record(s) and {} pin(s) ok",
        records.len(),
        pins.len()
    );
}

/// A pin only has to parse; its content is checked by the determinism
/// gate that regenerates it.
fn lint_pin(text: &str) -> Vec<String> {
    match Json::parse(text) {
        Ok(_) => Vec::new(),
        Err(e) => vec![format!("does not parse as JSON ({e})")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_pin_rejects_a_truncated_pin() {
        let pin = include_str!("../../../../../artifacts/E13_attrib_diff.json");
        assert!(lint_pin(pin).is_empty());
        let cut = &pin[..pin.len() / 2];
        assert_eq!(lint_pin(cut).len(), 1, "truncated pin must fail");
    }

    #[test]
    fn lint_requires_all_keys() {
        let ok = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(ok).is_empty());
        let missing = r#"{"name": "n", "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(missing),
            vec!["missing required key \"units\"".to_owned()]
        );
        let null_key = r#"{"name": "n", "units": null, "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(null_key),
            vec!["required key \"units\" is null".to_owned()]
        );
        let bad_name = r#"{"name": "", "units": "ns", "before": 1, "after": 2}"#;
        assert_eq!(
            lint_record(bad_name),
            vec!["key \"name\" must be a non-empty string".to_owned()]
        );
    }

    #[test]
    fn lint_enforces_observability_trace_loss() {
        let ok = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "drop-on-full", "retained": 256, "lost": 90, "tail_survives": false},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"trace_loss": {"mode": "flight-recorder", "retained": 256, "lost": 90, "tail_survives": true},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.004, "budget_ratio": 1.03}}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());

        let missing_side = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "drop-on-full", "retained": 1, "lost": 2},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"snapshot": {},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}"#;
        assert_eq!(
            lint_record(missing_side),
            vec!["observability record: \"after\" must carry a \"trace_loss\" object".to_owned()]
        );

        let bad_fields = r#"{"name": "observability", "units": "spans",
            "before": {"trace_loss": {"mode": "", "retained": 1, "lost": 2},
                       "attrib": {"mode": "attribution-off", "overhead_ratio": 1.0}},
            "after": {"trace_loss": {"mode": "flight-recorder", "retained": "many"},
                      "attrib": {"mode": "attribution-on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}"#;
        assert_eq!(
            lint_record(bad_fields),
            vec![
                "before: trace_loss \"mode\" must be a non-empty string".to_owned(),
                "after: trace_loss key \"retained\" is not a number".to_owned(),
                "after: trace_loss missing required key \"lost\"".to_owned(),
            ]
        );

        // Non-observability records are exempt from the convention.
        let other = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(other).is_empty());
    }

    #[test]
    fn lint_enforces_observability_attrib_shape() {
        let loss = r#""trace_loss": {"mode": "m", "retained": 1, "lost": 2}"#;

        let missing = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}}}, "after": {{{loss}}}}}"#
        );
        assert_eq!(
            lint_record(&missing),
            vec![
                "observability record: \"before\" must carry an \"attrib\" object".to_owned(),
                "observability record: \"after\" must carry an \"attrib\" object".to_owned(),
            ]
        );

        let bad = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}, "attrib": {{"mode": "", "overhead_ratio": "fast"}}}},
                "after": {{{loss}, "attrib": {{"overhead_ratio": 1.0}}}}}}"#
        );
        assert_eq!(
            lint_record(&bad),
            vec![
                "before: attrib \"mode\" must be a non-empty string".to_owned(),
                "before: attrib key \"overhead_ratio\" is not a number".to_owned(),
                "after: attrib missing required key \"mode\"".to_owned(),
                "after: attrib \"after\" side must carry a numeric \"budget_ratio\"".to_owned(),
            ]
        );

        let not_object = format!(
            r#"{{"name": "observability", "units": "ns",
                "before": {{{loss}, "attrib": 7}},
                "after": {{{loss}, "attrib": {{"mode": "on", "overhead_ratio": 1.0, "budget_ratio": 1.03}}}}}}"#
        );
        assert_eq!(
            lint_record(&not_object),
            vec!["before: attrib must be an object".to_owned()]
        );
    }

    #[test]
    fn lint_enforces_perf_dir_ab_shape() {
        let ok = r#"{"name": "perf_dir", "units": "bytes",
            "before": {"e12_delta_gossip": {"mode": "full-refresh", "runtimes": 100, "steady_bytes": 946800,
                       "join_convergence_ms": 0, "leave_convergence_ms": 192, "final_entries": 1000}},
            "after": {"e12_delta_gossip": {"mode": "delta", "runtimes": 100, "steady_bytes": 37200,
                      "join_convergence_ms": 0, "leave_convergence_ms": 15, "final_entries": 1000},
                      "steady_bytes_ratio": 25.5,
                      "e12_lookup_scale": {"total_ports": 1000000, "p99_ns": 441199, "scan_fallbacks": 0}}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());

        let broken = r#"{"name": "perf_dir", "units": "bytes",
            "before": {"e12_delta_gossip": {"mode": "full-refresh", "runtimes": 100, "steady_bytes": 946800,
                       "join_convergence_ms": 0, "final_entries": 1000}},
            "after": {"e12_delta_gossip": {"mode": "", "runtimes": 100, "steady_bytes": 37200,
                      "join_convergence_ms": 0, "leave_convergence_ms": 15, "final_entries": 1000},
                      "e12_lookup_scale": {"total_ports": 1000000, "p99_ns": 441199}}}"#;
        assert_eq!(
            lint_record(broken),
            vec![
                "before: e12_delta_gossip missing required key \"leave_convergence_ms\"".to_owned(),
                "after: e12_delta_gossip \"mode\" must be a non-empty string".to_owned(),
                "after: perf_dir record must carry a numeric \"steady_bytes_ratio\"".to_owned(),
                "after: e12_lookup_scale missing required key \"scan_fallbacks\"".to_owned(),
            ]
        );

        // Non-perf_dir records are exempt from the convention.
        let other = r#"{"name": "n", "units": "ns", "before": 1, "after": 2}"#;
        assert!(lint_record(other).is_empty());
    }

    #[test]
    fn lint_accepts_well_formed_scaling_curve() {
        let ok = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 1, "devices": 10000, "wings": 16, "events": 9, "wall_secs": 1.0,
                 "events_per_sec": 9.0, "p99_dispatch_ns": 5, "barrier_stall_ns": 0, "windows": 3},
                {"shards": 4, "devices": 10000, "wings": 16, "events": 9, "wall_secs": 0.5,
                 "events_per_sec": 18.0, "p99_dispatch_ns": 5, "barrier_stall_ns": 7, "windows": 3}
            ]}}"#;
        assert_eq!(lint_record(ok), Vec::<String>::new());
    }

    #[test]
    fn lint_rejects_malformed_scaling_curves() {
        let one_row = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [{"shards": 1, "devices": 2, "events": 3,
                                 "events_per_sec": 4, "barrier_stall_ns": 5}]}}"#;
        assert_eq!(
            lint_record(one_row),
            vec![
                "after: e9c_shard_scale needs at least 2 rows to be a scaling curve (has 1)"
                    .to_owned()
            ]
        );

        let missing_key = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 1, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5},
                {"shards": 4, "devices": 2, "events": 3, "events_per_sec": 4}
            ]}}"#;
        assert_eq!(
            lint_record(missing_key),
            vec!["after: e9c_shard_scale[1] missing required key \"barrier_stall_ns\"".to_owned()]
        );

        let not_increasing = r#"{"name": "n", "units": "ns", "before": 1, "after": {
            "e9c_shard_scale": [
                {"shards": 4, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5},
                {"shards": 2, "devices": 2, "events": 3, "events_per_sec": 4, "barrier_stall_ns": 5}
            ]}}"#;
        assert_eq!(
            lint_record(not_increasing),
            vec![
                "after: e9c_shard_scale[1] shard counts must be strictly increasing (2 after 4)"
                    .to_owned()
            ]
        );

        let not_array =
            r#"{"name": "n", "units": "ns", "before": {"e9c_shard_scale": 7}, "after": 2}"#;
        assert_eq!(
            lint_record(not_array),
            vec!["before: e9c_shard_scale must be an array".to_owned()]
        );
    }
}
