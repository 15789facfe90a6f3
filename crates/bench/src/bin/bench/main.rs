//! `bench` — the evaluation harness's one command-line front door:
//!
//! ```text
//! bench <subcommand> [--flag value | --switch]... [args]...
//! ```
//!
//! One subcommand per export or gate `ci.sh` runs: `experiments` (the
//! paper-vs-measured tables), the deterministic exporters `trace`,
//! `doctor`, `incident`, `attrib`, `fidelity` and `fingerprint`, the
//! perf sweeps and gates `perf-payload`, `perf-sched` and `perf-dir`,
//! and `lint`.
//! `bench` alone prints every usage line. Each flag is `--name value`
//! (or a bare `--switch`), a value flag with a default where it has
//! one; an unknown flag, a missing value, or an argument a subcommand
//! does not take prints its usage and exits 2.

mod exports;
mod harness;
mod lint;
mod perf_dir;
mod perf_payload;
mod perf_sched;

/// One subcommand: the flags it accepts and its entry point.
struct Command {
    name: &'static str,
    /// Flags that take a value.
    values: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
    /// Whether it takes plain arguments besides flags.
    takes_args: bool,
    /// The usage line after `bench `.
    usage: &'static str,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    harness::COMMAND,
    exports::TRACE,
    exports::DOCTOR,
    exports::INCIDENT,
    exports::ATTRIB,
    exports::FIDELITY,
    exports::FINGERPRINT,
    perf_payload::COMMAND,
    perf_sched::COMMAND,
    perf_dir::COMMAND,
    lint::COMMAND,
];

/// A subcommand's parsed command line.
pub struct Args {
    command: &'static Command,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// Plain arguments, in order.
    pub rest: Vec<String>,
}

impl Args {
    fn parse(command: &'static Command, raw: Vec<String>) -> Args {
        let mut args = Args {
            command,
            values: Vec::new(),
            switches: Vec::new(),
            rest: Vec::new(),
        };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            if let Some(&flag) = command.values.iter().find(|&&f| f == arg) {
                match raw.next() {
                    Some(value) => args.values.push((flag, value)),
                    None => usage_exit(command, &format!("{flag} needs a value")),
                }
            } else if let Some(&flag) = command.switches.iter().find(|&&f| f == arg) {
                args.switches.push(flag);
            } else if arg.starts_with("--") {
                usage_exit(command, &format!("unknown flag {arg}"));
            } else if command.takes_args {
                args.rest.push(arg);
            } else {
                usage_exit(command, &format!("unexpected argument {arg}"));
            }
        }
        args
    }

    /// The value of `flag`, if given (the last one wins).
    pub fn opt(&self, flag: &str) -> Option<String> {
        assert!(
            self.command.values.contains(&flag),
            "undeclared flag {flag}"
        );
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.clone())
    }

    /// The value of `flag`, or `default` when absent.
    pub fn get(&self, flag: &str, default: &str) -> String {
        self.opt(flag).unwrap_or_else(|| default.to_owned())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        assert!(
            self.command.switches.contains(&flag),
            "undeclared switch {flag}"
        );
        self.switches.contains(&flag)
    }
}

fn usage_exit(command: &Command, problem: &str) -> ! {
    eprintln!("bench {}: {problem}", command.name);
    eprintln!("usage: bench {}", command.usage);
    std::process::exit(2);
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let name = raw.next().unwrap_or_default();
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        if !name.is_empty() {
            eprintln!("bench: unknown subcommand {name:?}");
        }
        eprintln!("usage:");
        for c in COMMANDS {
            eprintln!("  bench {}", c.usage);
        }
        std::process::exit(2);
    };
    (command.run)(&Args::parse(command, raw.collect()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_read_values_switches_and_defaults() {
        let raw = ["e8", "--json", "a.json", "e2", "--json", "b.json"];
        let args = Args::parse(&harness::COMMAND, raw.map(String::from).to_vec());
        assert_eq!(args.rest, ["e8", "e2"]);
        assert_eq!(args.opt("--json").as_deref(), Some("b.json"), "last wins");

        let raw = ["--check", "--json", "dir.json"];
        let args = Args::parse(&perf_dir::COMMAND, raw.map(String::from).to_vec());
        assert!(args.switch("--check"));
        assert_eq!(args.get("--json", ""), "dir.json");
        let none = Args::parse(&perf_dir::COMMAND, Vec::new());
        assert!(!none.switch("--check"));
        assert_eq!(none.opt("--json"), None);
        assert_eq!(none.get("--json", "default.json"), "default.json");
    }
}
