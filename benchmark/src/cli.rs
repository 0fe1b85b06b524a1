//! Strict command-line parsing: an unknown flag, a missing or malformed
//! value, a repeated flag or a stray argument is an error — never, as in
//! the older bench binaries, a silent run of the default configuration.

use crate::pins::PIN_SEED;
use crate::spec::{workload, Workload, WORKLOADS};

/// What the process was asked to do.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// One run of one workload, as the acceptance driver invokes it:
    /// `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    Single {
        /// The workload.
        workload: &'static Workload,
        /// Input seed.
        seed: u64,
        /// Measuring time budget.
        seconds: u64,
        /// Traced (per-layer) or untraced (end-to-end) run.
        traced: bool,
    },
    /// `run` / `trace`: every workload, `repeat` seeds each, optionally
    /// written to a result file `compare` reads.
    All {
        /// Traced or untraced runs.
        traced: bool,
        /// First seed; run `k` of a workload uses `seed + k`.
        seed: u64,
        /// Measuring time budget per run.
        seconds: u64,
        /// Runs per workload.
        repeat: usize,
        /// Result file to write.
        out: Option<String>,
    },
    /// `compare <a.json> <b.json>`.
    Compare {
        /// Baseline result file.
        a: String,
        /// Candidate result file.
        b: String,
    },
}

/// How to invoke the binary, for error messages.
pub const USAGE: &str = "usage:
  resildb-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
  resildb-benchmark run   [--seed <u64>] [--seconds <n>] [--repeat <k>] [--out <file>]
  resildb-benchmark trace [--seed <u64>] [--seconds <n>] [--repeat <k>] [--out <file>]
  resildb-benchmark compare <a.json> <b.json>";

struct Flags<'a> {
    allowed: &'a [&'a str],
    seen: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], allowed: &'a [&'a str]) -> Result<Self, String> {
        let mut seen: Vec<(&str, &str)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`"));
            }
            if seen.iter().any(|(f, _)| f == flag) {
                return Err(format!("`{flag}` given twice"));
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            seen.push((flag, value));
        }
        Ok(Self { allowed, seen })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(self.allowed.contains(&flag));
        self.seen.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{flag} {v}`: not a valid number")),
        }
    }
}

/// Parses the arguments after the program name; `default_seconds` is
/// `run_seconds` of `BENCHMARK.json`.
pub fn parse(args: &[String], default_seconds: u64) -> Result<Command, String> {
    let seconds_of = |flags: &Flags| -> Result<u64, String> {
        match flags.number("--seconds", default_seconds)? {
            0 => Err("`--seconds` must be at least 1".into()),
            s => Ok(s),
        }
    };
    match args.first().map(String::as_str) {
        None => Err("no arguments".into()),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare {
                a: a.clone(),
                b: b.clone(),
            }),
            _ => Err("`compare` takes exactly two result files".into()),
        },
        Some(sub @ ("run" | "trace")) => {
            let flags = Flags::parse(&args[1..], &["--seed", "--seconds", "--repeat", "--out"])?;
            let repeat = flags.number("--repeat", 1usize)?;
            if repeat == 0 {
                return Err("`--repeat` must be at least 1".into());
            }
            Ok(Command::All {
                traced: sub == "trace",
                seed: flags.number("--seed", PIN_SEED)?,
                seconds: seconds_of(&flags)?,
                repeat,
                out: flags.get("--out").map(str::to_owned),
            })
        }
        Some(_) => {
            let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
            let name = flags.get("--workload").ok_or("`--workload` is required")?;
            let workload = workload(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (known: {})", known.join(", "))
            })?;
            let traced = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("`--trace {v}`: expected 0 or 1")),
            };
            Ok(Command::Single {
                workload,
                seed: flags.number("--seed", PIN_SEED)?,
                seconds: seconds_of(&flags)?,
                traced,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned, 15)
    }

    #[test]
    fn the_drivers_invocation_parses_in_any_order() {
        let expected = Command::Single {
            workload: workload("repair").unwrap(),
            seed: 42,
            seconds: 7,
            traced: true,
        };
        assert_eq!(
            p(&[
                "--workload",
                "repair",
                "--seed",
                "42",
                "--seconds",
                "7",
                "--trace",
                "1"
            ]),
            Ok(expected)
        );
        assert_eq!(
            p(&["--trace", "0", "--workload", "oltp_tracked"]),
            Ok(Command::Single {
                workload: workload("oltp_tracked").unwrap(),
                seed: PIN_SEED,
                seconds: 15,
                traced: false,
            })
        );
    }

    #[test]
    fn unknown_repeated_and_dangling_flags_are_errors() {
        assert!(p(&[]).is_err());
        assert!(p(&["--workload", "repair", "--sed", "1"])
            .unwrap_err()
            .contains("unknown argument `--sed`"));
        assert!(p(&["--workload", "repair", "extra"]).is_err());
        assert!(p(&["--workload", "repair", "--seed"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(p(&["--workload", "repair", "--seed", "1", "--seed", "2"])
            .unwrap_err()
            .contains("twice"));
        assert!(p(&["--workload", "nope"]).unwrap_err().contains("known:"));
        assert!(p(&["--seed", "1"]).unwrap_err().contains("required"));
        assert!(p(&["--workload", "repair", "--seed", "-1"]).is_err());
        assert!(p(&["--workload", "repair", "--seconds", "0"]).is_err());
        assert!(p(&["--workload", "repair", "--trace", "yes"]).is_err());
        assert!(p(&["run", "--workload", "repair"]).is_err());
        assert!(p(&["run", "--repeat", "0"]).is_err());
        assert!(p(&["compare", "a.json"]).is_err());
        assert!(p(&["compare", "a.json", "b.json", "c.json"]).is_err());
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            p(&["trace", "--seed", "9", "--out", "t.json"]),
            Ok(Command::All {
                traced: true,
                seed: 9,
                seconds: 15,
                repeat: 1,
                out: Some("t.json".into()),
            })
        );
        assert_eq!(
            p(&["run", "--repeat", "5", "--seconds", "3"]),
            Ok(Command::All {
                traced: false,
                seed: PIN_SEED,
                seconds: 3,
                repeat: 5,
                out: None,
            })
        );
        assert_eq!(
            p(&["compare", "a.json", "b.json"]),
            Ok(Command::Compare {
                a: "a.json".into(),
                b: "b.json".into(),
            })
        );
    }
}
