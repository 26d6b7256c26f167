//! A small hand-rolled argument parser.
//!
//! The tool only needs `ikrq <command> --flag value ...` with long flags, so
//! a dependency-free parser keeps the workspace inside the approved crate
//! set. Flags may be given as `--flag value` or `--flag=value`; boolean
//! switches take no value.

use crate::error::CliError;
use crate::Result;
use std::collections::BTreeMap;

/// Parsed command line: the command word plus its flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedArgs {
    /// The command word (`generate`, `stats`, `query`, `render`, ...).
    pub command: String,
    /// `--flag value` pairs.
    values: BTreeMap<String, String>,
    /// Bare `--switch` flags.
    switches: Vec<String>,
}

/// Boolean switches recognised by the tool (flags that never take a value).
const SWITCHES: &[&str] = &["binary", "no-labels", "door-ids", "quiet", "help"];

impl ParsedArgs {
    /// Parses the raw arguments (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut iter = args.into_iter().peekable();
        let command = match iter.next() {
            Some(c) => {
                let c = c.as_ref().to_string();
                if c.starts_with('-') {
                    // `ikrq --help` without a command.
                    if c == "--help" || c == "-h" {
                        return Ok(ParsedArgs {
                            command: "help".into(),
                            ..ParsedArgs::default()
                        });
                    }
                    return Err(CliError::Usage(format!("expected a command before `{c}`")));
                }
                c
            }
            None => {
                return Ok(ParsedArgs {
                    command: "help".into(),
                    ..ParsedArgs::default()
                });
            }
        };

        let mut parsed = ParsedArgs {
            command,
            ..Default::default()
        };
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let Some(stripped) = arg.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument `{arg}`"
                )));
            };
            if stripped.is_empty() {
                return Err(CliError::Usage("empty flag `--`".into()));
            }
            // --flag=value form.
            if let Some((name, value)) = stripped.split_once('=') {
                parsed.insert_value(name, value)?;
                continue;
            }
            if SWITCHES.contains(&stripped) {
                if !parsed.switches.iter().any(|s| s == stripped) {
                    parsed.switches.push(stripped.to_string());
                }
                continue;
            }
            // --flag value form.
            match iter.next() {
                Some(value) => parsed.insert_value(stripped, value.as_ref())?,
                None => {
                    return Err(CliError::Usage(format!(
                        "flag `--{stripped}` expects a value"
                    )))
                }
            }
        }
        Ok(parsed)
    }

    fn insert_value(&mut self, name: &str, value: &str) -> Result<()> {
        if SWITCHES.contains(&name) {
            return Err(CliError::Usage(format!(
                "flag `--{name}` does not take a value"
            )));
        }
        if self
            .values
            .insert(name.to_string(), value.to_string())
            .is_some()
        {
            return Err(CliError::Usage(format!("flag `--{name}` given twice")));
        }
        Ok(())
    }

    /// Fails with a usage error naming the first flag or switch given
    /// that is not in `allowed`.
    pub fn accept_only(&self, allowed: &[&str]) -> Result<()> {
        let mut given = self.values.keys().chain(&self.switches);
        match given.find(|flag| !allowed.contains(&flag.as_str())) {
            Some(flag) => Err(CliError::Usage(format!(
                "unknown flag `--{flag}` for `{}` (see `ikrq help`)",
                self.command
            ))),
            None => Ok(()),
        }
    }

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A string flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag `--{name}`")))
    }

    /// An optional flag parsed as `f64`.
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>> {
        self.get(name)
            .map(|v| {
                v.parse::<f64>().map_err(|_| {
                    CliError::Usage(format!("flag `--{name}` expects a number, got `{v}`"))
                })
            })
            .transpose()
    }

    /// An optional flag parsed as `usize`.
    pub fn get_usize(&self, name: &str) -> Result<Option<usize>> {
        self.get(name)
            .map(|v| {
                v.parse::<usize>().map_err(|_| {
                    CliError::Usage(format!("flag `--{name}` expects an integer, got `{v}`"))
                })
            })
            .transpose()
    }

    /// An optional flag parsed as a boolean (`true`/`false`, `on`/`off`,
    /// `1`/`0`, `yes`/`no`).
    pub fn get_bool(&self, name: &str) -> Result<Option<bool>> {
        self.get(name)
            .map(|v| match v.to_ascii_lowercase().as_str() {
                "true" | "1" | "on" | "yes" => Ok(true),
                "false" | "0" | "off" | "no" => Ok(false),
                _ => Err(CliError::Usage(format!(
                    "flag `--{name}` expects true|false, got `{v}`"
                ))),
            })
            .transpose()
    }

    /// An optional flag parsed as `u64`.
    pub fn get_u64(&self, name: &str) -> Result<Option<u64>> {
        self.get(name)
            .map(|v| {
                v.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("flag `--{name}` expects an integer, got `{v}`"))
                })
            })
            .transpose()
    }

    /// An optional flag parsed as `i32`.
    pub fn get_i32(&self, name: &str) -> Result<Option<i32>> {
        self.get(name)
            .map(|v| {
                v.parse::<i32>().map_err(|_| {
                    CliError::Usage(format!("flag `--{name}` expects an integer, got `{v}`"))
                })
            })
            .transpose()
    }

    /// A comma-separated list flag (`--keywords "coffee,laptop"`).
    pub fn get_list(&self, name: &str) -> Vec<String> {
        self.get(name)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A point flag of the form `x,y,floor` (floor optional, defaults to 0).
    pub fn get_point(&self, name: &str) -> Result<Option<(f64, f64, i32)>> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        let parts: Vec<&str> = raw.split(',').map(str::trim).collect();
        if parts.len() != 2 && parts.len() != 3 {
            return Err(CliError::Usage(format!(
                "flag `--{name}` expects `x,y` or `x,y,floor`, got `{raw}`"
            )));
        }
        let x = parts[0].parse::<f64>().map_err(|_| {
            CliError::Usage(format!("flag `--{name}`: `{}` is not a number", parts[0]))
        })?;
        let y = parts[1].parse::<f64>().map_err(|_| {
            CliError::Usage(format!("flag `--{name}`: `{}` is not a number", parts[1]))
        })?;
        let floor = if parts.len() == 3 {
            parts[2].parse::<i32>().map_err(|_| {
                CliError::Usage(format!("flag `--{name}`: `{}` is not a floor", parts[2]))
            })?
        } else {
            0
        };
        Ok(Some((x, y, floor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs> {
        ParsedArgs::parse(args.iter().copied())
    }

    #[test]
    fn command_and_flag_value_pairs() {
        let p = parse(&["query", "--venue", "v.json", "--delta", "250", "--k", "3"]).unwrap();
        assert_eq!(p.command, "query");
        assert_eq!(p.get("venue"), Some("v.json"));
        assert_eq!(p.get_f64("delta").unwrap(), Some(250.0));
        assert_eq!(p.get_usize("k").unwrap(), Some(3));
        assert_eq!(p.get("missing"), None);
        assert!(p.require("venue").is_ok());
        assert!(p.require("missing").is_err());
    }

    #[test]
    fn equals_form_and_switches() {
        let p = parse(&["generate", "--floors=3", "--binary", "--out=venue.bin"]).unwrap();
        assert_eq!(p.get_usize("floors").unwrap(), Some(3));
        assert!(p.switch("binary"));
        assert!(!p.switch("quiet"));
        assert_eq!(p.get("out"), Some("venue.bin"));
    }

    #[test]
    fn booleans_parse_their_spellings() {
        let p = parse(&["serve", "--keep-alive", "false", "--quiet"]).unwrap();
        assert_eq!(p.get_bool("keep-alive").unwrap(), Some(false));
        assert_eq!(p.get_bool("absent").unwrap(), None);
        for (spelling, expected) in [
            ("true", true),
            ("ON", true),
            ("1", true),
            ("yes", true),
            ("false", false),
            ("off", false),
            ("0", false),
            ("No", false),
        ] {
            let p = parse(&["serve", "--keep-alive", spelling]).unwrap();
            assert_eq!(
                p.get_bool("keep-alive").unwrap(),
                Some(expected),
                "{spelling}"
            );
        }
        let bad = parse(&["serve", "--keep-alive", "maybe"]).unwrap();
        assert!(bad.get_bool("keep-alive").is_err());
    }

    #[test]
    fn no_arguments_and_bare_help_map_to_the_help_command() {
        assert_eq!(parse(&[]).unwrap().command, "help");
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
    }

    #[test]
    fn usage_errors_are_detected() {
        assert!(parse(&["query", "positional"]).is_err());
        assert!(parse(&["query", "--venue"]).is_err());
        assert!(parse(&["query", "--venue", "a", "--venue", "b"]).is_err());
        assert!(parse(&["query", "--binary=yes"]).is_err());
        assert!(parse(&["--version"]).is_err());
        assert!(parse(&["query", "--"]).is_err());
        assert!(parse(&["query", "--k", "three"])
            .unwrap()
            .get_usize("k")
            .is_err());
        assert!(parse(&["query", "--delta", "soon"])
            .unwrap()
            .get_f64("delta")
            .is_err());
    }

    #[test]
    fn lists_and_points() {
        let p = parse(&[
            "query",
            "--keywords",
            "coffee, laptop ,, euro",
            "--from",
            "10,20",
            "--to",
            "30.5,40.5,2",
        ])
        .unwrap();
        assert_eq!(p.get_list("keywords"), vec!["coffee", "laptop", "euro"]);
        assert_eq!(p.get_point("from").unwrap(), Some((10.0, 20.0, 0)));
        assert_eq!(p.get_point("to").unwrap(), Some((30.5, 40.5, 2)));
        assert_eq!(p.get_point("absent").unwrap(), None);
        assert_eq!(p.get_list("absent"), Vec::<String>::new());

        let bad = parse(&["query", "--from", "1"]).unwrap();
        assert!(bad.get_point("from").is_err());
        let bad = parse(&["query", "--from", "a,b"]).unwrap();
        assert!(bad.get_point("from").is_err());
        let bad = parse(&["query", "--from", "1,2,x"]).unwrap();
        assert!(bad.get_point("from").is_err());
    }
}
