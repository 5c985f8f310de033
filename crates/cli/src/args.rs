//! Minimal dependency-free argument parsing for the `nimage` CLI.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: subcommand, positional arguments and `--key
/// value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

/// A user error in the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag.
const VALUED: &[&str] = &[
    "strategy",
    "format",
    "out",
    "profiles",
    "width",
    "threads",
    "cache-dir",
    "max-bytes",
    "max-entries",
    "trace-out",
];

/// Option keys whose value is optional: `--json FILE` stores a value,
/// a bare `--json` (next token is another `--option`, or nothing)
/// records a flag. `-` is an ordinary value (conventionally stdout).
const OPTIONAL_VALUED: &[&str] = &["json"];

/// Parses `args` (without the program name).
///
/// # Errors
/// Returns [`ArgError`] when a valued option is missing its value or no
/// subcommand is present.
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgError> {
    let mut parsed = ParsedArgs::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if VALUED.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                parsed.options.insert(name.to_string(), value.clone());
            } else if OPTIONAL_VALUED.contains(&name) {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        parsed.options.insert(name.to_string(), (*v).clone());
                        it.next();
                    }
                    _ => parsed.flags.push(name.to_string()),
                }
            } else {
                parsed.flags.push(name.to_string());
            }
        } else if parsed.command.is_empty() {
            parsed.command = a.clone();
        } else {
            parsed.positional.push(a.clone());
        }
    }
    if parsed.command.is_empty() {
        return Err(ArgError("missing subcommand; try `nimage help`".into()));
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// The single positional argument, or an error naming what it should be.
    pub fn one_positional(&self, what: &str) -> Result<&str, ArgError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(ArgError(format!("expected a {what}"))),
            _ => Err(ArgError(format!("expected exactly one {what}"))),
        }
    }

    /// A valued option.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required valued option.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.option(name)
            .ok_or_else(|| ArgError(format!("--{name} is required")))
    }

    /// Whether a boolean flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_positionals_options_flags() {
        let p = parse(&sv(&["eval", "Bounce", "--strategy", "cu", "--all"])).unwrap();
        assert_eq!(p.command, "eval");
        assert_eq!(p.positional, vec!["Bounce"]);
        assert_eq!(p.option("strategy"), Some("cu"));
        assert!(p.has_flag("all"));
    }

    /// A key that takes a value swallows the next token, so one that no
    /// command documents can only eat arguments meant for something else.
    #[test]
    fn every_valued_key_is_documented_in_help() {
        for key in VALUED.iter().chain(OPTIONAL_VALUED) {
            assert!(
                crate::HELP.contains(&format!("--{key} ")),
                "--{key} takes a value but `nimage help` does not mention it"
            );
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse(&sv(&["profile", "Bounce", "--out"])).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&sv(&[])).is_err());
        assert!(parse(&sv(&["--all"])).is_err());
    }

    #[test]
    fn optional_valued_json_takes_file_dash_or_nothing() {
        let p = parse(&sv(&["bench", "Bounce", "--json", "out.json"])).unwrap();
        assert_eq!(p.option("json"), Some("out.json"));
        assert!(!p.has_flag("json"));

        let p = parse(&sv(&["bench", "Bounce", "--json", "-"])).unwrap();
        assert_eq!(p.option("json"), Some("-"));

        let p = parse(&sv(&["bench", "Bounce", "--json"])).unwrap();
        assert_eq!(p.option("json"), None);
        assert!(p.has_flag("json"));

        let p = parse(&sv(&["bench", "Bounce", "--json", "--threads", "2"])).unwrap();
        assert!(p.has_flag("json"));
        assert_eq!(p.option("threads"), Some("2"));
    }

    #[test]
    fn trace_out_requires_a_value() {
        let p = parse(&sv(&["bench", "Bounce", "--trace-out", "t.json"])).unwrap();
        assert_eq!(p.option("trace-out"), Some("t.json"));
        let err = parse(&sv(&["bench", "--trace-out"])).unwrap_err();
        assert!(err.to_string().contains("--trace-out"));
    }

    #[test]
    fn one_positional_validation() {
        let p = parse(&sv(&["eval"])).unwrap();
        assert!(p.one_positional("workload").is_err());
        let p = parse(&sv(&["eval", "a", "b"])).unwrap();
        assert!(p.one_positional("workload").is_err());
        let p = parse(&sv(&["eval", "a"])).unwrap();
        assert_eq!(p.one_positional("workload").unwrap(), "a");
    }
}
