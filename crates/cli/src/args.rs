//! A small `--key value` argument parser (the workspace's dependency
//! policy excludes clap; see DESIGN.md).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from parsing or typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A positional argument appeared after options.
    UnexpectedPositional(String),
    /// A value failed to parse as the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
        /// Expected type/format description.
        expected: &'static str,
    },
    /// An option the command does not understand.
    UnknownOption(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected positional argument {arg:?}")
            }
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?} is not a valid {expected}")
            }
            ArgError::UnknownOption(key) => write!(f, "unknown option --{key}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name): an optional leading
    /// subcommand, then `--key value` pairs. A `--key` directly followed
    /// by another `--option` or the end of input is a boolean flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnexpectedPositional`] for stray positionals.
    pub fn parse<I, S>(argv: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = argv.into_iter().map(Into::into).peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
            }
        }
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError::UnexpectedPositional(arg));
            };
            match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => {
                    args.options.insert(key.to_string(), value);
                }
                None => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A raw option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// True if `--key` was given as a bare flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A finite, non-negative number option with a default, such as
    /// `--map-secs 20` (durations become [`SimDuration`]s, which hold
    /// neither negative nor non-finite spans).
    ///
    /// [`SimDuration`]: dfs::simkit::time::SimDuration
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] unless the value is a finite
    /// number `>= 0`.
    pub fn get_non_negative_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        let value: f64 = self.get_or(key, default)?;
        if value.is_finite() && value >= 0.0 {
            return Ok(value);
        }
        Err(ArgError::BadValue {
            key: key.to_string(),
            value: self.get(key).unwrap_or_default().to_string(),
            expected: "finite non-negative number",
        })
    }

    /// A strictly positive option with a default, such as `--racks 4`
    /// or `--map-secs 20`: counts, rates and durations that size the
    /// model, where zero (or a negative or NaN number) has no meaning.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] unless the value parses and is
    /// `> 0`.
    pub fn get_positive_or<T>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        let value = self.get_or(key, default)?;
        if value > T::default() {
            return Ok(value);
        }
        Err(ArgError::BadValue {
            key: key.to_string(),
            value: self.get(key).unwrap_or_default().to_string(),
            expected: "positive number",
        })
    }

    /// A strictly positive size option given in units of `unit`, such as
    /// `--block-mb 128` (`unit` = 1 MiB) or `--bandwidth-mbps 1000`
    /// (`unit` = 10^6), returned in base units.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] unless the value is `> 0` and its
    /// product with `unit` fits in a `u64`.
    pub fn get_scaled_or(&self, key: &str, default: u64, unit: u64) -> Result<u64, ArgError> {
        self.get_positive_or(key, default)?
            .checked_mul(unit)
            .ok_or_else(|| ArgError::BadValue {
                key: key.to_string(),
                value: self.get(key).unwrap_or_default().to_string(),
                expected: "size (it overflows 64 bits once scaled)",
            })
    }

    /// An `(n,k)` code option such as `--code 16,12`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] unless the value is `n,k` with
    /// `k < n`.
    pub fn get_code_or(
        &self,
        key: &str,
        default: (usize, usize),
    ) -> Result<(usize, usize), ArgError> {
        let Some(raw) = self.get(key) else {
            return Ok(default);
        };
        let bad = || ArgError::BadValue {
            key: key.to_string(),
            value: raw.to_string(),
            expected: "code written as n,k (e.g. 16,12)",
        };
        let (n, k) = raw.split_once(',').ok_or_else(bad)?;
        let n: usize = n.trim().parse().map_err(|_| bad())?;
        let k: usize = k.trim().parse().map_err(|_| bad())?;
        if k == 0 || k >= n {
            return Err(bad());
        }
        Ok((n, k))
    }

    /// Rejects options outside `allowed` (catches typos).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] for the first unknown key.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::UnknownOption(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let args = Args::parse(["simulate", "--seeds", "5", "--code", "8,6", "--multi"]).unwrap();
        assert_eq!(args.command(), Some("simulate"));
        assert_eq!(args.get("seeds"), Some("5"));
        assert_eq!(args.get_or("seeds", 0u64).unwrap(), 5);
        assert_eq!(args.get_code_or("code", (4, 2)).unwrap(), (8, 6));
        assert!(args.flag("multi"));
        assert!(!args.flag("other"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = Args::parse(["analyze"]).unwrap();
        assert_eq!(args.get_or("nodes", 40usize).unwrap(), 40);
        assert_eq!(args.get_code_or("code", (16, 12)).unwrap(), (16, 12));
    }

    #[test]
    fn no_command_is_allowed() {
        let args = Args::parse(["--help"]).unwrap();
        assert_eq!(args.command(), None);
        assert!(args.flag("help"));
    }

    #[test]
    fn rejects_stray_positionals() {
        let err = Args::parse(["run", "--seeds", "3", "oops"]).unwrap_err();
        assert_eq!(err, ArgError::UnexpectedPositional("oops".into()));
    }

    #[test]
    fn rejects_bad_values() {
        let args = Args::parse(["x", "--seeds", "many"]).unwrap();
        assert!(matches!(
            args.get_or("seeds", 0u64).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        for bad in ["-1", "nan", "inf", "-inf"] {
            let args = Args::parse(["x", "--secs", bad]).unwrap();
            assert!(args.get_non_negative_or("secs", 1.0).is_err(), "{bad}");
        }
        let args = Args::parse(["x", "--secs", "0"]).unwrap();
        assert_eq!(args.get_non_negative_or("secs", 1.0).unwrap(), 0.0);
        for bad in ["0", "-1", "nan", "-inf"] {
            let args = Args::parse(["x", "--secs", bad]).unwrap();
            assert!(args.get_positive_or("secs", 1.0).is_err(), "{bad}");
        }
        let args = Args::parse(["x", "--racks", "0"]).unwrap();
        assert!(args.get_positive_or("racks", 4usize).is_err());
        let args = Args::parse(["x", "--racks", "2"]).unwrap();
        assert_eq!(args.get_positive_or("racks", 4usize).unwrap(), 2);
        let args = Args::parse(["x", "--code", "6"]).unwrap();
        assert!(args.get_code_or("code", (4, 2)).is_err());
        let args = Args::parse(["x", "--code", "6,6"]).unwrap();
        assert!(args.get_code_or("code", (4, 2)).is_err());
    }

    #[test]
    fn unknown_options_are_caught() {
        let args = Args::parse(["x", "--sedes", "3"]).unwrap();
        let err = args.ensure_known(&["seeds"]).unwrap_err();
        assert_eq!(err, ArgError::UnknownOption("sedes".into()));
        assert!(!err.to_string().is_empty());
        let args = Args::parse(["x", "--seeds", "3"]).unwrap();
        assert!(args.ensure_known(&["seeds"]).is_ok());
    }

    #[test]
    fn error_display() {
        for e in [
            ArgError::UnexpectedPositional("p".into()),
            ArgError::BadValue {
                key: "k".into(),
                value: "v".into(),
                expected: "usize",
            },
            ArgError::UnknownOption("u".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
