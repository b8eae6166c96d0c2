//! Parse helpers for `TPOT_*` environment variables.
//!
//! [`crate::Config::from_env`] reads the obs sinks with these; binaries
//! that read engine knobs at their edge (`EngineConfig::from_env` in
//! `tpot-engine`) reuse them, so every variable is parsed the same way.
//! Unset, empty and unparsable values all read as `None`.

use std::path::PathBuf;
use std::str::FromStr;

/// A non-empty path.
pub fn path(key: &str) -> Option<PathBuf> {
    std::env::var_os(key)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// A number, surrounding whitespace ignored.
pub fn number<T: FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

/// A positive count.
pub fn count(key: &str) -> Option<usize> {
    number(key).filter(|&n: &usize| n > 0)
}

/// A switch: `0|false|off|no` or `1|true|on|yes`, any case.
pub fn toggle(key: &str) -> Option<bool> {
    let v = std::env::var(key).ok()?;
    match v.trim().to_ascii_lowercase().as_str() {
        "0" | "false" | "off" | "no" => Some(false),
        "1" | "true" | "on" | "yes" => Some(true),
        _ => None,
    }
}
