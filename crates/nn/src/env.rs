//! One read rule for the `ROTOM_*` environment variables.
//!
//! An unset or blank (after trimming) variable means "use the default",
//! silently. A set value the variable's parser rejects also falls back to
//! the default, but loudly: the first rejection of each variable prints one
//! stderr warning and emits one telemetry counter naming the value and the
//! reason, and every rejection is counted in [`rejections`]. An operator's
//! typo (`ROTOM_THREADS=eight`, `ROTOM_FAULT=kill@epoch=3`) is therefore
//! never silently ignored, and never panics.

use crate::telemetry::{self, Value};
use std::sync::Mutex;

/// Rejection count per variable name (a handful of names: linear scan).
static REJECTIONS: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

/// Read `name`, trimmed, and parse it. Returns `None` when the variable is
/// unset or blank, or when `parse` rejects the value with a reason (see the
/// module doc for how rejections are reported).
pub fn read<T>(name: &'static str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    match parse(value) {
        Ok(v) => Some(v),
        Err(reason) => {
            reject(name, &raw, &reason);
            None
        }
    }
}

fn reject(name: &'static str, raw: &str, reason: &str) {
    let first = {
        let mut counts = REJECTIONS.lock().unwrap_or_else(|e| e.into_inner());
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => {
                *count += 1;
                false
            }
            None => {
                counts.push((name, 1));
                true
            }
        }
    };
    if first {
        eprintln!("rotom: ignoring invalid {name}={raw:?} ({reason}); using the default");
        telemetry::emit(
            "counter",
            "env.rejected",
            &[
                ("var", Value::Str(name.to_string())),
                ("value", Value::Str(raw.to_string())),
                ("reason", Value::Str(reason.to_string())),
            ],
        );
    }
}

/// How many values of `name` [`read`] has rejected in this process.
pub fn rejections(name: &str) -> u64 {
    let counts = REJECTIONS.lock().unwrap_or_else(|e| e.into_inner());
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, count)| count)
}
