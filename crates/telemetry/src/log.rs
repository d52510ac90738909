//! A structured line logger gated by the `SCALESIM_LOG` environment
//! variable.
//!
//! `SCALESIM_LOG` is a comma-separated list of tokens: a level (`off`,
//! `error`, `warn`, `info`, `debug`) and/or a format (`text`, `json`).
//! Unset or empty means *off* — the simulator stays silent unless asked.
//! Examples:
//!
//! * `SCALESIM_LOG=info` — human-readable lines at info and above.
//! * `SCALESIM_LOG=debug,json` — one JSON object per line, including span
//!   enter/exit events.
//!
//! Lines go to stderr (stdout is reserved for reports and CSV). Each line
//! is a single timestamped event with `key=value` fields (text) or a flat
//! JSON object (json); formatting is a pure function ([`format_line`]) so
//! tests can pin the output byte for byte.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or dropped-work conditions.
    Error,
    /// Suspicious but tolerated conditions.
    Warn,
    /// Request/operation summaries (access logs).
    Info,
    /// Span enter/exit and other high-volume detail.
    Debug,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }

    fn tag_lower(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Output line format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `TIMESTAMP LEVEL event key=value ...`
    Text,
    /// One flat JSON object per line.
    Json,
}

#[derive(Debug, Clone, Copy)]
struct Config {
    /// `None` disables logging entirely.
    level: Option<Level>,
    format: Format,
}

/// Parses a `SCALESIM_LOG` value. Unknown tokens are ignored rather than
/// fatal — a typo in an env var must never take the service down.
fn parse_config(value: &str) -> Config {
    let mut config = Config {
        level: None,
        format: Format::Text,
    };
    for token in value.split(',') {
        match token.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => config.level = None,
            "error" => config.level = Some(Level::Error),
            "warn" => config.level = Some(Level::Warn),
            "info" => config.level = Some(Level::Info),
            "debug" => config.level = Some(Level::Debug),
            "text" => config.format = Format::Text,
            "json" => config.format = Format::Json,
            _ => {}
        }
    }
    // A bare format token (`SCALESIM_LOG=json`) implies info level: the
    // user clearly wants output.
    if config.level.is_none() && !value.trim().is_empty() && config.format == Format::Json {
        config.level = Some(Level::Info);
    }
    config
}

fn config() -> Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    *CONFIG.get_or_init(|| {
        std::env::var("SCALESIM_LOG")
            .map(|v| parse_config(&v))
            .unwrap_or(Config {
                level: None,
                format: Format::Text,
            })
    })
}

/// Whether events at `level` are currently emitted.
pub fn enabled(level: Level) -> bool {
    config().level.is_some_and(|max| level <= max)
}

/// Emits one structured event at `level` with `key=value` fields.
/// No-op (one branch) when the level is disabled.
pub fn emit(level: Level, event: &str, fields: &[(&str, &str)]) {
    let cfg = config();
    if cfg.level.is_none_or(|max| level > max) {
        return;
    }
    let now_millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    eprintln!(
        "{}",
        format_line(cfg.format, level, event, fields, now_millis)
    );
}

/// Convenience: an info-level event.
pub fn info(event: &str, fields: &[(&str, &str)]) {
    emit(Level::Info, event, fields);
}

/// Convenience: an error-level event.
pub fn error(event: &str, fields: &[(&str, &str)]) {
    emit(Level::Error, event, fields);
}

/// Convenience: a debug-level event.
pub fn debug(event: &str, fields: &[(&str, &str)]) {
    emit(Level::Debug, event, fields);
}

/// Formats one log line; pure, so golden tests can pin it.
pub fn format_line(
    format: Format,
    level: Level,
    event: &str,
    fields: &[(&str, &str)],
    epoch_millis: u64,
) -> String {
    let ts = rfc3339_millis(epoch_millis);
    match format {
        Format::Text => {
            let mut out = format!("{ts} {:<5} {event}", level.tag());
            for (k, v) in fields {
                let _ = write!(out, " {k}={}", quote_if_needed(v));
            }
            out
        }
        Format::Json => {
            let mut out = format!(
                "{{\"ts\":\"{ts}\",\"level\":\"{}\",\"event\":\"{}\"",
                level.tag_lower(),
                json_escape(event)
            );
            for (k, v) in fields {
                let _ = write!(out, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
            out
        }
    }
}

/// Values with spaces, quotes or `=` are double-quoted with backslash
/// escapes; simple values print bare.
fn quote_if_needed(v: &str) -> String {
    if !v.is_empty()
        && v.chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '=' && c != '\\')
    {
        v.to_owned()
    } else {
        let mut out = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

/// `s` as the inside of a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Epoch milliseconds to `YYYY-MM-DDTHH:MM:SS.mmmZ` (UTC), via the
/// days-to-civil-date algorithm (Howard Hinnant's `civil_from_days`).
fn rfc3339_millis(epoch_millis: u64) -> String {
    let secs = epoch_millis / 1000;
    let millis = epoch_millis % 1000;
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (h, m, s) = (tod / 3600, (tod % 3600) / 60, tod % 60);

    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };

    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_level_and_format_tokens() {
        let c = parse_config("debug,json");
        assert_eq!(c.level, Some(Level::Debug));
        assert_eq!(c.format, Format::Json);
        let c = parse_config("info");
        assert_eq!(c.level, Some(Level::Info));
        assert_eq!(c.format, Format::Text);
        assert_eq!(parse_config("").level, None);
        assert_eq!(parse_config("off").level, None);
        assert_eq!(parse_config("frobnicate").level, None);
        // A bare format implies info.
        assert_eq!(parse_config("json").level, Some(Level::Info));
    }

    #[test]
    fn level_ordering_gates_correctly() {
        let c = parse_config("warn");
        let max = c.level.unwrap();
        assert!(Level::Error <= max);
        assert!(Level::Warn <= max);
        assert!(Level::Info > max);
        assert!(Level::Debug > max);
    }

    #[test]
    fn text_line_golden() {
        // 2026-08-05T12:30:05.042Z
        let ts = 1_785_933_005_042u64;
        let line = format_line(
            Format::Text,
            Level::Info,
            "http.request",
            &[("method", "POST"), ("path", "/simulate"), ("ua", "a b")],
            ts,
        );
        assert_eq!(
            line,
            "2026-08-05T12:30:05.042Z INFO  http.request method=POST path=/simulate ua=\"a b\""
        );
    }

    #[test]
    fn json_line_golden() {
        let line = format_line(
            Format::Json,
            Level::Debug,
            "span.exit",
            &[("span", "run_layer"), ("layer", "Conv\"1")],
            0,
        );
        assert_eq!(
            line,
            "{\"ts\":\"1970-01-01T00:00:00.000Z\",\"level\":\"debug\",\"event\":\"span.exit\",\"span\":\"run_layer\",\"layer\":\"Conv\\\"1\"}"
        );
    }

    #[test]
    fn timestamps_cover_leap_years() {
        // 2024-02-29T00:00:00Z = 1709164800.
        assert_eq!(
            rfc3339_millis(1_709_164_800_000),
            "2024-02-29T00:00:00.000Z"
        );
        assert_eq!(rfc3339_millis(0), "1970-01-01T00:00:00.000Z");
    }
}
