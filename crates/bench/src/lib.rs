//! Experiment harness utilities: table rendering, result recording and
//! the command line of `aeon-exp`.
//!
//! Every `aeon-exp <name>` regenerates one table or figure from the
//! paper (see `DESIGN.md`'s experiment index). Experiments print
//! human-readable tables to stdout; the measuring ones also write a
//! `BENCH_<name>.json` artifact under `AEON_RESULTS_DIR`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

use aeon_store::clock::SimDuration;
use aeon_store::throughput::ThroughputProfile;

/// A simple aligned-text table for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (displayable cells).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout, followed by a blank line.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A minimal JSON value for machine-readable benchmark artifacts. The
/// workspace carries no serialization dependency, so this is the whole
/// implementation: numbers, strings, ordered objects, arrays.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An object whose fields keep insertion order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        match self {
            Json::Num(v) if v.is_finite() => {
                // Integral values print without a trailing ".0" so the
                // artifact stays pleasant to read.
                if *v == v.trunc() && v.abs() < 1e15 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v}")
                }
            }
            Json::Num(_) => "null".to_string(),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Obj(fields) => {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
            Json::Arr(items) => {
                let body: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", body.join(","))
            }
        }
    }

    /// Writes the rendered value to `<AEON_RESULTS_DIR>/<name>` (or
    /// `./<name>` when the variable is unset), then prints `<done>
    /// <path>` to stdout — or a warning to stderr if the write failed.
    pub fn write_artifact(&self, name: &str, done: &str) {
        let dir = std::env::var("AEON_RESULTS_DIR").unwrap_or_else(|_| ".".to_string());
        let path = PathBuf::from(dir).join(name);
        match std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{}", self.render())) {
            Ok(()) => println!("{done} {}", path.display()),
            Err(_) => eprintln!("warning: could not write {name}"),
        }
    }
}

/// One option an experiment accepts on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A boolean switch, e.g. `--quick`.
    Switch(&'static str),
    /// A `usize` option, `--rows 16` or `--rows=16`.
    Count(&'static str),
}

impl Display for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Flag::Switch(name) => write!(f, "[{name}]"),
            Flag::Count(name) => write!(f, "[{name} N]"),
        }
    }
}

/// An experiment's parsed command line: only the options its table entry
/// lists, every value already a number.
///
/// # Examples
///
/// ```
/// use aeon_bench::{CliArgs, Flag};
///
/// let accepted = [Flag::Switch("--quick"), Flag::Count("--rows")];
/// let args = CliArgs::parse(&accepted, &["--quick".into(), "--rows".into(), "16".into()])?;
/// assert!(args.flag("--quick"));
/// assert_eq!(args.usize_value("--rows", 8), 16);
/// assert!(CliArgs::parse(&accepted, &["--quik".into()]).is_err());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    switches: Vec<&'static str>,
    counts: Vec<(&'static str, usize)>,
}

impl CliArgs {
    /// Parses `args` against the options in `accepted`.
    ///
    /// # Errors
    ///
    /// Names the first argument that is not an accepted option, an
    /// option missing its value, or a value that is not a `usize`.
    pub fn parse(accepted: &[Flag], args: &[String]) -> Result<Self, String> {
        let mut parsed = CliArgs::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let listed = |f: &&Flag| matches!(f, Flag::Switch(n) | Flag::Count(n) if *n == name);
            match accepted.iter().find(listed) {
                Some(Flag::Switch(name)) if inline.is_none() => parsed.switches.push(name),
                Some(Flag::Count(name)) => {
                    let value = inline
                        .or_else(|| rest.next().map(String::as_str))
                        .ok_or_else(|| format!("{name} needs a value"))?;
                    let n = value
                        .parse()
                        .map_err(|_| format!("{name}: `{value}` is not a count"))?;
                    parsed.counts.push((name, n));
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(parsed)
    }

    /// Whether the switch `name` (e.g. `--quick`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The last value given for `name`, or `default` when it was absent.
    pub fn usize_value(&self, name: &str, default: usize) -> usize {
        let given = self.counts.iter().rev().find(|(n, _)| *n == name);
        given.map_or(default, |&(_, v)| v)
    }
}

/// A device class on the virtual clock: positioning cost per request and
/// streaming rate, reads and writes alike.
#[derive(Debug, Clone, Copy)]
pub struct DeviceProfile {
    /// Label in tables and artifacts.
    pub name: &'static str,
    /// Positioning cost per request.
    pub seek: SimDuration,
    /// Streaming rate.
    pub bytes_per_sec: f64,
}

impl DeviceProfile {
    /// The profile as a node throughput model.
    pub fn throughput(&self) -> ThroughputProfile {
        ThroughputProfile::new(self.seek, self.bytes_per_sec, self.bytes_per_sec)
    }
}

/// Device profiles, most to least seek-tolerant.
pub const DEVICE_PROFILES: [DeviceProfile; 3] = [
    DeviceProfile {
        name: "archival-disk",
        seek: SimDuration::from_millis(4),
        bytes_per_sec: 60e6,
    },
    DeviceProfile {
        name: "cold-hdd",
        seek: SimDuration::from_millis(40),
        bytes_per_sec: 20e6,
    },
    DeviceProfile {
        name: "tape-library",
        seek: SimDuration::from_secs(30),
        bytes_per_sec: 100e6,
    },
];

/// Formats a float with fixed precision for table cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Generates a high-entropy payload of `len` bytes (deterministic).
pub fn reference_payload(len: usize, seed: u64) -> Vec<u8> {
    use aeon_crypto::{ChaChaDrbg, CryptoRng};
    let mut rng = ChaChaDrbg::from_u64_seed(seed);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Cheap deterministic payload for object `i` of a sweep seeded `seed`:
/// an LCG stream, for experiments that time I/O, not the codec.
pub fn lcg_payload(seed: u64, i: usize, len: usize) -> Vec<u8> {
    let mut state = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("333"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("a \"b\"\n".into())),
            ("n".into(), Json::Num(2.0)),
            (
                "xs".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)]),
            ),
        ]);
        assert_eq!(j.render(), r#"{"name":"a \"b\"\n","n":2,"xs":[1.5,null]}"#);
    }

    #[test]
    fn payload_deterministic() {
        assert_eq!(reference_payload(64, 1), reference_payload(64, 1));
        assert_ne!(reference_payload(64, 1), reference_payload(64, 2));
        assert_eq!(lcg_payload(7, 3, 64), lcg_payload(7, 3, 64));
        assert_ne!(lcg_payload(7, 3, 64), lcg_payload(8, 3, 64));
    }

    const KERNELS: [Flag; 2] = [Flag::Switch("--quick"), Flag::Count("--rows")];

    fn parse(accepted: &[Flag], args: &[&str]) -> Result<CliArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        CliArgs::parse(accepted, &args)
    }

    #[test]
    fn listed_options_parse_in_both_spellings() {
        let args = parse(&KERNELS, &["--rows=16", "--quick", "--rows", "4"]).unwrap();
        assert!(args.flag("--quick"));
        assert_eq!(args.usize_value("--rows", 8), 4);
        let args = parse(&KERNELS, &[]).unwrap();
        assert!(!args.flag("--quick"));
        assert_eq!(args.usize_value("--rows", 8), 8);
    }

    #[test]
    fn a_mistyped_or_unlisted_option_is_an_error() {
        for bad in [
            &["--quik"][..],
            &["quick"],
            &["--quick=1"],
            &["--rows"],
            &["--rows", "x"],
            &["--rows="],
            &["--rows", "-1"],
            &["--rows", "--quick"],
        ] {
            assert!(parse(&KERNELS, bad).is_err(), "{bad:?} parsed");
        }
        // `--quick` is only an option where the table lists it.
        assert_eq!(
            parse(&[], &["--quick"]).unwrap_err(),
            "unexpected argument `--quick`"
        );
        assert_eq!(
            parse(&KERNELS, &["--rows", "x"]).unwrap_err(),
            "--rows: `x` is not a count"
        );
    }
}
