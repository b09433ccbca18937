//! The five domain lints (L1–L5) and the panic allowlist.
//!
//! All lints work on [`SourceFile`]s preprocessed by [`crate::scan`]:
//! token searches only see real code (comments and literals blanked),
//! `#[cfg(test)]` items are excluded, and a `// lint:allow(<name>)`
//! comment suppresses the named lint on that line.
//!
//! | lint | name          | what it forbids                                             |
//! |------|---------------|-------------------------------------------------------------|
//! | L1   | `determinism` | wall clocks / OS randomness / iteration-order nondeterminism / platform-libm float functions in the simulation crates |
//! | L2   | `panic-audit` | panicking constructs outside the checked-in allowlist        |
//! | L3   | `float-eq`    | bare float `==`/`!=` and `partial_cmp(..).unwrap()`          |
//! | L4   | `unit-mix`    | `+`/`-` arithmetic across mismatched unit suffixes           |
//! | L5   | `telemetry-hygiene` | recorder calls inside the tensor kernels; wall clocks / OS randomness / hash iteration in the telemetry crate |

use crate::scan::SourceFile;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One diagnostic. Rendered as `path:line:col: [lint] message`.
pub struct Violation {
    /// Repo-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based char column.
    pub col: usize,
    /// Lint tag, e.g. `L2/panic-audit`.
    pub lint: &'static str,
    /// Human explanation with the offending token.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.col,
            self.lint,
            self.message
        )
    }
}

/// Whether the char terminates an identifier on its left.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds occurrences of `token` in `line` at identifier boundaries: the
/// char before must not be part of a word (so `assert!` does not match
/// inside `debug_assert!`). Returns 0-based char columns.
fn word_starts(line: &str, token: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let tok: Vec<char> = token.chars().collect();
    let mut out = Vec::new();
    if tok.is_empty() || chars.len() < tok.len() {
        return out;
    }
    for start in 0..=chars.len() - tok.len() {
        if chars[start..start + tok.len()] != tok[..] {
            continue;
        }
        let first = tok[0];
        if is_word(first) && start > 0 && is_word(chars[start - 1]) {
            continue;
        }
        out.push(start);
    }
    out
}

// ---------------------------------------------------------------------------
// L1 — determinism
// ---------------------------------------------------------------------------

/// Crates whose `src/` must stay bit-reproducible: every crate that feeds
/// a report.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "util", "tensor", "video", "models", "metrics", "net", "compute", "core",
];

const L1_BANNED: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall-clock time; use the simulated frame clock",
    ),
    (
        "SystemTime",
        "wall-clock time; use the simulated frame clock",
    ),
    (
        "thread_rng",
        "OS-seeded randomness; use shoggoth_util::Rng::seed_from",
    ),
    (
        "rand::random",
        "OS-seeded randomness; use shoggoth_util::Rng::seed_from",
    ),
    (
        "HashMap",
        "iteration order varies per process; use BTreeMap or a Vec",
    ),
    (
        "HashSet",
        "iteration order varies per process; use BTreeSet or a Vec",
    ),
];

/// Float methods that call the platform libm, whose results differ between
/// C libraries and their versions. (`sqrt` is exactly rounded everywhere;
/// `powi` is repeated multiplication.)
pub const LIBM_METHODS: &[&str] = &[
    "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "sin", "cos", "tan",
    "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "cbrt", "hypot",
];

/// L1: forbids nondeterministic constructs in the simulation crates. The
/// paper's results tables are reproduced from fixed seeds; a single wall
/// clock read or hash-order iteration breaks run-to-run bit equality, and
/// a libm call (`.exp()`, `f64::ln(..)`, …) makes the bits depend on the
/// platform, so those go through `shoggoth_util::fmath`.
pub fn l1_determinism(file: &SourceFile) -> Vec<Violation> {
    let libm_calls: Vec<String> = LIBM_METHODS
        .iter()
        .flat_map(|m| [format!(".{m}("), format!("f32::{m}("), format!("f64::{m}(")])
        .collect();
    let mut out = Vec::new();
    for (i, line) in file.clean.iter().enumerate() {
        if file.in_test[i] || file.suppressed(i, "determinism") {
            continue;
        }
        let mut flag = |col: usize, message: String| {
            out.push(Violation {
                path: file.path.clone(),
                line: i + 1,
                col: col + 1,
                lint: "L1/determinism",
                message,
            });
        };
        for &(token, why) in L1_BANNED {
            for col in word_starts(line, token) {
                flag(col, format!("`{token}` is nondeterministic: {why}"));
            }
        }
        for token in &libm_calls {
            for col in word_starts(line, token) {
                flag(
                    col,
                    format!(
                        "`{token}..)` calls the platform libm, whose bits vary by target; \
                         use shoggoth_util::fmath"
                    ),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L2 — panic audit
// ---------------------------------------------------------------------------

/// The panicking construct families the audit inventories.
pub const PANIC_KINDS: &[(&str, &[&str])] = &[
    ("panic", &["panic!"]),
    ("unwrap", &[".unwrap()"]),
    ("expect", &[".expect("]),
    ("assert", &["assert!", "assert_eq!", "assert_ne!"]),
    ("unreachable", &["unreachable!"]),
    ("todo", &["todo!"]),
    ("unimplemented", &["unimplemented!"]),
];

/// Files on the per-frame adaptation hot path. These must stay free of
/// `panic!`/`unwrap`/`expect` even via the allowlist — failures there must
/// flow through `TrainError`/`SimError` so a poisoned tensor degrades one
/// session, not the whole fleet simulation.
pub const HOT_PATH: &[&str] = &[
    "crates/core/src/trainer.rs",
    "crates/core/src/sim.rs",
    "crates/core/src/controller.rs",
    "crates/core/src/resilience.rs",
    "crates/core/src/cloud.rs",
];

const HOT_PATH_KINDS: &[&str] = &["panic", "unwrap", "expect"];

/// One allowlist entry: `kind path max justification…`.
pub struct AllowEntry {
    /// 1-based line in the allowlist file (for stale-entry diagnostics).
    pub line: usize,
    /// Panic kind (first column).
    pub kind: String,
    /// Repo-relative file the budget applies to.
    pub path: String,
    /// Maximum count of that kind in that file.
    pub max: usize,
    /// Why the panics are acceptable (required).
    pub justification: String,
}

/// Parses the checked-in allowlist. Each non-comment line is
/// `<kind> <path> <max> <justification…>`; a missing or empty
/// justification is itself an error — the audit exists to force the
/// "why is this panic fine" conversation into the tree.
pub fn parse_allowlist(path: &Path, content: &str) -> Result<Vec<AllowEntry>, Vec<Violation>> {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let known: Vec<&str> = PANIC_KINDS.iter().map(|&(kind, _)| kind).collect();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let entry = (|| {
            let kind = fields.next()?;
            let file = fields.next()?;
            let max: usize = fields.next()?.parse().ok()?;
            let justification = fields.collect::<Vec<_>>().join(" ");
            if justification.is_empty() || !known.contains(&kind) {
                return None;
            }
            Some(AllowEntry {
                line: i + 1,
                kind: kind.to_owned(),
                path: file.to_owned(),
                max,
                justification,
            })
        })();
        match entry {
            Some(e) => entries.push(e),
            None => errors.push(Violation {
                path: path.to_path_buf(),
                line: i + 1,
                col: 1,
                lint: "L2/panic-audit",
                message: format!(
                    "malformed allowlist entry (want `<kind> <path> <max> <justification…>` \
                     with kind one of {known:?}): `{line}`"
                ),
            }),
        }
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// L2: inventories panicking constructs in library sources against the
/// allowlist. Three failure modes:
///
/// * a site not covered by any entry (or beyond its budget) — new panics
///   need a written justification;
/// * a **stale** entry whose budget exceeds the live count — budgets must
///   shrink as code is cleaned up, or the audit rots;
/// * any `panic`/`unwrap`/`expect` budget on a [`HOT_PATH`] file — those
///   must use the typed error channel regardless of justification.
pub fn l2_panic_audit(
    files: &[SourceFile],
    allowlist: &[AllowEntry],
    allowlist_path: &Path,
) -> Vec<Violation> {
    /// A panicking site: `(line, col, token)`.
    type Site = (usize, usize, &'static str);
    let mut out = Vec::new();
    // (path, kind) -> sites
    let mut found: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    for file in files {
        let key_path = file.path.to_string_lossy().replace('\\', "/");
        for (i, line) in file.clean.iter().enumerate() {
            if file.in_test[i] || file.suppressed(i, "panic-audit") {
                continue;
            }
            for &(kind, tokens) in PANIC_KINDS {
                for &token in tokens {
                    for col in word_starts(line, token) {
                        found
                            .entry((key_path.clone(), kind.to_owned()))
                            .or_default()
                            .push((i + 1, col + 1, token));
                    }
                }
            }
        }
    }

    for entry in allowlist {
        let hot = HOT_PATH.contains(&entry.path.as_str())
            && HOT_PATH_KINDS.contains(&entry.kind.as_str());
        if hot {
            out.push(Violation {
                path: allowlist_path.to_path_buf(),
                line: entry.line,
                col: 1,
                lint: "L2/panic-audit",
                message: format!(
                    "`{}` budget on hot-path file {} is not allowlistable: \
                     return TrainError/SimError instead",
                    entry.kind, entry.path
                ),
            });
        }
        let live = found
            .get(&(entry.path.clone(), entry.kind.clone()))
            .map_or(0, Vec::len);
        if live < entry.max {
            out.push(Violation {
                path: allowlist_path.to_path_buf(),
                line: entry.line,
                col: 1,
                lint: "L2/panic-audit",
                message: format!(
                    "stale allowlist entry (\"{}\"): {} `{}` sites budgeted but only {live} \
                     found in {} — lower the budget so the audit stays tight",
                    entry.justification, entry.max, entry.kind, entry.path
                ),
            });
        }
    }

    for ((path, kind), sites) in &found {
        let budget = allowlist
            .iter()
            .find(|e| &e.path == path && &e.kind == kind)
            .map_or(0, |e| e.max);
        if sites.len() <= budget {
            continue;
        }
        for &(line, col, token) in &sites[budget..] {
            out.push(Violation {
                path: PathBuf::from(path),
                line,
                col,
                lint: "L2/panic-audit",
                message: format!(
                    "`{token}` exceeds the allowlist budget for this file ({} of {} `{kind}` \
                     sites covered); return a typed error, or justify it in {}",
                    budget,
                    sites.len(),
                    allowlist_path.display()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L3 — float hygiene
// ---------------------------------------------------------------------------

/// Reads a possible numeric literal starting at `chars[i]` (skipping an
/// optional sign) and reports whether it is a *float* literal: contains a
/// `.` followed by a digit, an exponent, or an `f32`/`f64` suffix.
/// `0..n` range syntax is rejected.
fn float_literal_at(chars: &[char], mut i: usize) -> bool {
    if chars.get(i) == Some(&'-') {
        i += 1;
    }
    let start = i;
    while chars.get(i).is_some_and(char::is_ascii_digit) {
        i += 1;
    }
    if i == start {
        return false;
    }
    let mut floaty = false;
    if chars.get(i) == Some(&'.') && chars.get(i + 1) != Some(&'.') {
        floaty = true;
        i += 1;
        while chars.get(i).is_some_and(char::is_ascii_digit) {
            i += 1;
        }
    }
    if matches!(chars.get(i), Some('e' | 'E'))
        && (chars.get(i + 1).is_some_and(char::is_ascii_digit)
            || matches!(chars.get(i + 1), Some('-' | '+')))
    {
        floaty = true;
        i += 2;
        while chars.get(i).is_some_and(char::is_ascii_digit) {
            i += 1;
        }
    }
    if chars.get(i) == Some(&'_') {
        i += 1;
    }
    if chars.get(i) == Some(&'f')
        && matches!(chars.get(i + 1), Some('3' | '6'))
        && matches!(chars.get(i + 2), Some('2' | '4'))
    {
        floaty = true;
    }
    floaty
}

/// Whether a float literal ends exactly at char index `end` (exclusive),
/// scanning backwards over `[0-9._]` plus an `f32`/`f64` suffix.
fn float_literal_before(chars: &[char], end: usize) -> bool {
    let mut start = end;
    while start > 0 {
        let c = chars[start - 1];
        if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
            start -= 1;
        } else if matches!(c, '+' | '-')
            && start >= 2
            && matches!(chars[start - 2], 'e' | 'E')
            && start < end
        {
            // An exponent sign inside `1.5e-3`; keep scanning.
            start -= 1;
        } else {
            break;
        }
    }
    if start == end {
        return false;
    }
    let token: String = chars[start..end].iter().collect();
    if token.contains("..") {
        return false;
    }
    let token_chars: Vec<char> = token.chars().collect();
    float_literal_at(&token_chars, 0)
}

/// L3: float hygiene.
///
/// * Bare `==`/`!=` against a float literal — use
///   `shoggoth_util::float::{is_exact_zero, bit_eq, approx_eq}` so the
///   comparison semantics (bit-exact? tolerance?) are stated.
/// * `partial_cmp(..).unwrap()`/`.expect(..)` — a single NaN panics the
///   process; use `total_cmp` or handle the `None`.
pub fn l3_float_hygiene(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.clean.iter().enumerate() {
        if file.in_test[i] || file.suppressed(i, "float-eq") {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        for col in 0..chars.len().saturating_sub(1) {
            let op = [chars[col], chars[col + 1]];
            if op != ['=', '='] && op != ['!', '='] {
                continue;
            }
            // Exclude `<=`, `>=`, `===`-like runs and `a != =` noise.
            if col > 0 && matches!(chars[col - 1], '=' | '<' | '>' | '!') {
                continue;
            }
            if chars.get(col + 2) == Some(&'=') {
                continue;
            }
            // Operand after the operator …
            let mut j = col + 2;
            while chars.get(j) == Some(&' ') {
                j += 1;
            }
            let rhs_float = float_literal_at(&chars, j);
            // … or before it.
            let mut k = col;
            while k > 0 && chars[k - 1] == ' ' {
                k -= 1;
            }
            let lhs_float = float_literal_before(&chars, k);
            if rhs_float || lhs_float {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    col: col + 1,
                    lint: "L3/float-eq",
                    message: format!(
                        "bare `{}{}` against a float literal; use \
                         shoggoth_util::float::{{is_exact_zero, bit_eq, approx_eq}}",
                        op[0], op[1]
                    ),
                });
            }
        }
        for col in word_starts(line, "partial_cmp") {
            let rest: String = chars[col..].iter().collect();
            if rest.contains(".unwrap()") || rest.contains(".expect(") {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    col: col + 1,
                    lint: "L3/float-eq",
                    message: "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp` \
                              or handle the `None`"
                        .to_owned(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L4 — unit suffixes
// ---------------------------------------------------------------------------

/// Physical dimension of a recognised identifier suffix.
fn unit_dimension(ident: &str) -> Option<&'static str> {
    let suffix = ident.rsplit('_').next().unwrap_or(ident);
    match suffix {
        "ms" | "secs" | "sec" | "ns" | "us" => Some("time"),
        "bytes" | "kb" | "mb" | "gb" => Some("data"),
        "mbps" | "kbps" | "bps" => Some("bandwidth"),
        "fps" | "hz" => Some("frequency"),
        _ => None,
    }
}

/// Extracts the identifier chain (`a.b.c` → last segment) starting at
/// `chars[i]`, returning the final segment, or `None` if `chars[i]` does
/// not start an identifier.
fn ident_chain_last(chars: &[char], mut i: usize) -> Option<String> {
    let mut last = None;
    loop {
        let start = i;
        while chars
            .get(i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
        {
            i += 1;
        }
        if i == start {
            return last;
        }
        last = Some(chars[start..i].iter().collect());
        if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|c| c.is_ascii_alphabetic()) {
            i += 1;
        } else {
            return last;
        }
    }
}

/// L4: flags `+`/`-` (and `+=`/`-=`) arithmetic between identifiers whose
/// unit suffixes name different dimensions — `deadline_ms - frame_bytes`
/// type-checks (both `u64`) but is always a bug. Multiplication and
/// division are left alone: they are how unit conversions are written.
pub fn l4_unit_suffixes(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.clean.iter().enumerate() {
        if file.in_test[i] || file.suppressed(i, "unit-mix") {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        for col in 0..chars.len() {
            if !matches!(chars[col], '+' | '-') {
                continue;
            }
            // Skip `->`, `+=`/`-=` handled by looking past the `=`.
            let mut after = col + 1;
            if chars.get(after) == Some(&'>') {
                continue;
            }
            if chars.get(after) == Some(&'=') {
                after += 1;
            }
            // Left operand: identifier ending right before the operator.
            let mut k = col;
            while k > 0 && chars[k - 1] == ' ' {
                k -= 1;
            }
            let mut start = k;
            while start > 0 {
                let c = chars[start - 1];
                if c.is_ascii_alphanumeric() || c == '_' {
                    start -= 1;
                } else {
                    break;
                }
            }
            if start == k {
                continue;
            }
            let lhs: String = chars[start..k].iter().collect();
            // Right operand: identifier chain after the operator.
            let mut j = after;
            while chars.get(j) == Some(&' ') {
                j += 1;
            }
            let Some(rhs) = ident_chain_last(&chars, j) else {
                continue;
            };
            let (Some(ld), Some(rd)) = (unit_dimension(&lhs), unit_dimension(&rhs)) else {
                continue;
            };
            if ld != rd {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    col: col + 1,
                    lint: "L4/unit-mix",
                    message: format!(
                        "`{lhs} {} {rhs}` mixes {ld} with {rd}; convert explicitly first",
                        chars[col]
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L5 — telemetry hygiene
// ---------------------------------------------------------------------------

/// Tokens forbidden in `crates/tensor/src`: the hot tensor kernels must
/// never see a telemetry recorder — events belong at the pipeline layer,
/// not inside `matmul`.
const L5_TENSOR_BANNED: &[(&str, &str)] = &[
    (
        "Recorder",
        "tensor kernels must not emit telemetry; record at the pipeline layer",
    ),
    (
        "shoggoth_telemetry",
        "tensor kernels must not depend on the telemetry crate",
    ),
];

/// Tokens forbidden in `crates/telemetry/src`: stamps come from sim time
/// and frame indices only, and exports must iterate deterministically.
/// (The telemetry crate is deliberately *not* in [`DETERMINISTIC_CRATES`]
/// so each site reports one violation, under this lint's name.)
const L5_TELEMETRY_BANNED: &[(&str, &str)] = &[
    (
        "Instant::now",
        "telemetry stamps use sim time, never wall clock",
    ),
    (
        "SystemTime",
        "telemetry stamps use sim time, never wall clock",
    ),
    (
        "thread_rng",
        "recorders are observation-only and never draw randomness",
    ),
    (
        "rand::random",
        "recorders are observation-only and never draw randomness",
    ),
    (
        "HashMap",
        "exports must iterate deterministically; use BTreeMap or a Vec",
    ),
    (
        "HashSet",
        "exports must iterate deterministically; use BTreeSet or a Vec",
    ),
];

/// Whether `path` lives under `crates/<krate>/src`.
fn in_crate_src(path: &Path, krate: &str) -> bool {
    let mut parts = path.components().map(|c| c.as_os_str());
    parts.next() == Some("crates".as_ref())
        && parts.next().is_some_and(|name| name == krate)
        && parts.next() == Some("src".as_ref())
}

/// L5: telemetry hygiene. Keeps the observability layer on the right side
/// of two boundaries: the tensor kernels stay telemetry-free (no recorder
/// plumbed into the hot loops), and the telemetry crate itself stays
/// deterministic (sim-time stamps, no wall clocks or OS randomness).
pub fn l5_telemetry_hygiene(file: &SourceFile) -> Vec<Violation> {
    let banned: &[(&str, &str)] = if in_crate_src(&file.path, "tensor") {
        L5_TENSOR_BANNED
    } else if in_crate_src(&file.path, "telemetry") {
        L5_TELEMETRY_BANNED
    } else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, line) in file.clean.iter().enumerate() {
        if file.in_test[i] || file.suppressed(i, "telemetry-hygiene") {
            continue;
        }
        for &(token, why) in banned {
            for col in word_starts(line, token) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    col: col + 1,
                    lint: "L5/telemetry-hygiene",
                    message: format!("`{token}`: {why}"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("crates/core/src/demo.rs"), src)
    }

    #[test]
    fn l1_flags_wall_clocks_and_hashmaps() {
        let f = file("let t = Instant::now();\nlet m: HashMap<u32, u32> = HashMap::new();\n");
        let v = l1_determinism(&f);
        assert_eq!(v.len(), 3, "Instant::now + two HashMap mentions");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("Instant::now"));
    }

    #[test]
    fn l1_ignores_tests_comments_and_suppressed_lines() {
        let src = "\
// HashMap would be fine to mention here
let m = BTreeMap::new();
let h: HashMap<u8, u8> = HashMap::new(); // lint:allow(determinism) interned, never iterated

#[cfg(test)]
mod tests {
    fn t() { let _ = std::time::Instant::now(); }
}
";
        assert!(l1_determinism(&file(src)).is_empty());
    }

    #[test]
    fn l1_sees_code_after_a_field_level_test_attribute() {
        let src = "\
struct Engine {
    #[cfg(test)]
    counts: Counts,
}

impl Engine {
    fn student_changed(&mut self) {
        let t = std::time::Instant::now();
    }
}
";
        let v = l1_determinism(&file(src));
        assert_eq!(v.len(), 1, "the wall clock in `impl Engine` is real code");
        assert_eq!(v[0].line, 8);
    }

    #[test]
    fn l1_flags_each_libm_method_in_both_call_forms() {
        for method in LIBM_METHODS {
            for call in [format!("x.{method}()"), format!("f64::{method}(x)")] {
                let v = l1_determinism(&file(&format!("let y = {call};\n")));
                assert_eq!(v.len(), 1, "`{call}`");
                assert!(v[0].message.contains("libm"), "`{call}`: {}", v[0].message);
            }
        }
    }

    #[test]
    fn l1_allows_libm_in_tests_and_lookalike_names() {
        let src = "\
let r = x.sqrt() + x.powi(2) + x.exp_ratio() + explain(x) + x.cosine();
// x.exp() in a comment
let s = \"x.ln()\";

#[cfg(test)]
mod tests {
    fn t(x: f64) -> f64 { x.exp() + x.ln() + f64::sin(x) }
}
";
        assert!(l1_determinism(&file(src)).is_empty());
    }

    #[test]
    fn word_boundaries_exclude_debug_assert_and_unwrap_or() {
        let f = file(
            "debug_assert!(x > 0);\nlet y = opt.unwrap_or(3);\nlet z = res.expect_err(\"e\");\n",
        );
        let v = l2_panic_audit(&[f], &[], Path::new("allow.txt"));
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn l2_unbudgeted_panics_are_flagged_with_positions() {
        let f = file("fn f() {\n    x.unwrap();\n}\n");
        let v = l2_panic_audit(&[f], &[], Path::new("allow.txt"));
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].col), (2, 6));
        assert!(v[0].message.contains(".unwrap()"));
    }

    #[test]
    fn l2_budget_covers_exact_count_and_flags_overflow() {
        let allow = vec![AllowEntry {
            line: 1,
            kind: "assert".to_owned(),
            path: "crates/core/src/demo.rs".to_owned(),
            max: 1,
            justification: "constructor invariant".to_owned(),
        }];
        let ok = file("assert!(cap > 0);\n");
        assert!(l2_panic_audit(&[ok], &allow, Path::new("a.txt")).is_empty());
        let over = file("assert!(cap > 0);\nassert!(dim > 0);\n");
        let v = l2_panic_audit(&[over], &allow, Path::new("a.txt"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn l2_stale_budget_is_an_error() {
        let allow = vec![AllowEntry {
            line: 4,
            kind: "unwrap".to_owned(),
            path: "crates/core/src/demo.rs".to_owned(),
            max: 2,
            justification: "legacy".to_owned(),
        }];
        let clean = file("fn f() {}\n");
        let v = l2_panic_audit(&[clean], &allow, Path::new("a.txt"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4, "points at the allowlist entry");
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn l2_hot_path_budgets_are_rejected() {
        let allow = vec![AllowEntry {
            line: 2,
            kind: "expect".to_owned(),
            path: "crates/core/src/trainer.rs".to_owned(),
            max: 1,
            justification: "temporary".to_owned(),
        }];
        let v = l2_panic_audit(&[], &allow, Path::new("a.txt"));
        assert!(v.iter().any(|v| v.message.contains("hot-path")));
    }

    #[test]
    fn allowlist_parsing_requires_justification() {
        let good = "# comment\nassert crates/core/src/replay.rs 1 capacity invariant\n";
        let entries = parse_allowlist(Path::new("a.txt"), good)
            .map_err(|_| ())
            .expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].max, 1);
        assert_eq!(entries[0].justification, "capacity invariant");

        let missing = "assert crates/core/src/replay.rs 1\n";
        assert!(parse_allowlist(Path::new("a.txt"), missing).is_err());
        let bad_kind = "segfault crates/core/src/replay.rs 1 because\n";
        assert!(parse_allowlist(Path::new("a.txt"), bad_kind).is_err());
    }

    #[test]
    fn l3_flags_bare_float_compares_both_sides() {
        let f = file("if x == 0.0 { }\nif 1.5e-3 != y { }\nif x == y { }\n");
        let v = l3_float_hygiene(&f);
        assert_eq!(v.len(), 2, "typed-only compare on line 3 is not flagged");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn l3_leaves_ranges_ints_and_tolerant_helpers_alone() {
        let src = "\
if n == 0 { }
for i in 0..10 { }
if approx_eq(a, b, 1e-9) { }
let ok = x <= 0.5 && y >= 1.0;
";
        assert!(l3_float_hygiene(&file(src)).is_empty());
    }

    #[test]
    fn l3_flags_partial_cmp_unwrap() {
        let f = file("v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n");
        let v = l3_float_hygiene(&f);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("total_cmp"));
        let ok = file("v.sort_by(|a, b| a.total_cmp(b));\n");
        assert!(l3_float_hygiene(&ok).is_empty());
    }

    #[test]
    fn l4_flags_cross_dimension_sums() {
        let f = file("let x = deadline_ms - frame.size_bytes;\nlet y = budget_ms + latency_ms;\n");
        let v = l4_unit_suffixes(&f);
        assert_eq!(v.len(), 1, "same-dimension sum on line 2 is fine");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("time"));
        assert!(v[0].message.contains("data"));
    }

    #[test]
    fn l5_flags_recorders_in_tensor_kernels() {
        let f = SourceFile::parse(
            PathBuf::from("crates/tensor/src/kernel.rs"),
            "fn run<R: Recorder>(rec: &mut R) { shoggoth_telemetry::noop(); }\n",
        );
        let v = l5_telemetry_hygiene(&f);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.lint == "L5/telemetry-hygiene"));
    }

    #[test]
    fn l5_flags_wall_clocks_in_telemetry() {
        let f = SourceFile::parse(
            PathBuf::from("crates/telemetry/src/recorder.rs"),
            "let t = Instant::now();\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        let v = l5_telemetry_hygiene(&f);
        assert_eq!(v.len(), 3, "Instant::now + two HashMap mentions");
    }

    #[test]
    fn l5_ignores_other_crates_and_suppressed_lines() {
        assert!(l5_telemetry_hygiene(&file("let r: Recorder = x;\n")).is_empty());
        let suppressed = SourceFile::parse(
            PathBuf::from("crates/telemetry/src/lib.rs"),
            "let t = SystemTime::now(); // lint:allow(telemetry-hygiene)\n",
        );
        assert!(l5_telemetry_hygiene(&suppressed).is_empty());
    }

    #[test]
    fn l4_allows_conversions_and_unitless_operands() {
        let src = "\
let rate = frame_bytes / window_secs;
let scaled = latency_ms * factor;
let total = count + frame_bytes;
";
        assert!(l4_unit_suffixes(&file(src)).is_empty());
    }
}
