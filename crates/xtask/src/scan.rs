//! Lexical preprocessing shared by all lints.
//!
//! The lints operate on *scrubbed* source: comments and string/char
//! literals are blanked out (each character replaced by a space, newlines
//! preserved) so that token searches cannot match inside prose or test
//! fixtures. Line and column numbers therefore map 1:1 onto the raw file.
//!
//! On top of the scrub, [`SourceFile`] marks which lines belong to an
//! item under `#[cfg(test)]` (a module, a block, a field or a statement,
//! found by bracket matching on the scrubbed text) and which lines carry an inline `// lint:allow(<name>)` suppression in
//! the raw source.

use std::path::PathBuf;

/// One preprocessed source file.
pub struct SourceFile {
    /// Path as reported in diagnostics (repo-relative).
    pub path: PathBuf,
    /// Raw lines, 0-indexed (line `i` is reported as line `i + 1`).
    pub raw: Vec<String>,
    /// Scrubbed lines, same indexing and char columns as `raw`.
    pub clean: Vec<String>,
    /// `in_test[i]` — line `i` is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Preprocesses raw file content.
    pub fn parse(path: PathBuf, content: &str) -> Self {
        let clean_text = scrub(content);
        let raw: Vec<String> = content.lines().map(str::to_owned).collect();
        let clean: Vec<String> = clean_text.lines().map(str::to_owned).collect();
        let in_test = mark_test_lines(&clean);
        Self {
            path,
            raw,
            clean,
            in_test,
        }
    }

    /// Lines outside `#[cfg(test)]` items with code left after the
    /// scrub: the non-test, non-comment, non-blank line count `xtask loc`
    /// reports. A line wholly inside a string literal does not count.
    pub fn code_lines(&self) -> usize {
        self.clean
            .iter()
            .zip(&self.in_test)
            .filter(|(line, &test)| !test && !line.trim().is_empty())
            .count()
    }

    /// Whether line `i` (0-indexed) carries `lint:allow(<name>)` in a
    /// comment, suppressing the named lint for that line.
    pub fn suppressed(&self, i: usize, lint: &str) -> bool {
        let Some(line) = self.raw.get(i) else {
            return false;
        };
        line.match_indices("lint:allow(")
            .any(|(start, pat)| line[start + pat.len()..].starts_with(lint))
    }
}

/// Lexer state of [`scrub`].
enum State {
    Code,
    LineComment,
    BlockComment { depth: usize },
    Str,
    StrEscape,
    RawStr { hashes: usize },
    Char,
    CharEscape,
}

/// Blanks comments and string/char literals: every non-newline character
/// inside them becomes a space, so scrubbed lines keep the raw line count
/// and char columns.
pub fn scrub(content: &str) -> String {
    let chars: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut state = State::Code;
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment { depth: 1 };
                    out.push(' ');
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                }
                'r' | 'b' if starts_raw_string(&chars, i) => {
                    // Skip the prefix (r / br / rb) and count the hashes.
                    let mut j = i;
                    while matches!(chars.get(j), Some('r' | 'b')) {
                        out.push(' ');
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        out.push(' ');
                        j += 1;
                    }
                    // `j` is the opening quote.
                    out.push(' ');
                    i = j;
                    state = State::RawStr { hashes };
                }
                'b' if next == Some('\'') => {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    state = State::Char;
                }
                '\'' => {
                    if is_char_literal(&chars, i) {
                        state = State::Char;
                        out.push(' ');
                    } else {
                        // A lifetime — plain code.
                        out.push(c);
                    }
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment { depth } => {
                if c == '*' && next == Some('/') {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment { depth: depth - 1 };
                    }
                } else if c == '/' && next == Some('*') {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    state = State::BlockComment { depth: depth + 1 };
                } else {
                    out.push(blank(c));
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    state = State::StrEscape;
                }
                '"' => {
                    out.push(' ');
                    state = State::Code;
                }
                _ => out.push(blank(c)),
            },
            State::StrEscape => {
                out.push(blank(c));
                state = State::Str;
            }
            State::RawStr { hashes } => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += hashes;
                    state = State::Code;
                } else {
                    out.push(blank(c));
                }
            }
            State::Char => match c {
                '\\' => {
                    out.push(' ');
                    state = State::CharEscape;
                }
                '\'' => {
                    out.push(' ');
                    state = State::Code;
                }
                _ => out.push(blank(c)),
            },
            State::CharEscape => {
                out.push(blank(c));
                state = State::Char;
            }
        }
        i += 1;
    }
    out
}

/// Whether `chars[i..]` begins a raw (or raw-byte) string literal:
/// `r"`, `r#`, `br"`, `br#`, `rb"` …
fn starts_raw_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    // At most two prefix letters (`br` / `rb`).
    for _ in 0..2 {
        match chars.get(j) {
            Some('r') => {
                saw_r = true;
                j += 1;
            }
            Some('b') => j += 1,
            _ => break,
        }
    }
    if !saw_r {
        return false;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Whether the `"` at `chars[i]` is followed by `hashes` `#` characters.
fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal `'x'` from a lifetime `'a`. The quote at
/// `chars[i]` opens a char literal when an escape follows, or when the
/// content is a single char closed by another quote.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks every line of an item that carries `#[cfg(test)]`, on scrubbed
/// lines. The attribute covers only the item it is attached to: a braced
/// item (`mod tests { … }`, a `fn`, a `{ … }` block) up to its matching
/// `}`, and a field, statement or `use` up to its `,` or `;`.
fn mark_test_lines(clean: &[String]) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let mut in_test = vec![false; clean.len()];
    let mut i = 0;
    while i < clean.len() {
        let Some(at) = clean[i].find(ATTR) else {
            i += 1;
            continue;
        };
        let end = item_end(clean, i, at + ATTR.len());
        for flag in &mut in_test[i..=end] {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// The line on which the item that starts at byte `col` of line `start`
/// ends: the `}` that closes its first brace group (unless a `,`, `;`,
/// `.` or `?` follows, as after a struct literal), or its first `,` or
/// `;` outside brackets. `,` inside a generic argument list does not
/// count. An item that never ends runs to the last line.
fn item_end(clean: &[String], start: usize, col: usize) -> usize {
    let mut depth = 0usize;
    let mut angle = 0usize;
    let mut closed_at = None;
    let mut prev = ' ';
    for (j, line) in clean.iter().enumerate().skip(start) {
        let from = if j == start { col } else { 0 };
        for c in line[from..].chars() {
            if let Some(end) = closed_at {
                if c.is_whitespace() {
                    continue;
                }
                if !matches!(c, ',' | ';' | '.' | '?') {
                    return end;
                }
                closed_at = None;
            }
            match c {
                '{' | '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        closed_at = Some(j);
                    }
                }
                '<' if depth == 0 => angle += 1,
                '>' if depth == 0 && !matches!(prev, '-' | '=') => {
                    angle = angle.saturating_sub(1);
                }
                ';' if depth == 0 => return j,
                ',' if depth == 0 && angle == 0 => return j,
                _ => {}
            }
            prev = c;
        }
    }
    closed_at.unwrap_or(clean.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_line_comments() {
        let clean = scrub("let x = 1; // trailing .unwrap() note\nlet y = 2;");
        assert!(clean.contains("let x = 1;"));
        assert!(!clean.contains("unwrap"));
        assert!(clean.contains("let y = 2;"));
    }

    #[test]
    fn scrub_blanks_nested_block_comments() {
        let clean = scrub("a /* outer /* inner */ still comment */ b");
        assert!(clean.starts_with('a'));
        assert!(clean.ends_with('b'));
        assert!(!clean.contains("comment"));
    }

    #[test]
    fn scrub_blanks_strings_and_keeps_columns() {
        let src = "call(\"panic! inside\"); next";
        let clean = scrub(src);
        assert_eq!(clean.chars().count(), src.chars().count());
        assert!(!clean.contains("panic!"));
        assert!(clean.contains("call("));
        assert!(clean.contains("next"));
    }

    #[test]
    fn scrub_handles_escaped_quotes() {
        let clean = scrub(r#"let s = "he said \"hi\""; done()"#);
        assert!(clean.contains("done()"));
        assert!(!clean.contains("hi"));
    }

    #[test]
    fn scrub_handles_raw_strings() {
        let clean = scrub(r##"let s = r#"raw "quoted" .unwrap()"#; after()"##);
        assert!(clean.contains("after()"));
        assert!(!clean.contains("unwrap"));
    }

    #[test]
    fn scrub_keeps_lifetimes_but_blanks_char_literals() {
        let clean = scrub("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; }");
        assert!(clean.contains("<'a>"));
        assert!(clean.contains("&'a str"));
        assert!(!clean.contains('y'), "char literal content must be blanked");
    }

    #[test]
    fn scrub_preserves_line_structure() {
        let src = "a\n/* two\nlines */\nb\n";
        let clean = scrub(src);
        assert_eq!(clean.lines().count(), src.lines().count());
    }

    #[test]
    fn test_modules_are_marked() {
        let src = "\
fn live() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}

fn also_live() {}
";
        let f = SourceFile::parse(PathBuf::from("x.rs"), src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[3], "mod tests line");
        assert!(f.in_test[5], "test body line");
        assert!(!f.in_test[8], "code after the test mod");
    }

    /// The lines of `src` the scanner masks as test code.
    fn masked(src: &str) -> Vec<usize> {
        let f = SourceFile::parse(PathBuf::from("x.rs"), src);
        (0..f.in_test.len()).filter(|&i| f.in_test[i]).collect()
    }

    #[test]
    fn a_field_attribute_masks_only_its_field() {
        let src = "\
struct Engine {
    #[cfg(test)]
    counts: BTreeMap<usize, (u8, u8)>,
    live: u32,
}

impl Engine {
    fn step(&mut self) { x.unwrap(); }
}
";
        assert_eq!(masked(src), [1, 2]);
        let literal = "\
let e = Engine {
    #[cfg(test)]
    counts: Counts { a: 0, b: 1 },
    live: 0,
};
fn after() {}
";
        assert_eq!(masked(literal), [1, 2]);
    }

    #[test]
    fn a_statement_attribute_masks_only_its_statement() {
        let src = "\
fn step(&mut self) {
    #[cfg(test)]
    let seen: Vec<(u8, u8)> = Vec::new();
    self.live += 1;
}

fn adapt() {}
";
        assert_eq!(masked(src), [1, 2]);
    }

    #[test]
    fn a_block_attribute_masks_up_to_its_closing_brace() {
        let src = "\
fn step(&mut self) {
    #[cfg(test)]
    {
        self.used += 1;
    }
    self.live += 1;
}

fn adapt() -> Result<u8, ()> { Ok(0) }
";
        assert_eq!(masked(src), [1, 2, 3, 4]);
    }

    #[test]
    fn code_lines_skip_tests_comments_and_blanks() {
        let src = "\
//! Module doc.

/// Item doc.
fn live() {
    let s = \"text\"; // trailing comment
    /* block
       comment */
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let f = SourceFile::parse(PathBuf::from("x.rs"), src);
        // `fn live() {`, the `let`, and the closing brace.
        assert_eq!(f.code_lines(), 3);
    }

    #[test]
    fn suppressions_are_line_scoped() {
        let src =
            "let a = x.unwrap(); // lint:allow(panic-audit) startup only\nlet b = y.unwrap();\n";
        let f = SourceFile::parse(PathBuf::from("x.rs"), src);
        assert!(f.suppressed(0, "panic-audit"));
        assert!(!f.suppressed(0, "float-eq"));
        assert!(!f.suppressed(1, "panic-audit"));
    }
}
