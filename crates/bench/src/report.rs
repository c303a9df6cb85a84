//! What an experiment returns and how it is printed: fixed-width [`Table`]s
//! collected into one [`Report`], rendered either as text for people or as
//! the JSON envelope `{"experiment": …, "threads": N, "<key>": …}` that CI
//! and the committed `BENCH_*.json` files read.

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
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

/// Whether `s` matches the JSON number grammar exactly
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`). Rust's `f64` parser is
/// laxer than JSON (`"+1"`, `"1."`, `".5"`), so cells must pass this check to
/// be emitted unquoted.
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i - int_start > 1) {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Renders a cell as a JSON value: numeric cells stay numbers, the rest
/// become strings.
fn json_cell(s: &str) -> String {
    if is_json_number(s) {
        s.to_string()
    } else {
        format!("\"{}\"", json_escape(s))
    }
}

/// Simple fixed-width table of stringified cells.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as a JSON array of row objects keyed by the headers;
    /// numeric-looking cells are emitted as JSON numbers.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(header), json_cell(cell)));
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One experiment's result: a title, named tables, scalar envelope fields
/// and the reading that says what the numbers show.
pub struct Report {
    title: String,
    tables: Vec<(&'static str, String, Table)>,
    fields: Vec<(&'static str, String)>,
    reading: String,
}

impl Report {
    /// An empty report under `title` (the first line of the text output).
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            tables: Vec::new(),
            fields: Vec::new(),
            reading: String::new(),
        }
    }

    /// Adds a table under the envelope key `key`; `caption` heads it in the
    /// text output (empty for none).
    pub fn table(mut self, key: &'static str, caption: impl Into<String>, table: Table) -> Self {
        self.tables.push((key, caption.into(), table));
        self
    }

    /// Adds a scalar envelope field; numeric-looking values stay JSON numbers.
    pub fn field(mut self, key: &'static str, value: impl ToString) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Sets the reading printed after the tables.
    pub fn reading(mut self, text: impl Into<String>) -> Self {
        self.reading = text.into();
        self
    }

    /// The JSON envelope: `experiment` and `threads` (the global pool's
    /// size), then every table and every field in the order added.
    pub fn render_json(&self, experiment: &str) -> String {
        let mut out = format!(
            "{{\"experiment\":\"{}\",\"threads\":{}",
            json_escape(experiment),
            rayon::current_num_threads()
        );
        for (key, _, table) in &self.tables {
            out.push_str(&format!(
                ",\"{}\":{}",
                json_escape(key),
                table.render_json()
            ));
        }
        for (key, value) in &self.fields {
            out.push_str(&format!(",\"{}\":{}", json_escape(key), json_cell(value)));
        }
        out.push('}');
        out
    }

    /// The text form: title, captioned tables, `key: value` fields, reading.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}\n\n", self.title);
        for (_, caption, table) in &self.tables {
            if !caption.is_empty() {
                out.push_str(&format!("{caption}\n\n"));
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        for (key, value) in &self.fields {
            out.push_str(&format!("{key}: {value}\n"));
        }
        if !self.reading.is_empty() {
            out.push_str(&format!("\nReading: {}\n", self.reading));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = Table::new(vec!["algo", "rounds"]);
        t.row(vec!["ours", "42"]);
        t.row(vec!["warmup", "130"]);
        let rendered = t.render();
        assert!(rendered.contains("ours"));
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    fn table_renders_json_rows() {
        let mut t = Table::new(vec!["algo", "rounds", "ratio"]);
        t.row(vec!["ours \"fast\"", "42", "0.50"]);
        assert_eq!(
            t.render_json(),
            r#"[{"algo":"ours \"fast\"","rounds":42,"ratio":0.50}]"#
        );
    }

    #[test]
    fn json_cells_follow_json_number_grammar() {
        // Rust-parseable but JSON-invalid numbers must be quoted.
        let mut t = Table::new(vec!["a", "b", "c", "d", "e"]);
        t.row(vec!["+1", "1.", ".5", "007", "-0.5e+3"]);
        assert_eq!(
            t.render_json(),
            r#"[{"a":"+1","b":"1.","c":".5","d":"007","e":-0.5e+3}]"#
        );
    }

    #[test]
    fn report_renders_the_envelope_in_order() {
        let mut rows = Table::new(vec!["n"]);
        rows.row(vec!["1"]);
        let report = Report::new("title")
            .table("rows", "", rows)
            .field("slope", "0.500")
            .field("note", "NaN")
            .reading("flat");
        let doc = report.render_json("exp_x");
        assert!(doc.starts_with("{\"experiment\":\"exp_x\",\"threads\":"));
        assert!(doc.ends_with(",\"rows\":[{\"n\":1}],\"slope\":0.500,\"note\":\"NaN\"}"));
        let text = report.render_text();
        assert!(text.starts_with("title\n\n"));
        assert!(text.contains("slope: 0.500\n"));
        assert!(text.ends_with("Reading: flat\n"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
