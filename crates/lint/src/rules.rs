//! The four project-specific rules.
//!
//! * **D001 nondeterministic-iteration** — in non-test code of
//!   artifact-producing crates, (a) declaring a std `HashMap`/`HashSet` with
//!   the default `RandomState` hasher is a finding unless waived with a
//!   proof it is never iterated, and (b) iterating, `find`-ing over,
//!   `retain`-ing or draining *any* tracked hash map/set (custom hashers
//!   included) is a finding: hash-order traversal is exactly how artifact
//!   bytes stop being reproducible. This mechanically re-proves the PR 5
//!   "PTS map is never iterated" claim on every run.
//! * **D002 nondeterminism-source** — `Instant::now`, `SystemTime`,
//!   `RandomState` and `std::env` reads outside the allowlisted
//!   runner-profiling / bench-timer modules.
//! * **H001 hot-path-allocation** — functions registered in `lint.toml` must
//!   not allocate (`Vec::new`, `vec!`, `collect`, `format!`, `to_string`,
//!   `Box::new`, ...), locking in the PR 3 allocation-free guarantee.
//! * **U001 unreferenced-public-item** — a non-test `pub` `fn`, `struct`,
//!   `enum`, `trait`, `const`, `static` or `type` in a scanned `src/` tree
//!   that nothing in the workspace uses, so dead public API fails CI instead
//!   of piling up. A use is an identifier token of a scanned file or of the
//!   workspace's tests, benches, examples and `perfbench/src`, outside `use`
//!   declarations and the name position of item definitions, or an
//!   identifier in a string literal's `{}` hole (an inline format argument
//!   such as `"{NAME}/..."`). Comments, doc-tests included, are not uses.
//!   The rule matches by name, not by path, so two items that share a name
//!   hide each other: a use of either counts for both. That error only ever
//!   keeps the rule silent; it never flags an item that something uses.

use std::collections::HashSet;

use crate::config::Config;
use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Finding, Report};

/// Ids of the rules above; a waiver naming any other id is a config error.
pub const RULE_IDS: [&str; 4] = ["D001", "D002", "H001", "U001"];

/// Methods whose receiver traversal is hash-order-dependent.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// `std::env` functions that read ambient process state.
const ENV_READS: &[&str] = &[
    "var", "var_os", "vars", "vars_os", "args", "args_os", "temp_dir",
];

/// Owning types whose `::new`/`::from`/`::with_capacity` allocate.
const ALLOCATING_TYPES: &[&str] = &[
    "Vec",
    "Box",
    "String",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "BinaryHeap",
];

/// Method calls that allocate on the spot.
const ALLOCATING_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect"];

/// One parsed source file ready for rule scans.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Package name of the owning crate.
    pub crate_name: String,
    /// Token stream (comments and whitespace stripped).
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is true if token `i` sits in `#[cfg(test)]` /
    /// `#[test]`-attributed code.
    pub test_mask: Vec<bool>,
    /// Raw source lines (1-indexed via `line - 1`), used to match waiver
    /// `contains` selectors.
    pub lines: Vec<String>,
}

impl FileContext {
    /// Lexes `source` and precomputes the test-code mask.
    #[must_use]
    pub fn new(rel_path: impl Into<String>, crate_name: impl Into<String>, source: &str) -> Self {
        let tokens = lex(source);
        let test_mask = compute_test_mask(&tokens);
        FileContext {
            rel_path: rel_path.into(),
            crate_name: crate_name.into(),
            tokens,
            test_mask,
            lines: source.lines().map(str::to_string).collect(),
        }
    }

    fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", String::as_str)
    }
}

/// Runs every rule over the given files and applies waivers. U001 runs only
/// when `references` holds the rest of the workspace's sources: without
/// them a use outside `files` would go unseen.
#[must_use]
pub fn run(files: &[FileContext], references: Option<&[FileContext]>, config: &Config) -> Report {
    let mut findings = Vec::new();
    for ctx in files {
        d001(ctx, config, &mut findings);
        d002(ctx, config, &mut findings);
    }
    h001(files, config, &mut findings);
    if let Some(references) = references {
        u001(files, references, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    apply_waivers(files, config, &mut findings);
    Report {
        findings,
        files_checked: files.len(),
    }
}

/// Marks findings covered by a `lint.toml` waiver (rule + file suffix +
/// line-content substring all matching).
fn apply_waivers(files: &[FileContext], config: &Config, findings: &mut [Finding]) {
    for finding in findings.iter_mut() {
        let Some(ctx) = files.iter().find(|c| c.rel_path == finding.file) else {
            continue;
        };
        let line_text = ctx.line_text(finding.line);
        for waiver in &config.waivers {
            if waiver.rule == finding.rule
                && finding.file.ends_with(&waiver.file)
                && line_text.contains(&waiver.contains)
            {
                finding.waived = Some(waiver.reason.clone());
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open`, if any.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate().skip(open) {
        if token.is_punct('{') {
            depth += 1;
        } else if token.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Skips a balanced `<...>` generic-argument list starting at `open`
/// (which must be `<`), returning the index just past the closing `>`.
fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Skips a balanced `(...)` list starting at `open` (which must be `(`),
/// returning the index just past the closing `)`.
fn skip_parens(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('(') {
            depth += 1;
        } else if tokens[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// True if tokens `i` and `i + 1` form `::`.
fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    i + 1 < tokens.len() && tokens[i].is_punct(':') && tokens[i + 1].is_punct(':')
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items (including
/// `mod tests { ... }` bodies) and everything they enclose.
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Scan this and any directly following attributes; remember whether
        // one of them gates on test.
        let attr_start = i;
        let mut is_test = false;
        while tokens.get(i).is_some_and(|t| t.is_punct('#'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0i64;
            let mut j = i + 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident {
                    idents.push(&t.text);
                }
                j += 1;
            }
            let bare_test = idents == ["test"];
            let cfg_test = idents.first() == Some(&"cfg") && idents.contains(&"test");
            is_test = is_test || bare_test || cfg_test;
            i = j + 1;
        }
        if !is_test {
            continue;
        }
        // Mark the attributed item: up to its `;`, or through its matching
        // closing brace if a body opens first.
        let mut end = tokens.len().saturating_sub(1);
        for (k, token) in tokens.iter().enumerate().skip(i) {
            if token.is_punct(';') {
                end = k;
                break;
            }
            if token.is_punct('{') {
                end = matching_brace(tokens, k).unwrap_or(end);
                break;
            }
        }
        for flag in &mut mask[attr_start..=end.min(tokens.len() - 1)] {
            *flag = true;
        }
        i = end + 1;
    }
    mask
}

/// Marks tokens inside `use ...;` statements.
fn compute_use_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("use") {
            let start = i;
            while i < tokens.len() && !tokens[i].is_punct(';') {
                i += 1;
            }
            for flag in &mut mask[start..=i.min(tokens.len() - 1)] {
                *flag = true;
            }
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// D001 — nondeterministic iteration
// ---------------------------------------------------------------------------

fn d001(ctx: &FileContext, config: &Config, findings: &mut Vec<Finding>) {
    if !config.d001_crates.contains(&ctx.crate_name) {
        return;
    }
    let tokens = &ctx.tokens;
    let use_mask = compute_use_mask(tokens);
    // Pass A: declaration findings + name tracking.
    let mut tracked_names: Vec<String> = Vec::new();
    let mut tracked_aliases: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if ctx.test_mask[i] || use_mask[i] {
            continue;
        }
        let is_map = tokens[i].is_ident("HashMap");
        let is_set = tokens[i].is_ident("HashSet");
        if !is_map && !is_set {
            continue;
        }
        if is_path_sep(tokens, i + 1) {
            // `HashMap::new()` / `HashMap::with_capacity(..)`: a constructor
            // for a binding; track the binding name if recognizable.
            if let Some(name) = binding_name_before_path(tokens, i) {
                track(&mut tracked_names, name);
            }
            continue;
        }
        // Type position: count top-level generic arguments.
        let args = if tokens.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            count_generic_args(tokens, i + 1)
        } else {
            0
        };
        let default_hashed = (is_map && args <= 2) || (is_set && args <= 1);
        if default_hashed {
            findings.push(Finding {
                rule: "D001",
                file: ctx.rel_path.clone(),
                line: tokens[i].line,
                message: format!(
                    "std `{}` with the default RandomState hasher in artifact-producing \
                     crate `{}`: any iteration visits entries in a per-process random \
                     order — switch to a deterministic structure/hasher, or waive with \
                     the reason it is never iterated",
                    tokens[i].text, ctx.crate_name
                ),
                waived: None,
            });
        }
        if let Some(name) = binding_name_before_path(tokens, i) {
            track(&mut tracked_names, name);
        }
        if let Some(alias) = alias_name_before(tokens, i) {
            track(&mut tracked_aliases, alias);
        }
    }
    // Pass A2: fields/params typed with a tracked alias.
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident
            || !tracked_aliases.iter().any(|a| *a == tokens[i].text)
        {
            continue;
        }
        if let Some(name) = binding_name_before_path(tokens, i) {
            track(&mut tracked_names, name);
        }
    }
    // Pass B: iteration findings over tracked names.
    let for_exprs = for_in_expr_ranges(tokens);
    for i in 0..tokens.len() {
        if ctx.test_mask[i]
            || tokens[i].kind != TokenKind::Ident
            || !tracked_names.iter().any(|n| *n == tokens[i].text)
        {
            continue;
        }
        let name = &tokens[i].text;
        if tokens.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some((method, line)) = first_iterating_method(tokens, i + 1) {
                findings.push(Finding {
                    rule: "D001",
                    file: ctx.rel_path.clone(),
                    line,
                    message: format!(
                        "hash-order traversal of `{name}` via `.{method}(..)`: the visit \
                         order is not deterministic across processes or refactors"
                    ),
                    waived: None,
                });
            }
        } else if for_exprs.iter().any(|&(lo, hi)| i >= lo && i < hi) {
            findings.push(Finding {
                rule: "D001",
                file: ctx.rel_path.clone(),
                line: tokens[i].line,
                message: format!(
                    "`for` loop iterates the hash map/set `{name}` directly — \
                     hash-order traversal is nondeterministic"
                ),
                waived: None,
            });
        }
    }
}

fn track(list: &mut Vec<String>, name: String) {
    if !list.contains(&name) {
        list.push(name);
    }
}

/// Walks backward from a type/constructor token at `i` over a `path::` prefix
/// and returns the binding name if the pattern is `name : [&|mut|'a]* path`
/// or `let name = path...` / `name = path...`.
fn binding_name_before_path(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Skip `seg ::` path prefixes backwards: `std :: collections :: HashMap`.
    while j >= 3
        && tokens[j - 1].is_punct(':')
        && tokens[j - 2].is_punct(':')
        && tokens[j - 3].kind == TokenKind::Ident
    {
        j -= 3;
    }
    // Skip reference/mutability/lifetime noise backwards.
    while j >= 1
        && (tokens[j - 1].is_punct('&')
            || tokens[j - 1].is_ident("mut")
            || tokens[j - 1].kind == TokenKind::Lifetime)
    {
        j -= 1;
    }
    if j >= 2 && tokens[j - 1].is_punct(':') && !tokens[j - 2].is_punct(':') {
        // `name : Type` — a field declaration, struct-literal init with a
        // constructor, or a typed parameter.
        if tokens[j - 2].kind == TokenKind::Ident {
            return Some(tokens[j - 2].text.clone());
        }
    }
    if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokenKind::Ident {
        // `let [mut] name = Constructor...` or `name = Constructor...`.
        let name = &tokens[j - 2];
        if !name.is_ident("let") && !name.is_ident("mut") {
            return Some(name.text.clone());
        }
    }
    None
}

/// If the map type at `i` is the right-hand side of `type Alias<...> = ...`,
/// returns the alias name.
fn alias_name_before(tokens: &[Token], i: usize) -> Option<String> {
    // Walk backward to the nearest `=` not crossing a statement boundary.
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct('=') {
            break;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let mut k = j - 1; // token index of `=`
                       // Skip a balanced generic list backwards: `type Alias < T > =`.
    if k >= 1 && tokens[k - 1].is_punct('>') {
        let mut depth = 0i64;
        while k >= 1 {
            k -= 1;
            if tokens[k].is_punct('>') {
                depth += 1;
            } else if tokens[k].is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    if k >= 2 && tokens[k - 1].kind == TokenKind::Ident && tokens[k - 2].is_ident("type") {
        return Some(tokens[k - 1].text.clone());
    }
    None
}

/// Counts top-level generic arguments of the list opening at `open` (`<`).
fn count_generic_args(tokens: &[Token], open: usize) -> usize {
    let mut angle = 0i64;
    let mut paren = 0i64;
    let mut args = 0usize;
    let mut saw_any = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
            if angle == 0 {
                break;
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(',') && angle == 1 && paren == 0 {
            args += 1;
        } else {
            saw_any = true;
        }
        i += 1;
    }
    if saw_any {
        args + 1
    } else {
        0
    }
}

/// Follows the method chain starting at the `.` at `dot` and returns the
/// first hash-order-dependent method, with its line.
fn first_iterating_method(tokens: &[Token], dot: usize) -> Option<(String, u32)> {
    let mut i = dot;
    while tokens.get(i).is_some_and(|t| t.is_punct('.')) {
        let method = tokens.get(i + 1)?;
        if method.kind != TokenKind::Ident {
            return None; // tuple index like `.0`
        }
        if ITER_METHODS.iter().any(|m| method.is_ident(m)) {
            return Some((method.text.clone(), method.line));
        }
        i += 2;
        // Skip a turbofish and/or the call's argument list.
        if is_path_sep(tokens, i) && tokens.get(i + 2).is_some_and(|t| t.is_punct('<')) {
            i = skip_angles(tokens, i + 2);
        }
        if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
            i = skip_parens(tokens, i);
        }
    }
    None
}

/// `(lo, hi)` token ranges of every `for ... in <expr> {` expression.
fn for_in_expr_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("for") {
            continue;
        }
        // Find the loop body `{` (or give up at `;`), tracking nothing fancy:
        // the header of a `for` loop cannot contain a block.
        let mut body = None;
        let mut in_idx = None;
        for (k, token) in tokens.iter().enumerate().skip(i + 1) {
            if token.is_punct('{') {
                body = Some(k);
                break;
            }
            if token.is_punct(';') {
                break;
            }
            if token.is_ident("in") && in_idx.is_none() {
                in_idx = Some(k);
            }
        }
        if let (Some(in_idx), Some(body)) = (in_idx, body) {
            ranges.push((in_idx + 1, body));
        }
    }
    ranges
}

// ---------------------------------------------------------------------------
// D002 — nondeterminism sources
// ---------------------------------------------------------------------------

fn d002(ctx: &FileContext, config: &Config, findings: &mut Vec<Finding>) {
    if config
        .d002_allow
        .iter()
        .any(|prefix| ctx.rel_path.starts_with(prefix.as_str()))
    {
        return;
    }
    let tokens = &ctx.tokens;
    let use_mask = compute_use_mask(tokens);
    for i in 0..tokens.len() {
        if ctx.test_mask[i] || use_mask[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let t = &tokens[i];
        let message = if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && is_path_sep(tokens, i + 1)
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            Some(format!(
                "`{}::now()` outside the allowlisted profiling modules: wall-clock \
                 reads must never influence artifact bytes",
                t.text
            ))
        } else if t.is_ident("SystemTime") || t.is_ident("RandomState") {
            Some(format!(
                "`{}` outside the allowlisted profiling modules is a \
                 nondeterminism source",
                t.text
            ))
        } else if t.is_ident("env")
            && is_path_sep(tokens, i + 1)
            && tokens
                .get(i + 3)
                .is_some_and(|n| ENV_READS.iter().any(|f| n.is_ident(f)))
        {
            Some(format!(
                "`env::{}` reads ambient process state outside the allowlisted \
                 modules — simulation inputs must come from explicit configuration",
                tokens[i + 3].text
            ))
        } else {
            None
        };
        if let Some(message) = message {
            findings.push(Finding {
                rule: "D002",
                file: ctx.rel_path.clone(),
                line: t.line,
                message,
                waived: None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// H001 — hot-path allocation
// ---------------------------------------------------------------------------

fn h001(files: &[FileContext], config: &Config, findings: &mut Vec<Finding>) {
    for hot in &config.hot {
        let Some(ctx) = files.iter().find(|c| c.rel_path.ends_with(&hot.file)) else {
            findings.push(Finding {
                rule: "H001",
                file: hot.file.clone(),
                line: 1,
                message: format!(
                    "hot-path registration points at `{}`, which is not part of the \
                     scanned workspace (moved or renamed?)",
                    hot.file
                ),
                waived: None,
            });
            continue;
        };
        let mut matched = vec![false; hot.functions.len()];
        let bodies = hot_fn_bodies(ctx, hot.type_name.as_deref(), &hot.functions, &mut matched);
        for (fn_name, body_range) in bodies {
            scan_allocations(ctx, hot, &fn_name, body_range, findings);
        }
        for (pattern, hit) in hot.functions.iter().zip(matched) {
            if !hit {
                let owner = hot.type_name.as_deref().unwrap_or("<free fn>");
                findings.push(Finding {
                    rule: "H001",
                    file: ctx.rel_path.clone(),
                    line: 1,
                    message: format!(
                        "hot-path registration `{owner}::{pattern}` matched no function \
                         in this file — stale after a rename?"
                    ),
                    waived: None,
                });
            }
        }
    }
}

/// `pattern` matches `name` exactly, or by prefix when it ends with `*`.
fn fn_pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

/// Collects `(name, token range)` of registered hot-function bodies. With a
/// type name, methods of every `impl Type` / `impl Trait for Type` block are
/// considered; without one, free functions at file top level.
fn hot_fn_bodies(
    ctx: &FileContext,
    type_name: Option<&str>,
    patterns: &[String],
    matched: &mut [bool],
) -> Vec<(String, (usize, usize))> {
    let tokens = &ctx.tokens;
    let mut bodies = Vec::new();
    match type_name {
        Some(type_name) => {
            let mut i = 0;
            while i < tokens.len() {
                if !tokens[i].is_ident("impl") {
                    i += 1;
                    continue;
                }
                let Some((impl_type, open)) = impl_block_type(tokens, i) else {
                    i += 1;
                    continue;
                };
                let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
                if impl_type == type_name {
                    collect_fns_in(ctx, open + 1, close, patterns, matched, &mut bodies);
                }
                i = close + 1;
            }
        }
        None => {
            // Free functions: `fn` tokens at brace depth 0.
            let mut depth = 0i64;
            let mut i = 0;
            while i < tokens.len() {
                let t = &tokens[i];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_ident("fn") {
                    if let Some(range) = fn_at(ctx, i, patterns, matched, &mut bodies) {
                        i = range;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    bodies
}

/// Parses the type an `impl` block (at token `start`) is for, returning the
/// last path segment of the self type and the index of the block's `{`.
fn impl_block_type(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    let mut i = start + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(tokens, i);
    }
    // Collect the path up to `{`, `for` or `where`; if `for` appears, restart
    // collection (what came before was the trait).
    let mut last_ident: Option<String> = None;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            return last_ident.map(|name| (name, i));
        }
        if t.is_ident("for") {
            last_ident = None;
            i += 1;
            continue;
        }
        if t.is_ident("where") {
            // Skip ahead to the block.
            let open = (i..tokens.len()).find(|&k| tokens[k].is_punct('{'))?;
            return last_ident.map(|name| (name, open));
        }
        if t.is_punct('<') {
            i = skip_angles(tokens, i);
            continue;
        }
        if t.kind == TokenKind::Ident {
            last_ident = Some(t.text.clone());
        }
        i += 1;
    }
    None
}

/// Collects matching `fn` bodies between `lo` and `hi` at impl-item depth.
fn collect_fns_in(
    ctx: &FileContext,
    lo: usize,
    hi: usize,
    patterns: &[String],
    matched: &mut [bool],
    bodies: &mut Vec<(String, (usize, usize))>,
) {
    let tokens = &ctx.tokens;
    let mut depth = 0i64;
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("fn") {
            if let Some(next) = fn_at(ctx, i, patterns, matched, bodies) {
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

/// If the `fn` at token `i` matches a pattern, records its body range and
/// returns the index just past the body (callers skip it either way is fine).
fn fn_at(
    ctx: &FileContext,
    i: usize,
    patterns: &[String],
    matched: &mut [bool],
    bodies: &mut Vec<(String, (usize, usize))>,
) -> Option<usize> {
    let tokens = &ctx.tokens;
    let name = tokens.get(i + 1)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    let mut any = false;
    for (p, pattern) in patterns.iter().enumerate() {
        if fn_pattern_matches(pattern, &name.text) {
            matched[p] = true;
            any = true;
        }
    }
    // Find the body (trait-method declarations without a body end at `;`).
    let mut open = None;
    for (k, token) in tokens.iter().enumerate().skip(i + 2) {
        if token.is_punct(';') {
            break;
        }
        if token.is_punct('{') {
            open = Some(k);
            break;
        }
    }
    let open = open?;
    let close = matching_brace(tokens, open)?;
    if any {
        bodies.push((name.text.clone(), (open, close)));
    }
    Some(close + 1)
}

/// Scans one hot-function body for allocating constructs.
fn scan_allocations(
    ctx: &FileContext,
    hot: &crate::config::HotFn,
    fn_name: &str,
    (lo, hi): (usize, usize),
    findings: &mut Vec<Finding>,
) {
    let tokens = &ctx.tokens;
    let owner = hot
        .type_name
        .as_deref()
        .map(|t| format!("{t}::"))
        .unwrap_or_default();
    let mut push = |line: u32, what: &str| {
        findings.push(Finding {
            rule: "H001",
            file: ctx.rel_path.clone(),
            line,
            message: format!(
                "hot path `{owner}{fn_name}` allocates via `{what}` — the translation \
                 hot path must stay allocation-free (PR 3 guarantee)"
            ),
            waived: None,
        });
    };
    for i in lo..=hi {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if (t.is_ident("vec") || t.is_ident("format"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            push(t.line, &format!("{}!", t.text));
        } else if ALLOCATING_METHODS.iter().any(|m| t.is_ident(m))
            && i > 0
            && tokens[i - 1].is_punct('.')
        {
            push(t.line, &format!(".{}()", t.text));
        } else if ALLOCATING_TYPES.iter().any(|ty| t.is_ident(ty)) && is_path_sep(tokens, i + 1) {
            if let Some(ctor) = tokens.get(i + 3) {
                if ctor.is_ident("new") || ctor.is_ident("from") || ctor.is_ident("with_capacity") {
                    push(t.line, &format!("{}::{}", t.text, ctor.text));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// U001 — unreferenced public item
// ---------------------------------------------------------------------------

/// Keywords that introduce a named item (`const` also qualifies a `const fn`).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "const", "static", "type", "mod",
];

/// Keywords that may stand between `pub` and `fn` (`pub const unsafe fn`).
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async"];

/// Item kinds whose `pub` definitions U001 checks.
const CHECKED_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Flags each non-test `pub` item of `files` whose name no token of `files`
/// or `references` uses (see the module doc for what counts as a use).
fn u001(files: &[FileContext], references: &[FileContext], findings: &mut Vec<Finding>) {
    let mut used: HashSet<&str> = HashSet::new();
    for ctx in files.iter().chain(references) {
        let mut skip = compute_use_mask(&ctx.tokens);
        for (name, _) in item_names(&ctx.tokens) {
            skip[name] = true;
        }
        for (i, token) in ctx.tokens.iter().enumerate() {
            if skip[i] {
                continue;
            }
            match token.kind {
                TokenKind::Ident => {
                    used.insert(&token.text);
                }
                TokenKind::Literal if token.text.contains('"') => {
                    used.extend(format_idents(&token.text));
                }
                _ => {}
            }
        }
    }
    for ctx in files {
        for (name, kind) in item_names(&ctx.tokens) {
            let token = &ctx.tokens[name];
            if ctx.test_mask[name]
                || !CHECKED_KINDS.contains(&kind)
                || !is_pub_item(&ctx.tokens, name)
                || used.contains(token.text.as_str())
            {
                continue;
            }
            findings.push(Finding {
                rule: "U001",
                file: ctx.rel_path.clone(),
                line: token.line,
                message: format!(
                    "public {kind} `{}` is used nowhere in the workspace (src, tests, \
                     benches, examples, perfbench/src) — delete it, or waive with the \
                     reason it must stay",
                    token.text
                ),
                waived: None,
            });
        }
    }
}

/// `(name token index, kind)` of every named item definition: a keyword of
/// [`ITEM_KEYWORDS`] followed by an identifier (`_` excluded), except the
/// `const` of a `*const T` pointer type.
fn item_names(tokens: &[Token]) -> Vec<(usize, &str)> {
    let mut names = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let Some(kind) = ITEM_KEYWORDS.iter().find(|k| token.is_ident(k)) else {
            continue;
        };
        if *kind == "const" && i > 0 && tokens[i - 1].is_punct('*') {
            continue;
        }
        let mut name = i + 1;
        if *kind == "static" && tokens.get(name).is_some_and(|t| t.is_ident("mut")) {
            name += 1;
        }
        let Some(next) = tokens.get(name) else {
            continue;
        };
        let qualifies_fn = *kind == "const"
            && (next.is_ident("fn") || FN_QUALIFIERS.iter().any(|q| next.is_ident(q)));
        if next.kind == TokenKind::Ident && next.text != "_" && !qualifies_fn {
            names.push((name, *kind));
        }
    }
    names
}

/// True if the item whose name sits at token `name` is declared plain `pub`
/// (`pub(crate)` and narrower are left to rustc's dead-code lint), looking
/// back past its keyword and any [`FN_QUALIFIERS`].
fn is_pub_item(tokens: &[Token], name: usize) -> bool {
    let keyword = if tokens[name - 1].is_ident("mut") {
        name - 2
    } else {
        name - 1
    };
    tokens[..keyword]
        .iter()
        .rev()
        .find(|t| !FN_QUALIFIERS.iter().any(|q| t.is_ident(q)))
        .is_some_and(|t| t.is_ident("pub"))
}

/// Identifiers inside the `{...}` holes of a string literal: the inline
/// format arguments `{name}`, `{name:?}`, `{x:>width$}`. Words in an escaped
/// `{{...}}` count too; a spare use only keeps the rule silent.
fn format_idents(literal: &str) -> impl Iterator<Item = &str> {
    literal.split('{').skip(1).flat_map(|hole| {
        hole.split('}')
            .next()
            .unwrap_or("")
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|word| word.starts_with(|c: char| c.is_alphabetic() || c == '_'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u001_reads_item_heads() {
        let tokens = lex(
            "pub const fn a() {} pub(crate) fn b() {} pub static mut C: u8 = 0;\n\
             pub const D: u8 = 1; fn e(p: *const F) {}",
        );
        let names: Vec<(&str, &str)> = item_names(&tokens)
            .into_iter()
            .map(|(name, kind)| (tokens[name].text.as_str(), kind))
            .collect();
        assert_eq!(
            names,
            [
                ("a", "fn"),
                ("b", "fn"),
                ("C", "static"),
                ("D", "const"),
                ("e", "fn")
            ]
        );
        let public: Vec<&str> = item_names(&tokens)
            .into_iter()
            .filter(|&(name, _)| is_pub_item(&tokens, name))
            .map(|(name, _)| tokens[name].text.as_str())
            .collect();
        assert_eq!(public, ["a", "C", "D"]);
    }

    #[test]
    fn format_holes_yield_their_identifiers() {
        let words: Vec<&str> = format_idents(r#""{NAME}/{0} {x:>width$} {:?}""#).collect();
        assert_eq!(words, ["NAME", "x", "width"]);
    }
}
