//! The five workspace invariants, checked over [`crate::scan::ScannedFile`]s.
//!
//! | rule | scope | what it enforces |
//! |------|-------|------------------|
//! | `lock-order` | `flexsp-arbiter` src | queue → shards (ascending) → fairness stripe → publish slot, with call summaries |
//! | `lock-free` | fns marked `// lint: lock-free` | no `.lock()`/`.write()`, even transitively through crate-local calls |
//! | `clock-containment` | all src outside the allowlist | no `Instant`/`SystemTime` (determinism: time lives behind `Clock`) |
//! | `telemetry-hygiene` | everywhere outside `crates/telemetry` | no `cfg(feature = "telemetry")` |
//! | `unwrap-ban` | arbiter/milp/core non-test src | no `.unwrap()`/`.expect()` without an annotated reason |
//!
//! Marker syntax (line comments):
//! - `// lint: lock-free` — the next fn must not reach a lock.
//! - `// lint: allow(unwrap|lock|clock[, ...]) <reason>` — exempts the
//!   same line and the line below; the reason is mandatory.

use crate::scan::{FileKind, FnItem, ScannedFile};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

/// Stable anchor of the docs section describing every rule.
pub const DOC_ANCHOR: &str = "docs/ARCHITECTURE.md#static-analysis--concurrency-contracts";

/// Lock ranks, in required acquisition order.
const RANK_QUEUE: u8 = 1;
const RANK_SHARD: u8 = 2;
const RANK_STRIPE: u8 = 3;
const RANK_PUBLISH: u8 = 4;

fn rank_name(r: u8) -> &'static str {
    match r {
        RANK_QUEUE => "queue",
        RANK_SHARD => "shard",
        RANK_STRIPE => "fairness stripe",
        _ => "publish slot",
    }
}

/// One diagnostic. Rendered as
/// `path:line: rule: message (see docs/...)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug, e.g. `lock-order`.
    pub rule: &'static str,
    /// Human message.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {} (see {})",
            self.rel, self.line, self.rule, self.msg, DOC_ANCHOR
        )
    }
}

/// Exemption kinds carried by `// lint: allow(...)` markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AllowKind {
    Unwrap,
    Lock,
    Clock,
}

/// Per-file allow table: (line, kind) pairs. A marker on line L exempts
/// L and L+1 (so it can sit on the offending line or just above it).
struct Allows(HashSet<(u32, AllowKind)>);

impl Allows {
    fn permits(&self, line: u32, kind: AllowKind) -> bool {
        self.0.contains(&(line, kind))
    }
}

/// Parse a file's markers into an allow table, reporting malformed ones.
fn parse_allows(file: &ScannedFile, out: &mut Vec<Violation>) -> Allows {
    let mut set = HashSet::new();
    for m in &file.markers {
        if m.directive == "lock-free" {
            continue;
        }
        let Some(rest) = m.directive.strip_prefix("allow(") else {
            out.push(Violation {
                rel: file.rel.clone(),
                line: m.line,
                rule: "marker-syntax",
                msg: format!(
                    "unknown lint marker `{}` (expected `lock-free` or `allow(unwrap|lock|clock) <reason>`)",
                    m.directive
                ),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Violation {
                rel: file.rel.clone(),
                line: m.line,
                rule: "marker-syntax",
                msg: "unclosed `allow(` marker".into(),
            });
            continue;
        };
        let (kinds, reason) = rest.split_at(close);
        let reason = reason[1..].trim();
        if reason.is_empty() {
            out.push(Violation {
                rel: file.rel.clone(),
                line: m.line,
                rule: "marker-syntax",
                msg: "allow marker requires a reason after the closing paren".into(),
            });
            continue;
        }
        for kind in kinds.split(',') {
            let kind = match kind.trim() {
                "unwrap" => AllowKind::Unwrap,
                "lock" => AllowKind::Lock,
                "clock" => AllowKind::Clock,
                other => {
                    out.push(Violation {
                        rel: file.rel.clone(),
                        line: m.line,
                        rule: "marker-syntax",
                        msg: format!("unknown allow kind `{other}` (unwrap|lock|clock)"),
                    });
                    continue;
                }
            };
            set.insert((m.line, kind));
            set.insert((m.line + 1, kind));
        }
    }
    Allows(set)
}

// ---------------------------------------------------------------------------
// Body events
// ---------------------------------------------------------------------------

/// One body-level event, in source order. The lock rules replay these
/// against a held-guard model; the unwrap rule just filters them.
#[derive(Debug)]
enum Ev {
    /// `{`
    Open,
    /// `}`
    Close,
    /// `;`
    Semi,
    /// `let [mut] name [: T] =` — a simple binding whose initializer runs
    /// until the next `;` at the same brace depth.
    Let(String),
    /// `recv.lock()` — chain is the receiver field path, e.g.
    /// `["self", "inner", "fairness"]`.
    Lock { chain: Vec<String>, line: u32 },
    /// `recv.write(..)`.
    Write { line: u32 },
    /// A call: method (`chain` = receiver path), path (`chain` = one
    /// type/module segment), or bare (`chain` empty).
    Call {
        chain: Vec<String>,
        name: String,
        line: u32,
        /// True for `recv.name(..)`, false for `name(..)` / `a::name(..)`.
        method: bool,
    },
    /// `drop(var)`.
    DropVar(String),
    /// `.unwrap()` / `.expect(`.
    Unwrap { what: &'static str, line: u32 },
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "let", "mut",
    "ref", "fn", "unsafe", "async", "await", "box", "dyn", "impl", "where", "break", "continue",
    "use", "pub", "crate", "super", "true", "false", "struct", "enum",
];

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .map(|c| c == '_' || c.is_ascii_alphabetic())
        .unwrap_or(false)
}

/// Walk a fn body and extract its events.
fn body_events(file: &ScannedFile, f: &FnItem) -> Vec<Ev> {
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let toks = &file.tokens;
    let text = |i: usize| toks[i].text.as_str();
    let mut out = Vec::new();
    let mut i = open;
    while i <= close {
        match text(i) {
            "{" => out.push(Ev::Open),
            "}" => out.push(Ev::Close),
            ";" => out.push(Ev::Semi),
            "let" => {
                let mut j = i + 1;
                if j <= close && text(j) == "mut" {
                    j += 1;
                }
                if j <= close && is_ident(text(j)) && !KEYWORDS.contains(&text(j)) {
                    let name = text(j).to_string();
                    // Optional `: Type` annotation before `=`.
                    let mut k = j + 1;
                    if k <= close && text(k) == ":" {
                        let mut depth = 0i32;
                        k += 1;
                        while k <= close {
                            match text(k) {
                                "<" | "(" | "[" => depth += 1,
                                ">" | ")" | "]" => depth -= 1,
                                "=" | ";" if depth <= 0 => break,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    if k <= close && text(k) == "=" && (k == close || text(k + 1) != "=") {
                        out.push(Ev::Let(name));
                    }
                }
            }
            "." if i + 2 <= close && is_ident(text(i + 1)) && text(i + 2) == "(" => {
                let name = text(i + 1);
                let line = toks[i + 1].line;
                match name {
                    "lock" => out.push(Ev::Lock {
                        chain: chain_back(file, i),
                        line,
                    }),
                    "write" => out.push(Ev::Write { line }),
                    "unwrap" => out.push(Ev::Unwrap {
                        what: ".unwrap()",
                        line,
                    }),
                    "expect" => out.push(Ev::Unwrap {
                        what: ".expect()",
                        line,
                    }),
                    _ => out.push(Ev::Call {
                        chain: chain_back(file, i),
                        name: name.to_string(),
                        line,
                        method: true,
                    }),
                }
                i += 2;
                continue;
            }
            t if is_ident(t)
                && !KEYWORDS.contains(&t)
                && i < close
                && text(i + 1) == "("
                && (i == open || text(i - 1) != ".") =>
            {
                // Bare or path call. Struct/enum constructors resolve to
                // nothing in the fn tables, so they are harmless here.
                let mut chain = Vec::new();
                if i >= 3 && text(i - 1) == ":" && text(i - 2) == ":" && is_ident(text(i - 3)) {
                    chain.push(text(i - 3).to_string());
                }
                if t == "drop"
                    && chain.is_empty()
                    && i + 3 <= close
                    && is_ident(text(i + 2))
                    && text(i + 3) == ")"
                {
                    out.push(Ev::DropVar(text(i + 2).to_string()));
                    i += 4;
                    continue;
                }
                out.push(Ev::Call {
                    chain,
                    name: t.to_string(),
                    line: toks[i].line,
                    method: false,
                });
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Walk backwards from the `.` of a method call / lock site, collecting
/// the receiver's field path (outermost first). Balanced `(..)`/`[..]`
/// groups are skipped, so `fairness[jid % N].lock()` yields
/// `[.., "fairness"]`.
fn chain_back(file: &ScannedFile, dot: usize) -> Vec<String> {
    let toks = &file.tokens;
    let text = |i: usize| toks[i].text.as_str();
    let mut chain = VecDeque::new();
    if dot == 0 {
        return Vec::new();
    }
    let mut i = dot - 1;
    loop {
        match text(i) {
            ")" | "]" => {
                let close = text(i);
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 0i32;
                loop {
                    if text(i) == close {
                        depth += 1;
                    } else if text(i) == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if i == 0 {
                        return chain.into();
                    }
                    i -= 1;
                }
                if i == 0 {
                    return chain.into();
                }
                i -= 1;
            }
            t if is_ident(t) => {
                chain.push_front(t.to_string());
                if i >= 2 && text(i - 1) == "." {
                    i -= 2;
                } else if i >= 3 && text(i - 1) == ":" && text(i - 2) == ":" {
                    i -= 3;
                } else {
                    return chain.into();
                }
            }
            _ => return chain.into(),
        }
    }
}

/// Classify a `.lock()` receiver chain against the arbiter's rank table.
/// Matches the ledger's naming convention: the queue mutex is a field
/// named `queue`, shard state is `state`, fairness stripes live in the
/// `fairness` array (or iterate as `stripe`), and `Published`'s pointer
/// cell is `slot`.
fn classify_lock(chain: &[String]) -> Option<u8> {
    if chain.iter().any(|c| c == "fairness") {
        return Some(RANK_STRIPE);
    }
    match chain.last().map(String::as_str) {
        Some("queue") => Some(RANK_QUEUE),
        Some("state") => Some(RANK_SHARD),
        Some("stripe") => Some(RANK_STRIPE),
        Some("slot") => Some(RANK_PUBLISH),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Crate index: call graph + summaries
// ---------------------------------------------------------------------------

struct FnData<'a> {
    file: usize,
    item: &'a FnItem,
    events: Vec<Ev>,
    /// Ranks of classified direct lock acquisitions.
    direct: BTreeSet<u8>,
    /// Ranks this fn (transitively) acquires — the call summary.
    summary: BTreeSet<u8>,
    /// Does the signature return a guard type (ident containing `Guard`
    /// after the `->`)?
    returns_guard: bool,
}

struct CrateIndex<'a> {
    files: &'a [ScannedFile],
    fns: Vec<FnData<'a>>,
    by_key: HashMap<(Option<String>, String), Vec<usize>>,
    /// struct -> field -> type, merged across the crate's files.
    fields: HashMap<String, HashMap<String, String>>,
}

impl<'a> CrateIndex<'a> {
    fn build(files: &'a [ScannedFile], file_idx: &[usize]) -> Self {
        let mut fns = Vec::new();
        let mut by_key: HashMap<(Option<String>, String), Vec<usize>> = HashMap::new();
        let mut fields: HashMap<String, HashMap<String, String>> = HashMap::new();
        for &fi in file_idx {
            let file = &files[fi];
            for (st, fl) in &file.field_types {
                fields.entry(st.clone()).or_default().extend(fl.clone());
            }
            for item in &file.fns {
                let events = body_events(file, item);
                let mut direct = BTreeSet::new();
                for ev in &events {
                    if let Ev::Lock { chain, .. } = ev {
                        if let Some(r) = classify_lock(chain) {
                            direct.insert(r);
                        }
                    }
                }
                let id = fns.len();
                fns.push(FnData {
                    file: fi,
                    item,
                    events,
                    direct,
                    summary: BTreeSet::new(),
                    returns_guard: sig_returns_guard(file, item),
                });
                by_key
                    .entry((item.impl_type.clone(), item.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        let mut idx = CrateIndex {
            files,
            fns,
            by_key,
            fields,
        };
        idx.compute_summaries();
        idx
    }

    /// Resolve a call event to candidate fn ids. Resolution is precise by
    /// design: a call that cannot be typed contributes no edge (local
    /// receivers calling std/container methods would otherwise pollute
    /// summaries through same-name crate methods, e.g. `free.claim(n)` on
    /// a `NodeSlots` must not resolve to `ClusterArbiter::claim`).
    fn resolve(
        &self,
        chain: &[String],
        name: &str,
        method: bool,
        caller_impl: Option<&str>,
    ) -> Vec<usize> {
        let lookup = |ty: Option<String>| -> Option<Vec<usize>> {
            self.by_key.get(&(ty, name.to_string())).cloned()
        };
        if method {
            let Some(first) = chain.first() else {
                // `(expr).method()` — untyped receiver.
                return Vec::new();
            };
            if first == "self" || first == "Self" {
                // `self.a.b.method()` — walk field types from the caller's
                // impl type.
                if let Some(mut ty) = caller_impl.map(str::to_string) {
                    for field in &chain[1..] {
                        match self.fields.get(&ty).and_then(|m| m.get(field)) {
                            Some(next) => ty = next.clone(),
                            None => return Vec::new(),
                        }
                    }
                    return lookup(Some(ty)).unwrap_or_default();
                }
                return Vec::new();
            }
            // Local receiver: infer the type from the last field name if
            // exactly one struct in the crate has a field by that name
            // (`inner.settle_locked(..)` — only `ClusterArbiter` has an
            // `inner` field, so the receiver is an `Inner`).
            let field = chain.last().map(String::as_str).unwrap_or_default();
            let mut types: Vec<&String> =
                self.fields.values().filter_map(|m| m.get(field)).collect();
            types.sort();
            types.dedup();
            if let [ty] = types[..] {
                return lookup(Some(ty.clone())).unwrap_or_default();
            }
            Vec::new()
        } else {
            // Path call `Seg::name(..)`: a type's associated fn, `Self`,
            // or a module-qualified free fn.
            if let Some(seg) = chain.first() {
                let ty = if seg == "Self" {
                    caller_impl.map(str::to_string)
                } else {
                    Some(seg.clone())
                };
                if let Some(ids) = lookup(ty) {
                    return ids;
                }
            }
            // Bare call (or module-qualified): free fns only.
            lookup(None).unwrap_or_default()
        }
    }

    /// Fixpoint: summary = direct ranks ∪ callee summaries.
    fn compute_summaries(&mut self) {
        for f in &mut self.fns {
            f.summary = f.direct.clone();
        }
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                let caller_impl = self.fns[id].item.impl_type.clone();
                let mut add = BTreeSet::new();
                for ev in &self.fns[id].events {
                    if let Ev::Call {
                        chain,
                        name,
                        method,
                        ..
                    } = ev
                    {
                        for cal in self.resolve(chain, name, *method, caller_impl.as_deref()) {
                            add.extend(self.fns[cal].summary.iter().copied());
                        }
                    }
                }
                let before = self.fns[id].summary.len();
                self.fns[id].summary.extend(add);
                if self.fns[id].summary.len() != before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Does the fn signature's return type mention a guard? (Any ident after
/// `->` containing `Guard`.)
fn sig_returns_guard(file: &ScannedFile, f: &FnItem) -> bool {
    let (start, end) = f.sig;
    let toks = &file.tokens;
    let mut i = start;
    let mut after_arrow = false;
    while i < end {
        let t = toks[i].text.as_str();
        if t == "-" && i + 1 < end && toks[i + 1].text == ">" {
            after_arrow = true;
            i += 2;
            continue;
        }
        if after_arrow && t.contains("Guard") {
            return true;
        }
        i += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

/// Run every rule over the scanned files and return sorted, deduplicated
/// violations.
pub fn analyze(files: &[ScannedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let allows: Vec<Allows> = files.iter().map(|f| parse_allows(f, &mut out)).collect();

    rule_telemetry_hygiene(files, &mut out);
    rule_clock_containment(files, &allows, &mut out);
    rule_unwrap_ban(files, &allows, &mut out);

    // Lock rules need per-crate call graphs: build one for each crate
    // that is either the arbiter or contains lock-free-marked fns.
    let mut crates: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in files.iter().enumerate() {
        if f.kind == FileKind::Src {
            crates.entry(&f.crate_name).or_default().push(i);
        }
    }
    for (name, file_idx) in crates {
        let needs_order = name == "flexsp-arbiter";
        let needs_free = file_idx
            .iter()
            .any(|&i| files[i].fns.iter().any(|f| f.lock_free));
        if !needs_order && !needs_free {
            continue;
        }
        let index = CrateIndex::build(files, &file_idx);
        if needs_order {
            rule_lock_order(&index, &allows, &mut out);
        }
        if needs_free {
            rule_lock_free(&index, &allows, &mut out);
        }
    }

    out.sort();
    out.dedup();
    out
}

/// Rule 4: `cfg(feature = "telemetry")` only inside `crates/telemetry`.
fn rule_telemetry_hygiene(files: &[ScannedFile], out: &mut Vec<Violation>) {
    for f in files {
        if f.rel.starts_with("crates/telemetry/") {
            continue;
        }
        for w in f.tokens.windows(3) {
            if w[0].text == "feature" && w[1].text == "=" && w[2].text == "\"telemetry\"" {
                out.push(Violation {
                    rel: f.rel.clone(),
                    line: w[0].line,
                    rule: "telemetry-hygiene",
                    msg: "cfg(feature = \"telemetry\") outside crates/telemetry — use a \
                          cfg-gated helper from flexsp-telemetry instead"
                        .into(),
                });
            }
        }
    }
}

/// Files where wall-clock types are legal: the `Clock` abstraction itself,
/// and the telemetry/bench measurement layers.
fn clock_allowlisted(rel: &str) -> bool {
    rel == "crates/arbiter/src/clock.rs"
        || rel.starts_with("crates/telemetry/")
        || rel.starts_with("crates/bench/")
}

/// Rule 3: `Instant`/`SystemTime` only in the allowlist.
fn rule_clock_containment(files: &[ScannedFile], allows: &[Allows], out: &mut Vec<Violation>) {
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Src || clock_allowlisted(&f.rel) {
            continue;
        }
        let mut seen_lines = HashSet::new();
        for t in &f.tokens {
            if t.text != "Instant" && t.text != "SystemTime" {
                continue;
            }
            if f.is_test_line(t.line)
                || allows[fi].permits(t.line, AllowKind::Clock)
                || !seen_lines.insert(t.line)
            {
                continue;
            }
            out.push(Violation {
                rel: f.rel.clone(),
                line: t.line,
                rule: "clock-containment",
                msg: format!(
                    "`{}` outside the clock allowlist — route time through the `Clock` \
                     trait, or annotate `// lint: allow(clock) <reason>`",
                    t.text
                ),
            });
        }
    }
}

/// Rule 5: no bare `.unwrap()`/`.expect()` in hot-path crates.
fn rule_unwrap_ban(files: &[ScannedFile], allows: &[Allows], out: &mut Vec<Violation>) {
    const HOT: [&str; 3] = ["flexsp-arbiter", "flexsp-milp", "flexsp-core"];
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Src || !HOT.contains(&f.crate_name.as_str()) {
            continue;
        }
        for item in &f.fns {
            if item.is_test {
                continue;
            }
            for ev in body_events(f, item) {
                if let Ev::Unwrap { what, line } = ev {
                    if allows[fi].permits(line, AllowKind::Unwrap) {
                        continue;
                    }
                    out.push(Violation {
                        rel: f.rel.clone(),
                        line,
                        rule: "unwrap-ban",
                        msg: format!(
                            "{what} in hot-path code — return an error, or annotate \
                             `// lint: allow(unwrap) <reason>` if infallible by invariant"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 1: the arbiter lock order, replayed against a held-guard model.
fn rule_lock_order(index: &CrateIndex<'_>, allows: &[Allows], out: &mut Vec<Violation>) {
    for f in &index.fns {
        if f.item.is_test {
            continue;
        }
        let file = &index.files[f.file];
        let allow = &allows[f.file];
        // Held guards: (binding name, rank, brace depth at binding).
        let mut held: Vec<(Option<String>, u8, usize)> = Vec::new();
        let mut depth = 0usize;
        let mut cur_let: Option<(String, usize)> = None;
        for ev in &f.events {
            match ev {
                Ev::Open => depth += 1,
                Ev::Close => {
                    held.retain(|&(_, _, d)| d < depth);
                    depth = depth.saturating_sub(1);
                }
                Ev::Semi => {
                    if let Some((_, d)) = &cur_let {
                        if *d == depth {
                            cur_let = None;
                        }
                    }
                }
                Ev::Let(name) => cur_let = Some((name.clone(), depth)),
                Ev::DropVar(name) => {
                    held.retain(|(n, _, _)| n.as_deref() != Some(name.as_str()));
                }
                Ev::Lock { chain, line } => {
                    let max_held = held.iter().map(|&(_, r, _)| r).max();
                    match classify_lock(chain) {
                        Some(r) => {
                            if let Some(m) = max_held {
                                if r < m || (r == m && r != RANK_SHARD) {
                                    out.push(Violation {
                                        rel: file.rel.clone(),
                                        line: *line,
                                        rule: "lock-order",
                                        msg: format!(
                                            "acquires the {} lock while holding the {} lock \
                                             (required order: queue → shards ascending → \
                                             fairness stripe → publish slot)",
                                            rank_name(r),
                                            rank_name(m)
                                        ),
                                    });
                                }
                            }
                            if let Some((name, d)) = &cur_let {
                                held.push((Some(name.clone()), r, *d));
                            }
                        }
                        None => {
                            if !allow.permits(*line, AllowKind::Lock) {
                                out.push(Violation {
                                    rel: file.rel.clone(),
                                    line: *line,
                                    rule: "lock-order",
                                    msg: format!(
                                        "unclassified lock acquisition `{}.lock()` in \
                                         flexsp-arbiter — give it a rank or annotate \
                                         `// lint: allow(lock) <reason>`",
                                        chain.join(".")
                                    ),
                                });
                            }
                        }
                    }
                }
                Ev::Call {
                    chain,
                    name,
                    line,
                    method,
                } => {
                    let ids = index.resolve(chain, name, *method, f.item.impl_type.as_deref());
                    let mut summary = BTreeSet::new();
                    let mut returns_guard = false;
                    for id in &ids {
                        summary.extend(index.fns[*id].summary.iter().copied());
                        returns_guard |= index.fns[*id].returns_guard;
                    }
                    if let (Some(&rmin), Some(m)) =
                        (summary.iter().next(), held.iter().map(|&(_, r, _)| r).max())
                    {
                        if rmin < m || (rmin == m && rmin != RANK_SHARD) {
                            out.push(Violation {
                                rel: file.rel.clone(),
                                line: *line,
                                rule: "lock-order",
                                msg: format!(
                                    "call to `{}` (acquires {}) while holding the {} lock \
                                     (required order: queue → shards ascending → fairness \
                                     stripe → publish slot)",
                                    name,
                                    summary
                                        .iter()
                                        .map(|&r| rank_name(r))
                                        .collect::<Vec<_>>()
                                        .join(", "),
                                    rank_name(m)
                                ),
                            });
                        }
                    }
                    if returns_guard && !summary.is_empty() {
                        if let Some((lname, d)) = &cur_let {
                            let max = *summary.iter().next_back().unwrap_or(&RANK_SHARD);
                            held.push((Some(lname.clone()), max, *d));
                        }
                    }
                }
                Ev::Write { .. } | Ev::Unwrap { .. } => {}
            }
        }
    }
}

/// Rule 2: fns marked `// lint: lock-free` must not reach `.lock()` /
/// `.write()` through any crate-local call chain.
fn rule_lock_free(index: &CrateIndex<'_>, allows: &[Allows], out: &mut Vec<Violation>) {
    // BFS from each marked fn, tracking one parent per visited fn so the
    // diagnostic can show a concrete call chain.
    for (root, rf) in index.fns.iter().enumerate() {
        if !rf.item.lock_free || rf.item.is_test {
            continue;
        }
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([root]);
        let mut visited: HashSet<usize> = HashSet::from([root]);
        while let Some(id) = queue.pop_front() {
            let f = &index.fns[id];
            let file = &index.files[f.file];
            let allow = &allows[f.file];
            for ev in &f.events {
                let bad_line = match ev {
                    Ev::Lock { line, .. } | Ev::Write { line } => {
                        if allow.permits(*line, AllowKind::Lock) {
                            None
                        } else {
                            Some(*line)
                        }
                    }
                    Ev::Call {
                        chain,
                        name,
                        method,
                        ..
                    } => {
                        for next in index.resolve(chain, name, *method, f.item.impl_type.as_deref())
                        {
                            if visited.insert(next) {
                                parent.insert(next, id);
                                queue.push_back(next);
                            }
                        }
                        None
                    }
                    _ => None,
                };
                if let Some(line) = bad_line {
                    // Reconstruct root → .. → id.
                    let mut names = vec![fn_label(index, id)];
                    let mut cur = id;
                    while let Some(&p) = parent.get(&cur) {
                        names.push(fn_label(index, p));
                        cur = p;
                    }
                    names.reverse();
                    out.push(Violation {
                        rel: file.rel.clone(),
                        line,
                        rule: "lock-free",
                        msg: format!(
                            "lock/write acquired on the lock-free read surface — reachable \
                             from `{}` (marked `// lint: lock-free`) via {}",
                            fn_label(index, root),
                            names.join(" → ")
                        ),
                    });
                }
            }
        }
    }
}

fn fn_label(index: &CrateIndex<'_>, id: usize) -> String {
    let f = &index.fns[id];
    match &f.item.impl_type {
        Some(t) => format!("{}::{}", t, f.item.name),
        None => f.item.name.clone(),
    }
}
