//! In-memory spans for the traced run, recorded from the benchmark's own
//! files around its calls into each layer. Each thread keeps its own
//! [`Spans`]; they are merged and written out once the run ends.
//!
//! A span id is `key * SLOTS + slot`: `key` names the request or window
//! the span belongs to and `slot` the span's place in it, so threads mint
//! ids (and point at parents) without sharing a counter.

use crate::report::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span slots per request or window key.
pub const SLOTS: u64 = 64;

pub struct Span {
    pub name: &'static str,
    pub key: u64,
    pub slot: u64,
    pub parent: Option<u64>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.key * SLOTS + self.slot
    }
}

/// One thread's span buffer; disabled buffers (the default) record
/// nothing.
#[derive(Default)]
pub struct Spans {
    on: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Record `[start, end]` as span `slot` of `key`, child of
    /// `parent_slot` of the same key (`None` for a root).
    pub fn record(
        &mut self,
        name: &'static str,
        key: u64,
        slot: u64,
        parent_slot: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                key,
                slot,
                parent: parent_slot.map(|p| key * SLOTS + p),
                start,
                end,
            });
        }
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Per span name: (spans, total time, total self time) in ms. A span's
    /// self time is its duration minus the part of its interval that its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e3;
            let covered = children
                .get(&s.id())
                .map_or(0.0, |c| covered_ms(s.start, s.end, c));
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += total;
            e.2 += (total - covered).max(0.0);
        }
        out
    }

    pub fn self_times_json(&self) -> Json {
        Json::Obj(
            self.self_times()
                .into_iter()
                .map(|(name, (n, total, own))| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("spans", Json::Num(n as f64)),
                            ("total_ms", Json::Num(total)),
                            ("self_ms", Json::Num(own)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Write every span as one JSON line, times in µs since `origin`.
    pub fn write(&self, path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for s in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("id", Json::Num(s.id() as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("key", Json::Num(s.key as f64)),
                ("start_us", Json::Num(at(s.start))),
                ("end_us", Json::Num(at(s.end))),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`, in ms.
fn covered_ms(start: Instant, end: Instant, intervals: &[(Instant, Instant)]) -> f64 {
    let mut iv: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut covered = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += (cb - ca).as_secs_f64();
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += (cb - ca).as_secs_f64();
    }
    covered * 1e3
}
