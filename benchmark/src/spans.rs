//! The harness's own span list: one span around every job and every
//! layer-driver call, kept in memory and written out when the run ends.
//! Nothing here reaches into the program under test.

use demsort_types::json::Json;
use std::time::Instant;

struct Span {
    name: String,
    workload: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; nesting follows call order.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, tagged with the workload it
    /// belongs to (empty for workload-independent layer drivers). The
    /// span's parent is whichever span is open when it starts.
    pub fn scope<T>(&mut self, name: &str, workload: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload: workload.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds a named span took (the first of that name).
    #[cfg(test)]
    pub fn seconds(&self, name: &str) -> Option<f64> {
        let s = self.spans.iter().find(|s| s.name == name)?;
        Some((s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// A span's self time: its duration minus what its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Uint(id as u64)),
                    ("name".into(), Json::str(s.name.as_str())),
                    ("workload".into(), Json::str(s.workload.as_str())),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Uint(p as u64))),
                    ("start_ns".into(), Json::Uint(s.start_ns)),
                    ("end_ns".into(), Json::Uint(s.end_ns)),
                    ("self_ns".into(), Json::Uint(self.self_ns(id))),
                ])
            })
            .collect();
        Json::Arr(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.scope("outer", "w", |s| {
            s.scope("inner", "w", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let Json::Arr(rows) = spans.to_json() else { panic!("array") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[1].get("parent"), Some(&Json::Uint(0)));
        let outer = spans.seconds("outer").expect("outer");
        let inner = spans.seconds("inner").expect("inner");
        assert!(outer >= inner && inner >= 0.005);
        let self_ns = rows[0].get("self_ns").and_then(Json::as_u64).expect("self_ns");
        assert!((self_ns as f64) < outer * 1e9 - 4e6, "children are subtracted");
    }
}
