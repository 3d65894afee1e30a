//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in memory, written out when the run ends. Nothing inside
//! `crates/` is instrumented; an arm's event count is the delta of the
//! engine's public self-profiler counter across the call.

use std::time::Instant;

use hpcbd_obs::JsonValue;

use crate::json::{num, obj};

/// One recorded interval.
pub struct Span {
    /// What ran (the public function called, or `rep` / `input_build`).
    pub name: &'static str,
    /// Layer (crate / module) the time is charged to; `""` for the
    /// enclosing repetition span.
    pub layer: &'static str,
    /// Nanoseconds since the recorder was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Engine events (coroutine resumptions) during the span.
    pub events: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    rep: u32,
    open: Option<usize>,
}

/// Engine events so far, from the public self-profiler snapshot
/// (`coro_resume`; 0 while the profiler is off).
pub fn engine_events() -> u64 {
    hpcbd_simnet::selfprof_snapshot()
        .into_iter()
        .find(|(name, _)| *name == "coro_resume")
        .map_or(0, |(_, v)| v)
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            rep: 0,
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, layer: &'static str) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open,
            rep: self.rep,
            events: engine_events(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let (end, events) = (self.now_ns(), engine_events());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.events = events - span.events;
    }

    /// Record `f` as a top-level span (a repetition, or input
    /// construction); arms recorded inside become its children.
    pub fn outer<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.push(name, "");
        self.open = Some(id);
        let r = f(self);
        self.open = None;
        self.close(id);
        if name == "rep" {
            self.rep += 1;
        }
        r
    }

    /// Record one call into a layer.
    pub fn arm<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.push(name, layer);
        let r = std::hint::black_box(f());
        self.close(id);
        r
    }

    /// Wall seconds and events per layer within repetition `rep`.
    pub fn by_layer(&self, rep: u32) -> Vec<(&'static str, f64, u64)> {
        let mut rows: Vec<(&'static str, f64, u64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.rep == rep && !s.layer.is_empty())
        {
            match rows.iter_mut().find(|(layer, _, _)| *layer == s.layer) {
                Some(row) => {
                    row.1 += s.seconds();
                    row.2 += s.events;
                }
                None => rows.push((s.layer, s.seconds(), s.events)),
            }
        }
        rows
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", JsonValue::str(s.name)),
                        ("layer", JsonValue::str(s.layer)),
                        ("start_ns", JsonValue::u64(s.start_ns)),
                        ("end_ns", JsonValue::u64(s.end_ns)),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::u64(p as u64)),
                        ),
                        ("rep", JsonValue::u64(s.rep as u64)),
                        ("events", num(s.events as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_nest_under_their_repetition_and_sum_by_layer() {
        let mut rec = Recorder::new();
        for _ in 0..2 {
            rec.outer("rep", |rec| {
                rec.arm("minimpi", "a", || ());
                rec.arm("minspark", "b", || ());
                rec.arm("minimpi", "c", || ());
            });
        }
        assert_eq!(rec.spans.len(), 8);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[5].parent, Some(4));
        assert_eq!(rec.spans[5].rep, 1);
        let layers = rec.by_layer(1);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].0, "minimpi");
        let rep = &rec.spans[4];
        let arms: f64 = layers.iter().map(|l| l.1).sum();
        assert!(arms <= rep.seconds());
    }
}
