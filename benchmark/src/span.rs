//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's own
//! files: name, start, end, the span that caused it, and the id of the
//! rep or request batch it belongs to. Every span adds to its layer's
//! total; hot loops keep only a sample of the rows (`keep`) so memory
//! stays bounded, which does not change the totals. A layer's self time
//! is its total minus the part its children cover, and whatever the
//! root spans do not account for is reported as `residual`.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub child_ns: u64,
    /// A root span is the benchmark's own loop (one rep, one request
    /// batch), not a layer: its self time is part of the residual.
    pub root: bool,
}

impl LayerTime {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    kept: Vec<Span>,
    layers: Vec<(&'static str, LayerTime)>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            kept: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn layer(&mut self, name: &'static str) -> &mut LayerTime {
        let at = match self.layers.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.layers.push((name, LayerTime::default()));
                self.layers.len() - 1
            }
        };
        &mut self.layers[at].1
    }

    /// Closes the span `name` opened at `start`, returning its end so
    /// back-to-back spans share one clock read.
    pub fn close(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        batch: u64,
        start: Instant,
        keep: bool,
    ) -> Instant {
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let layer = self.layer(name);
        layer.calls += 1;
        layer.total_ns += ns;
        match parent {
            Some(parent) => self.layer(parent).child_ns += ns,
            None => self.layer(name).root = true,
        }
        if keep {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span {
                name,
                parent,
                batch,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        end
    }

    /// Folds another thread's recording into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, time) in other.layers {
            let mine = self.layer(name);
            mine.calls += time.calls;
            mine.total_ns += time.total_ns;
            mine.child_ns += time.child_ns;
            mine.root |= time.root;
        }
        self.kept.extend(other.kept);
    }

    pub fn layer_time(&self, name: &str) -> LayerTime {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    }

    /// The trace as JSON lines: one `span` row per kept span, then one
    /// `layer` row per layer with its self time, then the `residual`.
    pub fn to_jsonl(&self, wall_ns: u64) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"type\": \"span\", \"name\": \"{}\", \"parent\": {}, \"batch\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.batch,
                s.start_ns,
                s.end_ns
            );
        }
        for (name, t) in self.layers.iter().filter(|(_, t)| !t.root) {
            let _ = writeln!(
                out,
                "{{\"type\": \"layer\", \"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.calls,
                t.total_ns,
                t.self_ns()
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\": \"residual\", \"wall_ns\": {wall_ns}, \"self_ns\": {}}}",
            self.residual_ns(wall_ns)
        );
        out
    }

    /// Writes the trace to `dir/trace_<workload>.jsonl`; returns the
    /// path and one line per layer for the reader: its self time and
    /// share of `wall_ns` (the root rows show the residual).
    pub fn write(
        &self,
        dir: &std::path::Path,
        workload: &str,
        wall_ns: u64,
    ) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace_{workload}.jsonl"));
        std::fs::write(&path, self.to_jsonl(wall_ns))?;
        let mut lines = vec![format!("spans written to {}", path.display())];
        for (layer, time) in &self.layers {
            let ns = if time.root {
                self.residual_ns(wall_ns)
            } else {
                time.self_ns()
            };
            lines.push(format!(
                "self time {layer:<32} {:>10.3} ms ({:>5.1} % of traced wall)",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / wall_ns.max(1) as f64
            ));
        }
        Ok(lines)
    }

    /// Wall time no layer's self time accounts for: the benchmark's own
    /// loops plus whatever ran outside any span.
    pub fn residual_ns(&self, wall_ns: u64) -> u64 {
        let accounted: u64 = self
            .layers
            .iter()
            .filter(|(_, t)| !t.root)
            .map(|(_, t)| t.self_ns())
            .sum();
        wall_ns.saturating_sub(accounted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_and_residual_sum_to_the_wall() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let rep = Instant::now();
        let call = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let inner = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        tracer.close("layer.inner", Some("layer.outer"), 0, inner, true);
        tracer.close("layer.outer", Some("bench.rep"), 0, call, true);
        std::thread::sleep(Duration::from_millis(1));
        tracer.close("bench.rep", None, 0, rep, true);
        let wall = epoch.elapsed().as_nanos() as u64;

        let outer = tracer.layer_time("layer.outer");
        let inner = tracer.layer_time("layer.inner");
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.self_ns() >= 2_000_000);
        let accounted = outer.self_ns() + inner.self_ns();
        assert_eq!(accounted + tracer.residual_ns(wall), wall);
        assert!(tracer.residual_ns(wall) >= 1_000_000, "the rep's own time");

        let jsonl = tracer.to_jsonl(wall);
        assert_eq!(jsonl.lines().filter(|l| l.contains("\"span\"")).count(), 3);
        assert_eq!(jsonl.lines().filter(|l| l.contains("\"layer\"")).count(), 2);
        assert!(jsonl.lines().last().unwrap().contains("residual"));
    }

    #[test]
    fn unkept_spans_still_count() {
        let mut a = Tracer::new(Instant::now());
        let mut b = Tracer::new(Instant::now());
        for tracer in [&mut a, &mut b] {
            let t = Instant::now();
            tracer.close("x", None, 1, t, false);
        }
        a.absorb(b);
        assert_eq!(a.layer_time("x").calls, 2);
        assert!(a.to_jsonl(0).lines().all(|l| !l.contains("\"span\"")));
    }
}
