//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out (Chrome
//! trace-event JSON) when the run ends. With recording off — every
//! end-to-end number is measured that way — `span` costs one relaxed
//! atomic load.

use aeon_store::node::{NodeError, NodeId, ShardKey, StorageNode};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// `parent` value of root spans.
pub const NO_SPAN: u32 = u32::MAX;
/// `object` value of spans that do not belong to one object.
pub const NO_OBJECT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, `NO_SPAN` for roots.
    pub parent: u32,
    /// Index of the object (or first object of the batch) being served.
    pub object: u32,
    pub bytes: u64,
    /// 0 = the client thread; `1 + node id` for node I/O that a parallel
    /// dispatch ran on a lane thread.
    pub lane: u32,
    pub failed: bool,
}

struct Recorder {
    spans: Vec<SpanRec>,
    /// Open spans of the client thread, innermost last.
    stack: Vec<u32>,
    epoch: Option<Instant>,
    client: Option<ThreadId>,
    object: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    spans: Vec::new(),
    stack: Vec::new(),
    epoch: None,
    client: None,
    object: NO_OBJECT,
});

fn recorder() -> MutexGuard<'static, Recorder> {
    // A panic while holding the lock can only leave a half-recorded
    // span behind, never invalid data: keep recording.
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts recording on the calling (client) thread.
pub fn enable() {
    let mut r = recorder();
    r.spans.clear();
    r.stack.clear();
    r.epoch = Some(Instant::now());
    r.client = Some(std::thread::current().id());
    r.object = NO_OBJECT;
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span.
pub fn disable() -> Vec<SpanRec> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut recorder().spans)
}

/// Tags subsequently opened spans with an object index.
pub fn set_object(object: u32) {
    if ENABLED.load(Ordering::Relaxed) {
        recorder().object = object;
    }
}

/// An open span; closes when dropped.
pub struct Span(u32);

/// Opens a span over `bytes` bytes of work.
pub fn span(name: &'static str, bytes: u64) -> Span {
    span_on(name, bytes, 0)
}

fn span_on(name: &'static str, bytes: u64, off_thread_lane: u32) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span(NO_SPAN);
    }
    let mut r = recorder();
    let on_client = r.client == Some(std::thread::current().id());
    let idx = r.spans.len() as u32;
    let parent = r.stack.last().copied().unwrap_or(NO_SPAN);
    let object = r.object;
    let start_ns = r.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
    r.spans.push(SpanRec {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        object,
        bytes,
        lane: if on_client { 0 } else { off_thread_lane },
        failed: false,
    });
    if on_client {
        r.stack.push(idx);
    }
    Span(idx)
}

impl Span {
    /// Marks the spanned operation as failed.
    pub fn fail(&self) {
        if self.0 != NO_SPAN {
            if let Some(s) = recorder().spans.get_mut(self.0 as usize) {
                s.failed = true;
            }
        }
    }

    /// Sets the byte count once it is known (reads).
    pub fn set_bytes(&self, bytes: u64) {
        if self.0 != NO_SPAN {
            if let Some(s) = recorder().spans.get_mut(self.0 as usize) {
                s.bytes = bytes;
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.0 == NO_SPAN {
            return;
        }
        let mut r = recorder();
        let end = r.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
        if let Some(s) = r.spans.get_mut(self.0 as usize) {
            s.end_ns = end;
        }
        if r.stack.last() == Some(&self.0) {
            r.stack.pop();
        }
    }
}

/// Runs `f` inside a span.
pub fn in_span<T>(name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
    let _span = span(name, bytes);
    f()
}

/// A `StorageNode` decorator recording `store.node.put` / `store.node.get`
/// spans with the bytes that actually moved. The traced run places it
/// directly over each `MemoryNode` / `FileNode`.
#[derive(Debug)]
pub struct TracingNode(pub Arc<dyn StorageNode>);

impl TracingNode {
    fn lane(&self) -> u32 {
        1 + self.0.id().0
    }
}

fn sum_ok(results: &[Result<Vec<u8>, NodeError>]) -> u64 {
    results.iter().flatten().map(|d| d.len() as u64).sum()
}

impl StorageNode for TracingNode {
    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn site(&self) -> &str {
        self.0.site()
    }

    fn put(&self, key: &ShardKey, data: &[u8]) -> Result<(), NodeError> {
        let span = span_on("store.node.put", data.len() as u64, self.lane());
        let result = self.0.put(key, data);
        if result.is_err() {
            span.fail();
        }
        result
    }

    fn put_batch(&self, entries: &[(ShardKey, &[u8])]) -> Vec<Result<(), NodeError>> {
        let bytes = entries.iter().map(|(_, d)| d.len() as u64).sum();
        let span = span_on("store.node.put", bytes, self.lane());
        let results = self.0.put_batch(entries);
        if results.iter().any(Result::is_err) {
            span.fail();
        }
        results
    }

    fn get(&self, key: &ShardKey) -> Result<Vec<u8>, NodeError> {
        let span = span_on("store.node.get", 0, self.lane());
        let result = self.0.get(key);
        match &result {
            Ok(data) => span.set_bytes(data.len() as u64),
            // A wiped shard is the damage model, not a failed operation.
            Err(NodeError::NotFound) => {}
            Err(_) => span.fail(),
        }
        result
    }

    fn get_batch(&self, keys: &[ShardKey]) -> Vec<Result<Vec<u8>, NodeError>> {
        let span = span_on("store.node.get", 0, self.lane());
        let results = self.0.get_batch(keys);
        span.set_bytes(sum_ok(&results));
        if results
            .iter()
            .any(|r| matches!(r, Err(e) if *e != NodeError::NotFound))
        {
            span.fail();
        }
        results
    }

    fn delete(&self, key: &ShardKey) -> Result<(), NodeError> {
        self.0.delete(key)
    }

    fn keys(&self) -> Vec<ShardKey> {
        self.0.keys()
    }

    fn stored_bytes(&self) -> u64 {
        self.0.stored_bytes()
    }
}

/// Totals of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub calls: u64,
    pub bytes: u64,
    pub busy_s: f64,
    /// Busy time minus the part covered by child spans.
    pub self_s: f64,
    pub failed: u64,
    pub durations_ms: Vec<f64>,
}

/// Per-name totals over `spans`. Self time of a span is its duration
/// minus its direct children's, floored at zero (lane children of one
/// parent overlap each other under parallel dispatch).
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let ns = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.bytes += s.bytes;
        t.busy_s += ns as f64 / 1e9;
        t.self_s += ns.saturating_sub(*children) as f64 / 1e9;
        t.failed += u64::from(s.failed);
        t.durations_ms.push(ns as f64 / 1e6);
    }
    out
}

/// Span name under which the replays re-run the inside of a span they
/// have already timed as a whole; such detail never counts as a child.
pub const DETAIL: &str = "replay.detail";

/// Busy seconds of the direct children of every span named `parent`.
pub fn children_busy_s(spans: &[SpanRec], parent: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name != DETAIL)
        .filter(|s| s.parent != NO_SPAN && spans[s.parent as usize].name == parent)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, `tid` = lane, `cat` = layer.
pub fn chrome_trace(spans: &[SpanRec], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\"},\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let cat = s.name.split('.').next().unwrap_or("");
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"object\":{},\"bytes\":{},\"failed\":{}}}}}",
            s.name,
            cat,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) },
            if s.object == NO_OBJECT { -1 } else { i64::from(s.object) },
            s.bytes,
            s.failed,
        )
        .expect("string write");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn rec(name: &'static str, start: u64, end: u64, parent: u32, bytes: u64) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            object: 0,
            bytes,
            lane: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            rec("op.ingest", 0, 1_000, NO_SPAN, 0),
            rec("core.plan.write", 100, 600, 0, 10),
            rec("crypto.sha256", 200, 300, 1, 10),
            rec("core.executor.commit", 600, 900, 0, 10),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["op.ingest"].calls, 1);
        assert!((agg["op.ingest"].self_s - 200e-9).abs() < 1e-15);
        assert!((agg["core.plan.write"].self_s - 400e-9).abs() < 1e-15);
        assert!((children_busy_s(&spans, "op.ingest") - 800e-9).abs() < 1e-15);
    }

    /// The only test that touches the global recorder.
    #[test]
    fn recorder_nests_client_spans_and_parents_lane_spans() {
        let node = Arc::new(TracingNode(Arc::new(aeon_store::MemoryNode::new(
            3, "site",
        ))));
        enable();
        set_object(7);
        {
            let _op = span("op.ingest", 0);
            in_span("core.executor.commit", 5, || {
                let lane = node.clone();
                std::thread::spawn(move || lane.put(&ShardKey::new("obj", 0), b"hello"))
                    .join()
                    .unwrap()
                    .unwrap();
            });
            assert!(node.get(&ShardKey::new("missing", 0)).is_err());
        }
        let _ignored = span("root.after", 0);
        let spans = disable();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "op.ingest",
                "core.executor.commit",
                "store.node.put",
                "store.node.get",
                "root.after"
            ]
        );
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].parent, spans[2].lane, spans[2].bytes), (1, 4, 5));
        assert_eq!(
            (spans[3].parent, spans[3].lane, spans[3].failed),
            (0, 0, false)
        );
        assert_eq!(spans[4].parent, NO_SPAN);
        assert!(spans
            .iter()
            .all(|s| s.object == 7 && s.end_ns >= s.start_ns));
        // With recording off a span is a no-op.
        drop(span("ignored", 0));
        assert!(disable().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            rec("op.ingest", 0, 1_000, NO_SPAN, 0),
            rec("store.node.put", 100, 600, 0, 10),
        ];
        let doc = Value::parse(&chrome_trace(&spans, "w")).unwrap();
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat"), Some(&Value::str("store")));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(0.5));
    }
}
