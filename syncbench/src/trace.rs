//! Spans recorded from outside the program under test: a traced
//! `Read + Write` wrapper around the client's socket and a traced
//! [`ReconcileBackend`] wrapper around the backend the benchmark hands to
//! `sync_sharded_tcp`. Spans stay in memory and are written once, at exit.

use std::fmt::Write as _;
use std::io::{self, IoSlice, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use reconcile_core::{Progress, ReconcileBackend, SetDifference};

/// Root span of one synchronization.
pub const SYNC: &str = "statesync.sync";
/// `TcpStream::connect` plus socket options.
pub const CONNECT: &str = "statesync.connect";
/// First write of the client to the first read that returned: one RTT.
pub const HANDSHAKE: &str = "reconcile_core.handshake";
/// One `write` call on the client's socket.
pub const IO_WRITE: &str = "statesync.io.write";
/// One `read` call on the client's socket (mostly waiting for the server).
pub const IO_READ: &str = "statesync.io.read_wait";
/// `ReconcileBackend::build_client` of one shard.
pub const BUILD: &str = "backend.build_client";
/// `ReconcileBackend::absorb` of one payload.
pub const ABSORB: &str = "backend.absorb";
/// `ReconcileBackend::into_difference` of one shard.
pub const INTO_DIFFERENCE: &str = "backend.into_difference";
/// One `write_churn` mutation burst (outside any sync span).
pub const MUTATE: &str = "server.mutate";

/// One traced interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name (one of the constants of this module).
    pub name: &'static str,
    /// Start, in nanoseconds since the process's first span.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one synchronization.
    pub sync_id: u32,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Innermost open container span: the parent of whatever comes next.
    open: Option<u32>,
    sync_id: u32,
    payload_bytes: u64,
}

/// Shared handle to the in-memory span store. Clones record into the same
/// store, from any thread.
#[derive(Clone, Default)]
pub struct Tracer(Arc<Mutex<State>>);

/// Nanoseconds on the trace clock.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Tracer {
    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.0.lock().expect("a tracing thread panicked")
    }

    /// Opens a container span; spans recorded until [`Self::exit`] are its
    /// children.
    pub fn enter(&self, name: &'static str) -> u32 {
        let start_ns = now_ns();
        let mut st = self.state();
        if name == SYNC {
            st.sync_id += 1;
        }
        let id = st.spans.len() as u32;
        let (parent, sync_id) = (st.open, st.sync_id);
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sync_id,
        });
        st.open = Some(id);
        id
    }

    /// Closes a container span opened by [`Self::enter`].
    pub fn exit(&self, id: u32) {
        let end_ns = now_ns();
        let mut st = self.state();
        st.spans[id as usize].end_ns = end_ns;
        st.open = st.spans[id as usize].parent;
    }

    /// Records a finished leaf span under the open container.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut st = self.state();
        let (parent, sync_id) = (st.open, st.sync_id);
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            sync_id,
        });
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        self.leaf(name, start_ns, now_ns());
        out
    }

    /// Payload bytes the traced backend absorbed so far.
    pub fn payload_bytes(&self) -> u64 {
        self.state().payload_bytes
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// A client socket that records one span per `read` and `write` call, and
/// the handshake as the interval from the first write to the first read
/// that returned.
pub struct TracedStream<T> {
    inner: T,
    tracer: Tracer,
    handshake: Handshake,
}

enum Handshake {
    NotStarted,
    Open(u32),
    Done,
}

impl<T> TracedStream<T> {
    /// Wraps `inner`; spans go to `tracer`.
    pub fn new(inner: T, tracer: Tracer) -> Self {
        TracedStream {
            inner,
            tracer,
            handshake: Handshake::NotStarted,
        }
    }
}

impl<T: Read> Read for TracedStream<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start_ns = now_ns();
        let result = self.inner.read(buf);
        self.tracer.leaf(IO_READ, start_ns, now_ns());
        if let Handshake::Open(id) = self.handshake {
            self.tracer.exit(id);
            self.handshake = Handshake::Done;
        }
        result
    }
}

impl<T: Write> TracedStream<T> {
    fn traced_write(
        &mut self,
        write: impl FnOnce(&mut T) -> io::Result<usize>,
    ) -> io::Result<usize> {
        if let Handshake::NotStarted = self.handshake {
            self.handshake = Handshake::Open(self.tracer.enter(HANDSHAKE));
        }
        let start_ns = now_ns();
        let result = write(&mut self.inner);
        self.tracer.leaf(IO_WRITE, start_ns, now_ns());
        result
    }
}

impl<T: Write> Write for TracedStream<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.traced_write(|inner| inner.write(buf))
    }

    // Forwarded so a client that starts gathering its writes keeps doing so
    // under the wrapper (the default would split them into `write` calls).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.traced_write(|inner| inner.write_vectored(bufs))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A backend that records a span around the client-side calls of `inner`
/// and counts the payload bytes absorbed.
#[derive(Clone)]
pub struct TracedBackend<B> {
    inner: B,
    tracer: Tracer,
}

impl<B> TracedBackend<B> {
    /// Wraps `inner`; spans go to `tracer`.
    pub fn new(inner: B, tracer: Tracer) -> Self {
        TracedBackend { inner, tracer }
    }
}

impl<B: ReconcileBackend> ReconcileBackend for TracedBackend<B> {
    type Item = B::Item;
    type Server = B::Server;
    type Client = B::Client;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build_server(&self, items: &[Self::Item]) -> Self::Server {
        self.inner.build_server(items)
    }

    fn build_client(&self, items: &[Self::Item]) -> Self::Client {
        self.tracer.time(BUILD, || self.inner.build_client(items))
    }

    fn open_request(&self, client: &mut Self::Client) -> Vec<u8> {
        self.inner.open_request(client)
    }

    fn serve(
        &self,
        server: &mut Self::Server,
        request: Option<&[u8]>,
    ) -> reconcile_core::Result<Vec<u8>> {
        self.inner.serve(server, request)
    }

    fn absorb(
        &self,
        client: &mut Self::Client,
        payload: &[u8],
    ) -> reconcile_core::Result<Progress> {
        let out = self
            .tracer
            .time(ABSORB, || self.inner.absorb(client, payload));
        self.tracer.state().payload_bytes += payload.len() as u64;
        out
    }

    fn units(&self, client: &Self::Client) -> usize {
        self.inner.units(client)
    }

    fn into_difference(
        &self,
        client: Self::Client,
    ) -> reconcile_core::Result<SetDifference<Self::Item>> {
        self.tracer
            .time(INTO_DIFFERENCE, || self.inner.into_difference(client))
    }
}

/// Per-name totals over a span list, plus what the sync spans account for.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Sync spans seen.
    pub syncs: usize,
    /// Durations of the sync spans, in nanoseconds, in order.
    pub sync_ns: Vec<u64>,
    /// Sum of the sync spans' self times.
    pub sync_self_ns: u64,
    /// Sum of the durations of the sync spans' direct children.
    pub sync_children_ns: u64,
    totals: Vec<(&'static str, u64, u64)>,
}

impl Summary {
    /// Summarizes `spans` in one pass (children are attributed to their
    /// parent as they stream by, so this stays linear in the span count).
    pub fn of(spans: &[Span]) -> Summary {
        let mut out = Summary::default();
        let mut cover: Vec<(u64, u64)> = vec![(0, 0); spans.len()]; // (reach, covered)
        for (id, span) in spans.iter().enumerate() {
            match out.totals.iter_mut().find(|t| t.0 == span.name) {
                Some(total) => {
                    total.1 += span.duration_ns();
                    total.2 += 1;
                }
                None => out.totals.push((span.name, span.duration_ns(), 1)),
            }
            cover[id].0 = span.start_ns;
            if let Some(parent) = span.parent {
                let p = &spans[parent as usize];
                if p.name == SYNC {
                    out.sync_children_ns += span.duration_ns();
                }
                // Spans are pushed when they end (leaves) or start
                // (containers); either way a parent's children arrive in
                // start order on the single client thread.
                let (reach, covered) = &mut cover[parent as usize];
                let end = span.end_ns.min(p.end_ns);
                let start = span.start_ns.max(*reach);
                if end > start {
                    *covered += end - start;
                    *reach = end;
                }
            }
        }
        for (id, span) in spans.iter().enumerate() {
            if span.name == SYNC {
                out.syncs += 1;
                out.sync_ns.push(span.duration_ns());
                out.sync_self_ns += span.duration_ns() - cover[id].1;
            }
        }
        out
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.1)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.2)
    }

    /// Milliseconds per sync spent in spans called `name`.
    pub fn ms_per_sync(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e6 / self.syncs.max(1) as f64
    }

    /// Spans called `name` per sync.
    pub fn calls_per_sync(&self, name: &str) -> f64 {
        self.count(name) as f64 / self.syncs.max(1) as f64
    }
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since first span\",\"spans\":["
    )?;
    let mut line = String::new();
    for (id, span) in spans.iter().enumerate() {
        line.clear();
        let _ = write!(
            line,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            span.name, span.start_ns, span.end_ns
        );
        match span.parent {
            Some(parent) => {
                let _ = write!(line, "{parent}");
            }
            None => line.push_str("null"),
        }
        let _ = write!(line, ",\"sync_id\":{}}}", span.sync_id);
        if id + 1 < spans.len() {
            line.push(',');
        }
        writeln!(out, "{line}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference for [`Summary::of`]: the self time of span `id` is its
    /// duration minus the part of that interval its direct children cover
    /// (overlapping children are not counted twice).
    fn self_time_ns(spans: &[Span], id: u32) -> u64 {
        let span = &spans[id as usize];
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            sync_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(SYNC, 100, 1_100, None),                 // 0
            span(CONNECT, 100, 200, Some(0)),             // 1: 100
            span(HANDSHAKE, 250, 450, Some(0)),           // 2: 200
            span(IO_WRITE, 250, 300, Some(2)),            // 3: grandchild, not counted
            span(IO_READ, 300, 450, Some(2)),             // 4: grandchild
            span(ABSORB, 500, 700, Some(0)),              // 5: 200
            span(IO_READ, 650, 800, Some(0)),             // 6: overlaps 5 by 50 → adds 100
            span(INTO_DIFFERENCE, 1_000, 1_200, Some(0)), // 7: clipped to 100
        ];
        // covered = 100 + 200 + 200 + 100 + 100 = 700
        assert_eq!(self_time_ns(&spans, 0), 300);
        // The handshake is fully covered by its two io spans.
        assert_eq!(self_time_ns(&spans, 2), 0);
        // A leaf is all self time.
        assert_eq!(self_time_ns(&spans, 5), 200);
    }

    #[test]
    fn summary_agrees_with_self_time_and_counts_per_sync() {
        let spans = vec![
            span(MUTATE, 0, 50, None),
            span(SYNC, 100, 1_100, None), // 1
            span(CONNECT, 100, 200, Some(1)),
            span(HANDSHAKE, 250, 450, Some(1)), // 3
            span(IO_WRITE, 250, 300, Some(3)),
            span(IO_READ, 300, 450, Some(3)),
            span(ABSORB, 500, 700, Some(1)),
            span(SYNC, 2_000, 2_400, None), // 7
            span(ABSORB, 2_100, 2_200, Some(7)),
            span(ABSORB, 2_200, 2_350, Some(7)),
        ];
        let sum = Summary::of(&spans);
        assert_eq!(sum.syncs, 2);
        assert_eq!(sum.sync_ns, vec![1_000, 400]);
        assert_eq!(
            sum.sync_self_ns,
            self_time_ns(&spans, 1) + self_time_ns(&spans, 7)
        );
        assert_eq!(sum.sync_self_ns, 500 + 150);
        // No overlapping children here: children + self is the whole span.
        assert_eq!(sum.sync_children_ns + sum.sync_self_ns, 1_400);
        assert_eq!(sum.count(ABSORB), 3);
        assert_eq!(sum.total_ns(ABSORB), 450);
        assert_eq!(sum.calls_per_sync(ABSORB), 1.5);
        assert_eq!(sum.ms_per_sync(MUTATE), 50.0 / 1e6 / 2.0);
        assert_eq!(sum.count("absent"), 0);
    }

    #[test]
    fn tracer_nests_leaves_under_the_open_container() {
        let tracer = Tracer::default();
        let sync = tracer.enter(SYNC);
        tracer.time(CONNECT, || ());
        let mut io = TracedStream::new(io::Cursor::new(vec![0u8; 8]), tracer.clone());
        io.write_all(&[1, 2]).unwrap(); // opens the handshake
        io.write_all(&[3]).unwrap();
        let mut byte = [0u8; 1];
        io.read_exact(&mut byte).unwrap(); // closes it
        io.read_exact(&mut byte).unwrap();
        tracer.exit(sync);
        tracer.time(MUTATE, || ());

        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (SYNC, None),
                (CONNECT, Some(0)),
                (HANDSHAKE, Some(0)),
                (IO_WRITE, Some(2)),
                (IO_WRITE, Some(2)),
                (IO_READ, Some(2)),
                (IO_READ, Some(0)),
                (MUTATE, None),
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.sync_id == 1 && s.end_ns >= s.start_ns));
        let handshake = &spans[2];
        assert!(handshake.start_ns <= spans[3].start_ns && handshake.end_ns >= spans[5].end_ns);
    }
}
