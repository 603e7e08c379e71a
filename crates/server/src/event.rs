//! The event-driven serving core of the `reconciled` daemon: a small pool
//! of reactor worker threads multiplexing every connection over nonblocking
//! sockets (see [`crate::reactor`] for the readiness primitive).
//!
//! ## Why a reactor fits rateless reconciliation
//!
//! Serving a peer needs no per-peer computation state: a connection is a
//! handshake followed by stateless range reads out of the shared per-shard
//! sketch caches (the connection's `cluster::Responder` stages each reply
//! straight into its write buffer). Nothing about a connection is worth a
//! dedicated OS thread, so one worker can interleave thousands of peers;
//! the concurrency ceiling becomes file descriptors, not stacks. This is
//! the daemon's only serving path.
//!
//! ## Worker model
//!
//! Each worker owns a private [`Poller`], registers duplicate handles of
//! both listeners (level-triggered shared accept: every worker wakes on a
//! pending connection and accepts until `WouldBlock` — a benign thundering
//! herd at this worker count), and keeps an exclusive table of the
//! connections it accepted. Connections never migrate between workers, so
//! there is no cross-thread handoff, no wake pipe, and no locking around
//! connection state; workers only share the daemon's `SharedState`
//! (node, caches, metrics), which synchronizes itself.
//!
//! ## Backpressure
//!
//! Replies are staged in a per-connection write buffer flushed on
//! writability. When unsent bytes cross
//! [`max_write_buffer`](crate::daemon::DaemonConfig::max_write_buffer),
//! the connection is *paused*: its requests stop being processed, its read
//! interest is dropped (so the kernel's receive window throttles the
//! peer), and only writability is watched; it resumes below half the mark.
//! A slow reader therefore stalls only its own streams — never
//! the encode path, the caches, or any other peer — and costs one bounded
//! buffer, not one thread. With no write progress for the write timeout,
//! or no read for the read timeout while idle, the sweep between polls
//! drops the connection: the two timeouts bound what any peer can hold.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cluster::Responder;
use reconcile_core::framing::{append_frame, FrameBuffer};
use reconcile_core::handshake::{reject_frame_bytes, validate_client_hello, Hello, RejectReason};
use riblt::Symbol;

use crate::admin;
use crate::daemon::{
    handle_udp_datagram, sweep_udp_sessions, ConnAccounting, DaemonConfig, SharedState,
};
use crate::reactor::{Interest, PollEvent, Poller};

/// Poll token of the data listener in every worker.
const DATA_LISTENER: u64 = 0;
/// Poll token of the admin listener in every worker.
const ADMIN_LISTENER: u64 = 1;
/// Poll token of the UDP data socket in every worker (registered only when
/// the datagram transport is enabled).
const UDP_SOCKET: u64 = 2;
/// First token handed to an accepted connection; tokens are per-worker and
/// never reused.
const FIRST_CONN_TOKEN: u64 = 3;

/// Poll timeout: the granularity of the timeout sweep and the stop check.
const TICK: Duration = Duration::from_millis(25);

/// Per-readiness-event read budget (bytes). Level-triggered polling
/// re-notifies leftovers, so capping a firehose peer here keeps one
/// connection from starving the rest of the worker's table.
const READ_BUDGET: usize = 256 * 1024;

/// Bound on a buffered admin command line; no legitimate command comes
/// close (items are `2 × symbol_len` hex digits).
const MAX_ADMIN_LINE: usize = 1 << 20;

/// Caps auto-detected worker counts: reconciliation serving is cache reads
/// plus memcpys, which saturate a NIC long before four cores.
const MAX_AUTO_WORKERS: usize = 4;

/// Most datagrams one readiness event will pump before yielding back to the
/// poll loop (level-triggered polling re-notifies leftovers).
const UDP_DATAGRAM_BUDGET: usize = 256;

/// How often each worker sweeps idle UDP sessions.
const UDP_SWEEP_EVERY: Duration = Duration::from_millis(500);

/// Cap on the per-connection drain grace after a shutdown is observed. The
/// grace tracks the read timeout (a peer mid-request deserves its normal
/// window to finish) but an extreme `read_timeout` must not let draining
/// extend unboundedly — shutdown latency is a liveness property.
const DRAIN_GRACE_CAP: Duration = Duration::from_secs(5);

/// Grace a reactor worker gives live connections to finish once it observes
/// the shutdown flag: the read timeout, capped at `DRAIN_GRACE_CAP` (5s), plus
/// one second of flush slack. Computed exactly once per worker when the
/// flag is first observed, so no configuration or clock skew can push the
/// deadline out after draining starts.
pub fn drain_grace(read_timeout: Duration) -> Duration {
    read_timeout.min(DRAIN_GRACE_CAP) + Duration::from_secs(1)
}

/// Resolves [`reactor_workers`](crate::daemon::DaemonConfig::reactor_workers)
/// (0 = auto: the machine's parallelism, capped at 4).
pub fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_AUTO_WORKERS)
}

/// Spawns the reactor worker pool. Each worker gets duplicate handles of
/// both listeners and serves the connections it accepts until shutdown.
pub(crate) fn spawn_workers<S: Symbol + Ord + Send + 'static>(
    data_listener: TcpListener,
    admin_listener: TcpListener,
    udp_socket: Option<UdpSocket>,
    shared: &Arc<SharedState<S>>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let workers = effective_workers(shared.config.reactor_workers);
    shared.metrics.reactor_workers.set(workers as i64);
    // Dup the listener (and UDP socket) fds up front so clone failures
    // surface as a spawn error instead of a half-started pool.
    let mut listeners = Vec::with_capacity(workers);
    for _ in 1..workers {
        let udp = udp_socket.as_ref().map(|s| s.try_clone()).transpose()?;
        listeners.push((data_listener.try_clone()?, admin_listener.try_clone()?, udp));
    }
    listeners.push((data_listener, admin_listener, udp_socket));

    let mut handles = Vec::with_capacity(workers);
    for (index, (data, admin, udp)) in listeners.into_iter().enumerate() {
        let worker_shared = Arc::clone(shared);
        handles.push(
            thread::Builder::new()
                .name(format!("reconciled-reactor-{index}"))
                .spawn(move || worker_loop(data, admin, udp, worker_shared))?,
        );
    }
    Ok(handles)
}

/// What a connection is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Data connection awaiting the client hello.
    Handshake,
    /// Data connection serving mux frames.
    Serving,
    /// Admin connection executing line commands.
    Admin,
    /// Flushing staged bytes, then closing (outcome already decided).
    Closing,
}

/// Why a connection is being closed; decides which teardown counter moves.
enum Close {
    /// Peer finished cleanly: EOF at a frame boundary, admin `QUIT`, or a
    /// shutdown drain.
    Clean,
    /// Dropped during the handshake (malformed hello or parameter
    /// mismatch) — counted in `handshake_failures`.
    Handshake(String),
    /// Dropped post-accept for protocol violations, timeouts, or I/O —
    /// counted in `connection_errors` (admin connections are exempt: an
    /// operator's dropped shell is not a peer fault).
    Error(String),
}

struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    state: ConnState,
    /// Incremental frame reassembly (data connections), bounded by
    /// `MAX_FRAME_BYTES`: an oversized length claim poisons the stream
    /// instead of being buffered.
    inbuf: FrameBuffer,
    /// Buffered command bytes up to the next newline (admin connections).
    line: Vec<u8>,
    /// Staged outbound bytes; `out_start` is the flushed prefix.
    outbuf: Vec<u8>,
    out_start: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Write-buffer high-water reached; reads and request processing are
    /// suspended until the peer drains below half the mark.
    paused: bool,
    /// Peer half-closed; finish queued work, then tear down.
    eof: bool,
    last_read: Instant,
    last_write_progress: Instant,
    opened: Instant,
    handshake_observed: bool,
    /// Close outcome text, set the moment the close was decided (the
    /// connection may still be flushing).
    outcome: Option<String>,
    /// Serves the mux frames after the handshake.
    responder: Responder,
    acct: ConnAccounting,
}

impl Conn {
    fn new(
        stream: TcpStream,
        peer: SocketAddr,
        state: ConnState,
        now: Instant,
        config: &DaemonConfig,
    ) -> Conn {
        Conn {
            stream,
            peer,
            state,
            inbuf: FrameBuffer::new(),
            line: Vec::new(),
            outbuf: Vec::new(),
            out_start: 0,
            interest: Interest::READ,
            paused: false,
            eof: false,
            last_read: now,
            last_write_progress: now,
            opened: now,
            handshake_observed: false,
            outcome: None,
            responder: Responder::new(
                config.shards,
                config.symbol_len,
                config.batch_symbols,
                config.max_units_per_session,
            ),
            acct: ConnAccounting::default(),
        }
    }

    fn is_data(&self) -> bool {
        !matches!(self.state, ConnState::Admin)
    }

    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_start
    }

    /// Stages one length-prefixed handshake frame (a hello or a reject:
    /// tens of bytes, always within the frame bound) for writing.
    fn queue_frame(&mut self, body: &[u8]) {
        append_frame(&mut self.outbuf, body).expect("handshake frames are tiny");
    }

    /// Writes as much of the staged bytes as the socket accepts right now.
    fn flush(&mut self, now: Instant) -> io::Result<()> {
        while self.out_start < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.out_start += n;
                    self.last_write_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_start == self.outbuf.len() {
            self.outbuf.clear();
            self.out_start = 0;
        } else if self.out_start > 65_536 && self.out_start * 2 >= self.outbuf.len() {
            self.outbuf.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(())
    }

    /// The interest this connection should be registered with right now.
    fn desired_interest(&self) -> Interest {
        if self.state == ConnState::Closing || self.paused {
            Interest::WRITE
        } else if self.pending_out() > 0 {
            Interest::BOTH
        } else {
            Interest::READ
        }
    }
}

fn worker_loop<S: Symbol + Ord>(
    data_listener: TcpListener,
    admin_listener: TcpListener,
    udp_socket: Option<UdpSocket>,
    shared: Arc<SharedState<S>>,
) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("reconciled: reactor worker failed to start: {e}");
            return;
        }
    };
    for (listener, token) in [
        (&data_listener, DATA_LISTENER),
        (&admin_listener, ADMIN_LISTENER),
    ] {
        if let Err(e) = poller.register(listener.as_raw_fd(), token, Interest::READ) {
            eprintln!("reconciled: reactor listener registration failed: {e}");
            return;
        }
    }
    if let Some(socket) = &udp_socket {
        if let Err(e) = poller.register(socket.as_raw_fd(), UDP_SOCKET, Interest::READ) {
            eprintln!("reconciled: reactor UDP registration failed: {e}");
            return;
        }
    }
    let config = &shared.config;
    let local_hello = Hello::new(config.key, config.shards, config.symbol_len);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 65_536];
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let mut last_udp_sweep = Instant::now();

    loop {
        let now = Instant::now();
        if shared.stop.load(Ordering::SeqCst) && !draining {
            // The deadline is computed exactly once, from a capped grace —
            // a large read_timeout must not stretch shutdown unboundedly.
            draining = true;
            drain_deadline = now + drain_grace(config.read_timeout);
            let _ = poller.deregister(data_listener.as_raw_fd());
            let _ = poller.deregister(admin_listener.as_raw_fd());
            if let Some(socket) = &udp_socket {
                let _ = poller.deregister(socket.as_raw_fd());
            }
            // Drain: flush every connection's staged replies, drop unread
            // requests. A reply already staged was earned before the stop;
            // a request not yet processed is the client's to retry.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    if conn.state != ConnState::Closing {
                        begin_close(&shared, conn, Close::Clean);
                    }
                    let _ = conn.flush(now);
                }
                settle(&poller, &mut conns, token, &shared);
            }
        }
        if draining && conns.is_empty() {
            break;
        }
        if draining && now >= drain_deadline {
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                finish_close(&poller, &mut conns, token, &shared);
            }
            break;
        }

        if let Err(e) = poller.wait(&mut events, Some(TICK)) {
            eprintln!("reconciled: reactor poll error: {e}");
            thread::sleep(Duration::from_millis(5));
            continue;
        }
        let now = Instant::now();
        for &event in &events {
            match event.token {
                DATA_LISTENER if !draining => accept_ready(
                    &data_listener,
                    ConnState::Handshake,
                    &poller,
                    &mut conns,
                    &mut next_token,
                    &shared,
                    now,
                ),
                ADMIN_LISTENER if !draining => accept_ready(
                    &admin_listener,
                    ConnState::Admin,
                    &poller,
                    &mut conns,
                    &mut next_token,
                    &shared,
                    now,
                ),
                UDP_SOCKET if !draining => {
                    if let Some(socket) = &udp_socket {
                        udp_ready(socket, &shared, &mut scratch);
                    }
                }
                DATA_LISTENER | ADMIN_LISTENER | UDP_SOCKET => {}
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        handle_conn_event(&shared, &local_hello, conn, event, &mut scratch, now);
                    }
                    settle(&poller, &mut conns, token, &shared);
                }
            }
        }

        // Timeout sweep: idle peers against the read timeout, stalled
        // writers against the write timeout — measured from the last byte
        // the peer *accepted*, so a slow-but-draining reader never trips.
        let now = Instant::now();
        if udp_socket.is_some() && now.duration_since(last_udp_sweep) >= UDP_SWEEP_EVERY {
            last_udp_sweep = now;
            sweep_udp_sessions(&shared);
        }
        let expired: Vec<(u64, bool)> = conns
            .iter()
            .filter_map(|(&token, conn)| {
                if conn.pending_out() > 0 {
                    (now.duration_since(conn.last_write_progress) > config.write_timeout)
                        .then_some((token, true))
                } else if conn.state == ConnState::Closing {
                    None // fully flushed close; settle finishes it
                } else {
                    (now.duration_since(conn.last_read) > config.read_timeout)
                        .then_some((token, false))
                }
            })
            .collect();
        for (token, write_stall) in expired {
            if let Some(conn) = conns.get_mut(&token) {
                if conn.state != ConnState::Closing {
                    let error = if write_stall {
                        "write timeout"
                    } else {
                        "read timeout"
                    };
                    begin_close(&shared, conn, Close::Error(error.into()));
                }
            }
            // Timeouts close immediately — no point flushing into a stall.
            finish_close(&poller, &mut conns, token, &shared);
        }
    }
}

/// Accepts every pending connection on a ready listener.
fn accept_ready<S: Symbol + Ord>(
    listener: &TcpListener,
    state: ConnState,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Arc<SharedState<S>>,
    now: Instant,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => {
                eprintln!("reconciled: accept error: {e}");
                break;
            }
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        if state == ConnState::Handshake {
            let _ = stream.set_nodelay(true);
            shared.metrics.connections_accepted.inc();
            shared
                .metrics
                .events
                .record("conn_accept", format!("peer={peer}"));
        } else {
            shared.metrics.admin_connections.inc();
            shared
                .metrics
                .events
                .record("admin_accept", format!("peer={peer}"));
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let token = *next_token;
        *next_token += 1;
        let conn = Conn::new(stream, peer, state, now, &shared.config);
        if let Err(e) = poller.register(conn.stream.as_raw_fd(), token, conn.interest) {
            eprintln!("reconciled: cannot register {peer}: {e}");
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        conns.insert(token, conn);
    }
}

/// Pumps every pending datagram off a ready UDP socket, up to the per-event
/// budget. Sessions are keyed by cookie in the daemon-wide table, so it
/// does not matter which worker wins the race for any given datagram.
fn udp_ready<S: Symbol + Ord>(socket: &UdpSocket, shared: &SharedState<S>, scratch: &mut [u8]) {
    for _ in 0..UDP_DATAGRAM_BUDGET {
        match socket.recv_from(scratch) {
            Ok((len, peer)) => handle_udp_datagram(socket, shared, peer, &scratch[..len]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("reconciled: udp recv error: {e}");
                return;
            }
        }
    }
}

/// Reacts to one readiness event on a connection: flush, read, process,
/// opportunistically flush again. Close decisions are recorded on the
/// connection; [`settle`] finalizes them.
fn handle_conn_event<S: Symbol + Ord>(
    shared: &SharedState<S>,
    local_hello: &Hello,
    conn: &mut Conn,
    event: PollEvent,
    scratch: &mut [u8],
    now: Instant,
) {
    if event.error && conn.state != ConnState::Closing {
        begin_close(shared, conn, Close::Error("socket error".into()));
        return;
    }
    if event.writable {
        if let Err(e) = conn.flush(now) {
            if conn.state == ConnState::Closing {
                // Already-decided close: give up on the remaining bytes.
                conn.outbuf.clear();
                conn.out_start = 0;
            } else {
                begin_close(shared, conn, Close::Error(format!("write failed: {e}")));
            }
            return;
        }
        maybe_resume(shared, conn);
    }
    if event.readable && !conn.paused && conn.state != ConnState::Closing && !conn.eof {
        if let Err(e) = fill_inbound(conn, scratch, now) {
            begin_close(shared, conn, Close::Error(format!("read failed: {e}")));
            return;
        }
    }
    pump(shared, local_hello, conn, now);
}

/// Drains the socket's receive buffer into the connection's input buffer,
/// up to the per-event budget.
fn fill_inbound(conn: &mut Conn, scratch: &mut [u8], now: Instant) -> io::Result<()> {
    let mut taken = 0usize;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.last_read = now;
                if conn.state == ConnState::Admin {
                    conn.line.extend_from_slice(&scratch[..n]);
                } else {
                    conn.inbuf.push_bytes(&scratch[..n]);
                }
                taken += n;
                if taken >= READ_BUDGET {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Processes everything actionable on a connection: handshake and mux
/// frames (or admin lines), reply staging, backpressure transitions, the
/// EOF endgame, and an opportunistic flush of whatever was queued.
fn pump<S: Symbol + Ord>(
    shared: &SharedState<S>,
    local_hello: &Hello,
    conn: &mut Conn,
    now: Instant,
) {
    let high_water = shared.config.max_write_buffer.max(1);
    loop {
        while !conn.paused && conn.outcome.is_none() {
            match conn.state {
                ConnState::Handshake => {
                    let frame = match conn.inbuf.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(e) => {
                            observe_handshake(shared, conn);
                            begin_close(shared, conn, Close::Error(format!("bad framing: {e}")));
                            break;
                        }
                    };
                    let client = match Hello::from_bytes(&frame) {
                        Ok(client) => client,
                        Err(e) => {
                            // Best-effort reject: a peer that sent garbage
                            // still learns why it was turned away.
                            conn.queue_frame(&reject_frame_bytes(RejectReason::Malformed));
                            observe_handshake(shared, conn);
                            begin_close(shared, conn, Close::Handshake(e.to_string()));
                            break;
                        }
                    };
                    match validate_client_hello(&client, local_hello) {
                        Ok(()) => {
                            conn.queue_frame(&local_hello.to_bytes());
                            conn.acct.book_handshake(shared);
                            observe_handshake(shared, conn);
                            conn.state = ConnState::Serving;
                        }
                        Err(reason) => {
                            conn.queue_frame(&reject_frame_bytes(reason));
                            observe_handshake(shared, conn);
                            begin_close(
                                shared,
                                conn,
                                Close::Handshake(format!("rejected peer: {}", reason.describe())),
                            );
                            break;
                        }
                    }
                }
                ConnState::Serving => {
                    // Replies are staged straight into the write buffer; an
                    // oversized one (it would desynchronize the stream)
                    // comes back as an error with nothing staged.
                    // The node, through the wire-batch cache.
                    let mut tiles = shared;
                    // One shard of a wildcard open per turn, so the pause
                    // check below runs between its shards as it does
                    // between separate opens.
                    let next = conn.responder.open_next_shard(&mut tiles, &mut conn.outbuf);
                    let served = if let Some(served) = next.transpose() {
                        served
                    } else {
                        let frame = match conn.inbuf.next_frame() {
                            Ok(Some(frame)) => frame,
                            Ok(None) => break,
                            Err(e) => {
                                begin_close(
                                    shared,
                                    conn,
                                    Close::Error(format!("bad framing: {e}")),
                                );
                                break;
                            }
                        };
                        conn.responder.handle(&frame, &mut tiles, &mut conn.outbuf)
                    };
                    match served {
                        Ok(served) => conn.acct.book(shared, &served),
                        Err(e) => {
                            begin_close(shared, conn, Close::Error(e.to_string()));
                            break;
                        }
                    }
                }
                ConnState::Admin => {
                    let Some(newline) = conn.line.iter().position(|&b| b == b'\n') else {
                        if conn.line.len() > MAX_ADMIN_LINE {
                            begin_close(shared, conn, Close::Clean);
                        }
                        break;
                    };
                    let line_bytes: Vec<u8> = conn.line.drain(..=newline).collect();
                    if execute_admin_line(shared, conn, &line_bytes) {
                        break;
                    }
                }
                ConnState::Closing => break,
            }
            if conn.pending_out() >= high_water {
                conn.paused = true;
                shared.metrics.backpressure_pauses.inc();
            }
        }

        // Push staged replies now instead of waiting one poll cycle; the
        // request/reply latency a peer observes rides on this.
        let paused_before_flush = conn.paused;
        if conn.pending_out() > 0 {
            if let Err(e) = conn.flush(now) {
                if conn.outcome.is_some() {
                    conn.outbuf.clear();
                    conn.out_start = 0;
                } else {
                    begin_close(shared, conn, Close::Error(format!("write failed: {e}")));
                    return;
                }
            }
            maybe_resume(shared, conn);
        }
        // If that flush lifted a pause, requests already sitting in the
        // input buffer become processable again — and no readiness event
        // will re-deliver them (the peer is waiting on *us*). Loop instead
        // of stranding them until the read timeout.
        if paused_before_flush && !conn.paused && conn.outcome.is_none() {
            continue;
        }
        break;
    }

    // EOF endgame: every complete frame above was consumed, so leftover
    // bytes mean the peer died mid-frame (truncation, counted as an
    // error); a bare EOF is the normal end of a conversation (clients close
    // after their last Done).
    if conn.eof && !conn.paused && conn.outcome.is_none() {
        if conn.state == ConnState::Admin {
            // A final command without a trailing newline still executes:
            // `printf 'STATS' | nc` is a legitimate way to ask.
            if !conn.line.is_empty() {
                let line_bytes = std::mem::take(&mut conn.line);
                execute_admin_line(shared, conn, &line_bytes);
            }
            if conn.outcome.is_none() {
                begin_close(shared, conn, Close::Clean);
            }
        } else if conn.inbuf.has_partial() {
            begin_close(shared, conn, Close::Error("peer closed mid-frame".into()));
        } else {
            begin_close(shared, conn, Close::Clean);
        }
    }
}

/// Executes one admin command line and stages its reply. Returns true if
/// the connection is closing (the command asked for it, or the line is not
/// UTF-8: the protocol is text, and there is no reply a binary peer could
/// read).
fn execute_admin_line<S: Symbol + Ord>(
    shared: &SharedState<S>,
    conn: &mut Conn,
    line_bytes: &[u8],
) -> bool {
    let Ok(line) = std::str::from_utf8(line_bytes) else {
        begin_close(shared, conn, Close::Clean);
        return true;
    };
    let (rendered, close) = admin::render_reply(admin::execute(line.trim(), shared));
    conn.outbuf.extend_from_slice(rendered.as_bytes());
    if close {
        begin_close(shared, conn, Close::Clean);
    }
    close
}

/// Resumes a paused connection once the peer drained below the low-water
/// mark (half the high-water mark).
fn maybe_resume<S: Symbol + Ord>(shared: &SharedState<S>, conn: &mut Conn) {
    if conn.paused && conn.pending_out() <= shared.config.max_write_buffer / 2 {
        conn.paused = false;
    }
}

/// Records a handshake-latency observation exactly once per data
/// connection (success, reject, or pre-handshake teardown alike), so the
/// histogram's count equals the connections accepted.
fn observe_handshake<S: Symbol + Ord>(shared: &SharedState<S>, conn: &mut Conn) {
    if !conn.handshake_observed && conn.is_data() {
        conn.handshake_observed = true;
        shared
            .metrics
            .handshake_seconds
            .observe(conn.opened.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Decides a close: records the outcome counters and events (a handshake
/// failure and a post-handshake error are different series) and flips the
/// connection to `Closing` so remaining staged bytes still flush.
fn begin_close<S: Symbol + Ord>(shared: &SharedState<S>, conn: &mut Conn, close: Close) {
    if conn.outcome.is_some() {
        return;
    }
    match close {
        Close::Clean => {
            conn.outcome = Some("closed".into());
        }
        Close::Handshake(reason) => {
            shared.metrics.handshake_failures.inc();
            shared.metrics.events.record(
                "handshake_fail",
                format!("peer={} reason={reason}", conn.peer),
            );
            conn.outcome = Some(format!("dropped: {reason}"));
        }
        Close::Error(error) => {
            if conn.is_data() {
                shared.metrics.connection_errors.inc();
                shared
                    .metrics
                    .events
                    .record("conn_error", format!("peer={} error={error}", conn.peer));
            }
            conn.outcome = Some(format!("dropped: {error}"));
        }
    }
    conn.state = ConnState::Closing;
}

/// Applies a connection's pending state to the poller: finalizes decided
/// closes whose buffers drained, otherwise reconciles interest.
fn settle<S: Symbol + Ord>(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    shared: &SharedState<S>,
) {
    let close_now = match conns.get_mut(&token) {
        None => return,
        Some(conn) => {
            if conn.state == ConnState::Closing && conn.pending_out() == 0 {
                true
            } else {
                let desired = conn.desired_interest();
                if desired != conn.interest
                    && poller
                        .reregister(conn.stream.as_raw_fd(), token, desired)
                        .is_ok()
                {
                    conn.interest = desired;
                }
                false
            }
        }
    };
    if close_now {
        finish_close(poller, conns, token, shared);
    }
}

/// Tears a connection down: deregisters, closes, folds accounting, and
/// records the `conn_close` event `TRACE` shows.
fn finish_close<S: Symbol + Ord>(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    shared: &SharedState<S>,
) {
    let Some(mut conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    shared.active.fetch_sub(1, Ordering::SeqCst);
    if conn.is_data() {
        observe_handshake(shared, &mut conn);
        shared
            .metrics
            .connection_seconds
            .observe(conn.opened.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        let acct = &conn.acct;
        shared.metrics.events.record(
            "conn_close",
            format!(
                "peer={} in={}B out={}B sessions={}/{}",
                conn.peer,
                acct.bytes_in,
                acct.bytes_out,
                acct.sessions_completed,
                acct.sessions_opened
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_worker_counts_are_respected() {
        assert_eq!(effective_workers(3), 3);
        assert_eq!(effective_workers(17), 17);
    }

    #[test]
    fn auto_worker_count_is_bounded() {
        let auto = effective_workers(0);
        assert!((1..=MAX_AUTO_WORKERS).contains(&auto), "{auto}");
    }
}
