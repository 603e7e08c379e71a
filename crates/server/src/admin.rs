//! The line-oriented admin/metrics socket of the `reconciled` daemon.
//!
//! One TCP connection, one UTF-8 command per line. Most commands answer
//! with one reply line (so the protocol is usable from `nc` as well as
//! from code); `METRICS` and `TRACE` answer with a block of lines
//! terminated by a `# EOF` marker line:
//!
//! | Command | Reply | Effect |
//! |---|---|---|
//! | `STATS` | `OK count=… shards=… digest=… …` | one-line counter snapshot |
//! | `METRICS` | Prometheus text exposition, then `# EOF` | full metric scrape |
//! | `TRACE [n]` | newest `n` (default 20) events, then `# EOF` | lifecycle event ring |
//! | `ADD <hex>` | `OK added=0\|1` | insert an item (patches its shard cache) |
//! | `REMOVE <hex>` | `OK removed=0\|1` | remove an item |
//! | `QUIT` | `BYE` | close this admin connection |
//! | `SHUTDOWN` | `BYE shutting down` | graceful daemon shutdown |
//!
//! Items travel as `2 × symbol_len` lowercase hex digits (see
//! [`crate::item_to_hex`]). Malformed commands answer `ERR <reason>` and
//! leave the connection open; the same read timeout as the data port
//! applies, so an abandoned admin connection is dropped like a silent peer.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;

use obs::lock_unpoisoned;
use riblt::Symbol;

use crate::daemon::{Mutation, SharedState};
use crate::{item_from_hex, item_to_hex};

/// Marker line terminating every multi-line admin reply.
pub const MULTILINE_END: &str = "# EOF";

pub(crate) enum Reply {
    Line(String),
    /// A multi-line body; [`render_reply`] appends [`MULTILINE_END`].
    Multi(String),
    Close(String),
}

/// Renders a [`Reply`] into the exact bytes written on the wire, plus
/// whether the connection closes after them.
pub(crate) fn render_reply(reply: Reply) -> (String, bool) {
    match reply {
        Reply::Line(text) => (format!("{text}\n"), false),
        Reply::Multi(mut block) => {
            // Always newline-terminated, then the end marker so clients can
            // read a block of unknown length line by line.
            if !block.is_empty() && !block.ends_with('\n') {
                block.push('\n');
            }
            block.push_str(MULTILINE_END);
            block.push('\n');
            (block, false)
        }
        Reply::Close(text) => (format!("{text}\n"), true),
    }
}

pub(crate) fn execute<S: Symbol + Ord>(line: &str, shared: &SharedState<S>) -> Reply {
    let (command, argument) = match line.split_once(' ') {
        Some((cmd, arg)) => (cmd, arg.trim()),
        None => (line, ""),
    };
    match command.to_ascii_uppercase().as_str() {
        "STATS" => Reply::Line(stats_line(shared)),
        "METRICS" => Reply::Multi(shared.render_metrics()),
        "TRACE" => {
            let n = if argument.is_empty() {
                Ok(20)
            } else {
                argument.parse::<usize>()
            };
            match n {
                Ok(n) => {
                    let mut block = String::new();
                    for event in shared.metrics.events.last(n) {
                        block.push_str(&event.render());
                        block.push('\n');
                    }
                    Reply::Multi(block)
                }
                Err(_) => Reply::Line(format!("ERR bad trace count {argument:?}")),
            }
        }
        verb @ ("ADD" | "REMOVE") => {
            let Some(item) = item_from_hex::<S>(argument, shared.config.symbol_len) else {
                return Reply::Line(format!(
                    "ERR expected {} hex digits",
                    shared.config.symbol_len * 2
                ));
            };
            let (mutation, event, done) = if verb == "ADD" {
                (Mutation::Insert(item), "admin_add", "added")
            } else {
                (Mutation::Remove(&item), "admin_remove", "removed")
            };
            let changed = shared.mutate(mutation);
            if let Some(shard) = changed {
                shared
                    .metrics
                    .events
                    .record(event, format!("shard={shard}"));
            }
            Reply::Line(format!("OK {done}={}", usize::from(changed.is_some())))
        }
        "QUIT" => Reply::Close("BYE".into()),
        "SHUTDOWN" => {
            shared.request_shutdown();
            Reply::Close("BYE shutting down".into())
        }
        "" => Reply::Line("ERR empty command".into()),
        other => Reply::Line(format!("ERR unknown command {other}")),
    }
}

fn stats_line<S: Symbol + Ord>(shared: &SharedState<S>) -> String {
    let (count, digest) = {
        let node = lock_unpoisoned(&shared.node);
        (node.len(), node.digest())
    };
    let stats = shared.stats_snapshot();
    // Sum of per-shard mutation generations: how many times cached wire
    // batches have been invalidated since start.
    let cache_gen: u64 = (0..shared.config.shards)
        .map(|shard| shared.shard_gen(shard))
        .sum();
    format!(
        "OK count={count} shards={} digest={digest:016x} \
         connections_active={} connections_accepted={} \
         sessions_opened={} sessions_completed={} \
         bytes_in={} bytes_out={} serve_cpu_ms={:.1} \
         handshake_failures={} connection_errors={} uptime_ms={} \
         wire_cache_hits={} wire_cache_misses={} cache_gen={cache_gen} \
         symbols_served={}",
        shared.config.shards,
        shared.active.load(Ordering::SeqCst),
        stats.connections_accepted,
        stats.sessions_opened,
        stats.sessions_completed,
        stats.bytes_in,
        stats.bytes_out,
        stats.serve_cpu_s * 1e3,
        stats.handshake_failures,
        stats.connection_errors,
        shared.started.elapsed().as_millis(),
        shared.metrics.wire_cache_hits.get(),
        shared.metrics.wire_cache_misses.get(),
        shared.metrics.symbols_served.get(),
    )
}

/// A client of the admin socket: one connection, sequential commands.
#[derive(Debug)]
pub struct AdminClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl AdminClient {
    /// Connects to a daemon's admin listener.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<AdminClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        let writer = stream.try_clone()?;
        Ok(AdminClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one command line and returns the reply line.
    pub fn send(&mut self, command: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "admin connection closed",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Sends one command and reads a multi-line reply up to (excluding)
    /// the `# EOF` marker.
    pub fn send_multiline(&mut self, command: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        let mut block = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "admin connection closed mid-block",
                ));
            }
            if line.trim_end() == MULTILINE_END {
                return Ok(block);
            }
            block.push_str(&line);
        }
    }

    /// Scrapes the daemon's metrics in Prometheus text exposition format.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send_multiline("METRICS")
    }

    /// Fetches the newest `n` lifecycle events, oldest first.
    pub fn trace(&mut self, n: usize) -> std::io::Result<Vec<String>> {
        let block = self.send_multiline(&format!("TRACE {n}"))?;
        Ok(block.lines().map(str::to_string).collect())
    }

    /// Sends `ADD <hex(item)>`; true if the daemon inserted it.
    pub fn add_item<S: Symbol>(&mut self, item: &S) -> std::io::Result<bool> {
        let reply = self.send(&format!("ADD {}", item_to_hex(item)))?;
        Ok(reply == "OK added=1")
    }

    /// Parses a `STATS` reply into its key/value pairs.
    pub fn stats(&mut self) -> std::io::Result<std::collections::HashMap<String, String>> {
        let reply = self.send("STATS")?;
        let fields = reply
            .strip_prefix("OK ")
            .unwrap_or(&reply)
            .split_whitespace()
            .filter_map(|pair| {
                pair.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect();
        Ok(fields)
    }
}

/// One-shot convenience: connect, send a single command, return the reply.
pub fn admin_request(addr: impl ToSocketAddrs, command: &str) -> std::io::Result<String> {
    AdminClient::connect(addr)?.send(command)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use riblt::FixedBytes;

    type Item = FixedBytes<8>;

    fn daemon() -> Daemon<Item> {
        Daemon::spawn(DaemonConfig::default(), (0..100u64).map(Item::from_u64)).unwrap()
    }

    #[test]
    fn stats_add_remove_quit() {
        let daemon = daemon();
        let mut admin = AdminClient::connect(daemon.admin_addr()).unwrap();
        let stats = admin.stats().unwrap();
        assert_eq!(stats["count"], "100");
        assert_eq!(stats["shards"], "8");
        assert_eq!(stats["digest"], format!("{:016x}", daemon.digest()));

        assert!(admin.add_item(&Item::from_u64(555)).unwrap());
        assert!(!admin.add_item(&Item::from_u64(555)).unwrap(), "duplicate");
        let reply = admin
            .send(&format!(
                "REMOVE {}",
                crate::item_to_hex(&Item::from_u64(3))
            ))
            .unwrap();
        assert_eq!(reply, "OK removed=1");
        assert_eq!(daemon.len(), 100); // +555, -3

        assert_eq!(admin.send("QUIT").unwrap(), "BYE");
        daemon.shutdown();
    }

    #[test]
    fn malformed_commands_answer_err_and_keep_the_connection() {
        let daemon = daemon();
        let mut admin = AdminClient::connect(daemon.admin_addr()).unwrap();
        assert!(admin.send("ADD xyz").unwrap().starts_with("ERR"));
        assert!(admin.send("FROB").unwrap().starts_with("ERR"));
        assert!(admin.send("").unwrap().starts_with("ERR"));
        // Still alive afterwards.
        assert_eq!(admin.stats().unwrap()["count"], "100");
        daemon.shutdown();
    }

    #[test]
    fn shutdown_command_stops_the_daemon() {
        let daemon = daemon();
        let reply = admin_request(daemon.admin_addr(), "SHUTDOWN").unwrap();
        assert_eq!(reply, "BYE shutting down");
        assert!(daemon.shutdown_requested());
        daemon.wait();
    }
}
