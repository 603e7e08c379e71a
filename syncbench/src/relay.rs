//! A loopback TCP relay that delays every chunk by a fixed one-way time:
//! the `wan_rtt` workload's link. Order is kept and bandwidth is unlimited;
//! the relay's threads only sleep and copy.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Observed one-way delays of forwarded chunks, in milliseconds.
type Delays = Arc<Mutex<Vec<f64>>>;

/// A running delay relay in front of `upstream`.
pub struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    delays: Delays,
}

impl Relay {
    /// Listens on a free loopback port; every accepted connection is paired
    /// with a fresh connection to `upstream`, and every chunk read from
    /// either side is written to the other no earlier than `one_way` later.
    pub fn spawn(upstream: SocketAddr, one_way: Duration) -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let delays = Delays::default();
        let acceptor = {
            let (stop, delays) = (Arc::clone(&stop), Arc::clone(&delays));
            thread::Builder::new()
                .name("relay-accept".into())
                .spawn(move || accept_loop(listener, upstream, one_way, &stop, &delays))?
        };
        Ok(Relay {
            addr,
            stop,
            acceptor: Some(acceptor),
            delays,
        })
    }

    /// Address clients dial instead of the upstream's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One-way delay of every chunk forwarded so far (read to written), in
    /// milliseconds: the configured delay plus how late the relay ran.
    pub fn one_way_ms(&self) -> Vec<f64> {
        self.delays.lock().expect("a relay thread panicked").clone()
    }
}

impl Drop for Relay {
    /// Stops accepting and waits for every pump thread; connections end
    /// when their peers close, which the benchmark's clients have done.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    one_way: Duration,
    stop: &AtomicBool,
    delays: &Delays,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = conn else { continue };
        match connect_pair(client, upstream) {
            Ok([c_read, c_write, s_read, s_write]) => {
                for (from, to) in [(c_read, s_write), (s_read, c_write)] {
                    let delays = Arc::clone(delays);
                    pumps.push(thread::spawn(move || pump(from, to, one_way, &delays)));
                }
            }
            Err(e) => eprintln!("syncbench relay: {e}"),
        }
        pumps.retain(|p| !p.is_finished());
    }
    for pump in pumps {
        let _ = pump.join();
    }
}

/// Dials the upstream and returns `[client read, client write, upstream
/// read, upstream write]` handles, Nagle off on both sockets.
fn connect_pair(client: TcpStream, upstream: SocketAddr) -> io::Result<[TcpStream; 4]> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok([client.try_clone()?, client, server.try_clone()?, server])
}

/// Copies `from` to `to`, each chunk delayed by `one_way`: this thread
/// reads and timestamps, a second one sleeps until each chunk is due and
/// writes it, so a slow write never delays a read.
fn pump(mut from: TcpStream, mut to: TcpStream, one_way: Duration, delays: &Delays) {
    let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>)>();
    thread::scope(|scope| {
        scope.spawn(move || {
            for (read_at, chunk) in rx {
                let due = read_at + one_way;
                thread::sleep(due.saturating_duration_since(Instant::now()));
                if to.write_all(&chunk).is_err() {
                    break;
                }
                let late = read_at.elapsed().as_secs_f64() * 1e3;
                delays.lock().expect("a relay thread panicked").push(late);
            }
            // Pass the end of stream on, after everything before it.
            let _ = to.shutdown(Shutdown::Write);
        });
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if tx.send((Instant::now(), buf[..n].to_vec())).is_err() {
                        break;
                    }
                }
            }
        }
        drop(tx);
    });
}

/// Round-trip times, in milliseconds, of `pings` one-byte pings through a
/// fresh relay in front of an echo server.
pub fn ping_through_relay(one_way: Duration, pings: usize) -> io::Result<Vec<f64>> {
    let echo = TcpListener::bind("127.0.0.1:0")?;
    let echo_addr = echo.local_addr()?;
    let echo_thread = thread::spawn(move || -> io::Result<()> {
        let (mut conn, _) = echo.accept()?;
        conn.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        while conn.read(&mut byte)? == 1 {
            conn.write_all(&byte)?;
        }
        Ok(())
    });
    let relay = Relay::spawn(echo_addr, one_way)?;
    let mut conn = TcpStream::connect(relay.addr())?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut rtts = Vec::with_capacity(pings);
    for i in 0..pings {
        let start = Instant::now();
        conn.write_all(&[i as u8])?;
        let mut byte = [0u8; 1];
        conn.read_exact(&mut byte)?;
        rtts.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(conn);
    drop(relay);
    echo_thread.join().expect("echo thread panicked")?;
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn one_byte_ping_returns_after_two_one_way_delays() {
        let one_way = Duration::from_millis(25);
        let rtts = ping_through_relay(one_way, 5).unwrap();
        assert_eq!(rtts.len(), 5);
        // Never early; the median is within 2 ms of 50 ms.
        assert!(rtts.iter().all(|&ms| ms >= 50.0), "{rtts:?}");
        assert!((median(&rtts) - 50.0).abs() <= 2.0, "{rtts:?}");
    }

    #[test]
    fn relay_keeps_order_and_content_of_a_large_transfer() {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let reader = thread::spawn(move || {
            let (mut conn, _) = sink.accept().unwrap();
            let mut got = Vec::new();
            conn.read_to_end(&mut got).unwrap();
            got
        });
        let relay = Relay::spawn(sink_addr, Duration::from_millis(2)).unwrap();
        let sent: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let mut conn = TcpStream::connect(relay.addr()).unwrap();
        conn.write_all(&sent).unwrap();
        drop(conn);
        assert_eq!(reader.join().unwrap(), sent);
        let delays = relay.one_way_ms();
        assert!(!delays.is_empty() && delays.iter().all(|&ms| ms >= 2.0));
    }
}
