//! Flights on the clock: a [`FlightLinkTo`] whose every flight is charged
//! to the link between two nodes of a [`Topology`].
//!
//! This lives apart from `flight.rs`, the link itself, which knows no
//! topology.

use std::io::{self, Read, Write};
use std::time::Instant;

use crate::flight::FlightLinkTo;
use crate::topology::Topology;

/// A [`FlightLinkTo`] whose flights cost virtual time on the [`Topology`]
/// link between a client node and a server node: what the client wrote
/// since the last flight goes to the server at the client's clock, the wall
/// time of the server's answer goes to the server's clock, and the answer
/// comes back to the client. The client's CPU is the wall time between
/// flights, counted from the moment this was made, so its set-up pass is on
/// the clock too. [`Self::finish`] charges what the client does after its
/// last flight.
pub struct SimFlights<'t, 's> {
    /// The link the flights cross, and what each side said on it.
    pub link: FlightLinkTo<'s>,
    topology: &'t mut Topology,
    client: usize,
    server: usize,
    /// Bytes the client wrote since the last flight.
    unsent: usize,
    /// When the client last stopped waiting for the server.
    resumed: Instant,
    /// The client's virtual clock, in seconds.
    pub client_clock: f64,
    /// The server's virtual clock, in seconds.
    pub server_clock: f64,
    /// Wall seconds the client spent between flights.
    pub client_cpu: f64,
    /// Wall seconds the server spent answering flights.
    pub server_cpu: f64,
}

impl<'t, 's> SimFlights<'t, 's> {
    /// Flights of `link` from node `client` to node `server` of `topology`,
    /// both clocks starting at `start`.
    pub fn new(
        link: FlightLinkTo<'s>,
        topology: &'t mut Topology,
        (client, server): (usize, usize),
        start: f64,
    ) -> Self {
        SimFlights {
            link,
            topology,
            client,
            server,
            unsent: 0,
            resumed: Instant::now(),
            client_clock: start,
            server_clock: start,
            client_cpu: 0.0,
            server_cpu: 0.0,
        }
    }

    /// Charges the client's wall time since the last flight, and sends what
    /// it wrote after that flight, which nothing answers (a client's
    /// `Done`s), to the server.
    pub fn finish(&mut self) {
        if let Some(arrival) = self.client_sends(Instant::now()) {
            self.server_clock = self.server_clock.max(arrival);
        }
    }

    /// Charges the client's wall time up to `now`, then sends what it wrote
    /// since the last flight to the server; returns when that arrives, or
    /// `None` when it wrote nothing.
    fn client_sends(&mut self, now: Instant) -> Option<f64> {
        let cpu = now.duration_since(self.resumed).as_secs_f64();
        self.client_clock += cpu;
        self.client_cpu += cpu;
        let bytes = std::mem::take(&mut self.unsent);
        (bytes > 0).then(|| {
            self.topology
                .send(self.client, self.server, self.client_clock, bytes)
        })
    }
}

impl Read for SimFlights<'_, '_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (flights, heard) = (self.link.flights, self.link.received.len());
        let waiting = Instant::now();
        let read = self.link.read(buf)?;
        if self.link.flights > flights {
            let answered = Instant::now();
            let arrival = self.client_sends(waiting).unwrap_or(self.client_clock);
            let serve = answered.duration_since(waiting).as_secs_f64();
            self.server_clock = self.server_clock.max(arrival) + serve;
            self.server_cpu += serve;
            let answer = self.link.received.len() - heard;
            let arrival = self
                .topology
                .send(self.server, self.client, self.server_clock, answer);
            self.client_clock = self.client_clock.max(arrival);
            self.resumed = answered;
        }
        Ok(read)
    }
}

impl Write for SimFlights<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.unsent += buf.len();
        self.link.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.link.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightLink;
    use crate::link::LinkConfig;

    #[test]
    fn each_flight_crosses_the_topology_pair_both_ways() {
        // An echo server, nodes 2 → 0 of three, 50 ms each way.
        let mut topology = Topology::full_mesh(3, LinkConfig::unlimited());
        let echo = FlightLink::new(|flight, out| {
            out.extend_from_slice(flight);
            Ok(())
        });
        let mut io = SimFlights::new(echo, &mut topology, (2, 0), 1.0);
        let mut answer = [0u8; 8];
        for _ in 0..2 {
            io.write_all(b"ping").unwrap();
            io.read_exact(&mut answer[..4]).unwrap();
        }
        io.write_all(b"bye").unwrap();
        io.finish();
        assert_eq!(io.link.flights, 2);
        // Two round trips, then the unanswered bytes' one-way trip.
        assert!(io.client_clock >= 1.2 && io.client_clock < 1.25);
        assert!(io.server_clock >= 1.25 && io.server_clock < 1.3);
        assert_eq!(
            (topology.bytes_sent(2), topology.bytes_received(2)),
            (11, 8)
        );
        assert_eq!(topology.bytes_sent(1), 0);
    }
}
