//! Shared outcome record for the end-to-end synchronization experiments.

use netsim::TimeSeries;

/// Result of one synchronization run (either protocol).
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Virtual completion time in seconds (from the moment the stale replica
    /// initiates synchronization until it holds the complete latest state).
    pub completion_time_s: f64,
    /// Bytes sent from the serving replica to the stale replica.
    pub bytes_downstream: usize,
    /// Bytes sent from the stale replica to the serving replica.
    pub bytes_upstream: usize,
    /// Number of request/response rounds (Rateless IBLT needs half a round:
    /// one request, then a one-way stream; state heal needs one per batch).
    pub rounds: usize,
    /// Payload messages the stale replica received (for the rateless
    /// backends, `payloads × batch_symbols` coded symbols crossed the link,
    /// whether or not the decoder needed the last of them).
    pub payloads: usize,
    /// Protocol-specific unit count: coded symbols consumed (Rateless IBLT)
    /// or trie nodes transferred (state heal).
    pub units_transferred: usize,
    /// Number of differing accounts the stale replica learned about.
    pub accounts_updated: usize,
    /// Downstream bandwidth usage over time (for Fig.-13-style traces).
    pub downstream_series: TimeSeries,
    /// CPU seconds spent by the stale replica (decode / trie writes).
    pub client_cpu_s: f64,
    /// CPU seconds spent by the serving replica (encode / node lookups).
    pub server_cpu_s: f64,
}

impl SyncOutcome {
    /// Total bytes in both directions — the paper's "data transmitted".
    pub fn total_bytes(&self) -> usize {
        self.bytes_downstream + self.bytes_upstream
    }

    /// Total megabytes transferred.
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let outcome = SyncOutcome {
            completion_time_s: 1.5,
            bytes_downstream: 900,
            bytes_upstream: 100,
            rounds: 1,
            payloads: 1,
            units_transferred: 10,
            accounts_updated: 5,
            downstream_series: TimeSeries::new(),
            client_cpu_s: 0.1,
            server_cpu_s: 0.2,
        };
        assert_eq!(outcome.total_bytes(), 1000);
        assert!((outcome.total_megabytes() - 0.001).abs() < 1e-12);
    }
}
