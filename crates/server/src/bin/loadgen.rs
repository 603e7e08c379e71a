//! `loadgen` — drive a `reconciled` daemon with N concurrent synthetic
//! clients at a mixed-staleness workload and report throughput plus sync
//! latency percentiles.
//!
//! Point it at a running daemon (`--connect ADDR`, whose set must be the
//! `0..base-items` synthetic seed — start one with `--self-host` if you
//! just want numbers), or let it host its own in-process daemon:
//!
//! ```text
//! loadgen --self-host --clients 500 --rounds 3 --staleness 0,8,64,256
//! loadgen --connect 127.0.0.1:4000 --clients 64 --reconnect
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use server::cli::{flag_value, parse_key};
use server::loadgen::{raise_nofile_limit, run, server_items, LoadgenConfig, Transport};
use server::{Daemon, DaemonConfig};

const USAGE: &str = "Usage: loadgen (--connect ADDR | --self-host) [--clients N] [--rounds N] \
                     [--base-items N] [--staleness A,B,C] [--reconnect] [--key K0HEX:K1HEX] \
                     [--shards N] [--workers N] [--timeout-ms N] [--transport tcp|udp]";

struct Options {
    connect: Option<String>,
    self_host: bool,
    config: LoadgenConfig,
    shards: u16,
    workers: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut connect = None;
    let mut self_host = false;
    let mut config = LoadgenConfig::default();
    let mut shards = 8u16;
    let mut workers = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(flag_value(&mut args, "--connect")?),
            "--self-host" => self_host = true,
            "--clients" => {
                config.clients = flag_value(&mut args, "--clients")?
                    .parse()
                    .map_err(|e| format!("bad --clients: {e}"))?
            }
            "--rounds" => {
                config.rounds = flag_value(&mut args, "--rounds")?
                    .parse()
                    .map_err(|e| format!("bad --rounds: {e}"))?
            }
            "--base-items" => {
                config.base_items = flag_value(&mut args, "--base-items")?
                    .parse()
                    .map_err(|e| format!("bad --base-items: {e}"))?
            }
            "--staleness" => {
                config.staleness = flag_value(&mut args, "--staleness")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|e| format!("bad --staleness: {e}"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                if config.staleness.is_empty() {
                    return Err("--staleness needs at least one value".into());
                }
            }
            "--reconnect" => config.reconnect = true,
            "--transport" => {
                config.transport = match flag_value(&mut args, "--transport")?.as_str() {
                    "tcp" => Transport::Tcp,
                    "udp" => Transport::Udp,
                    other => return Err(format!("bad --transport {other:?} (tcp or udp)")),
                }
            }
            "--key" => config.key = parse_key(&flag_value(&mut args, "--key")?)?,
            "--shards" => {
                shards = flag_value(&mut args, "--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?
            }
            "--workers" => {
                workers = flag_value(&mut args, "--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--timeout-ms" => {
                config.read_timeout = Duration::from_millis(
                    flag_value(&mut args, "--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --timeout-ms: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if connect.is_none() && !self_host {
        return Err("need --connect ADDR or --self-host".into());
    }
    if connect.is_some() && self_host {
        return Err("--connect and --self-host are mutually exclusive".into());
    }
    if config.clients == 0 || config.rounds == 0 {
        return Err("--clients and --rounds must be at least 1".into());
    }
    Ok(Options {
        connect,
        self_host,
        config,
        shards,
        workers,
    })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Each client costs one fd (plus the daemon side when self-hosting).
    // Failing one of a thousand dials with EADDRNOTAVAIL/EMFILE mid-run
    // produces a uselessly noisy per-client error storm, so when the raise
    // falls short of what the fleet needs, refuse to start at all.
    let want_fds = (options.config.clients as u64) * if options.self_host { 2 } else { 1 } + 256;
    let got = raise_nofile_limit(want_fds);
    if got < want_fds {
        eprintln!(
            "loadgen: fd limit {got} after raising, but {} clients need {want_fds}; \
             raise the hard limit (ulimit -Hn) or lower --clients",
            options.config.clients
        );
        return ExitCode::FAILURE;
    }

    let daemon = if options.self_host {
        let daemon_config = DaemonConfig {
            shards: options.shards,
            key: options.config.key,
            reactor_workers: options.workers,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            udp_listen: (options.config.transport == Transport::Udp)
                .then(|| "127.0.0.1:0".to_string()),
            ..Default::default()
        };
        match Daemon::spawn(daemon_config, server_items(options.config.base_items)) {
            Ok(daemon) => Some(daemon),
            Err(e) => {
                eprintln!("loadgen: cannot start self-hosted daemon: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match (&daemon, &options.connect) {
        (Some(daemon), _) => match options.config.transport {
            Transport::Udp => daemon
                .udp_addr()
                .expect("self-hosted daemon was spawned with udp_listen")
                .to_string(),
            Transport::Tcp => daemon.data_addr().to_string(),
        },
        (None, Some(addr)) => addr.clone(),
        (None, None) => unreachable!("parse_args enforces one target"),
    };

    eprintln!(
        "loadgen: {} clients x {} rounds against {addr} over {} \
         (staleness mix {:?}, reconnect={})",
        options.config.clients,
        options.config.rounds,
        match options.config.transport {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
        },
        options.config.staleness,
        options.config.reconnect
    );
    let report = run(&addr, &options.config);

    println!("clients            {}", report.clients);
    println!("fd limit           {got} (needed {want_fds})");
    println!(
        "syncs              {} ok / {} failed",
        report.syncs_ok, report.syncs_failed
    );
    println!("diffs recovered    {}", report.diffs_recovered);
    println!("units consumed     {}", report.units_consumed);
    if options.config.transport == Transport::Tcp {
        println!(
            "request rounds     {:.2} per sync after the handshake",
            report.request_rounds as f64 / report.syncs_ok.max(1) as f64
        );
    }
    println!("wall               {:.3}s", report.wall.as_secs_f64());
    println!("throughput         {:.1} syncs/s", report.syncs_per_sec());
    println!(
        "sync latency       p50={:.1}ms p90={:.1}ms p99={:.1}ms",
        report.latency_quantile(0.50) * 1e3,
        report.latency_quantile(0.90) * 1e3,
        report.latency_quantile(0.99) * 1e3,
    );

    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
    if report.syncs_failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
