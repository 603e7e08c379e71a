//! `reconcile-client` — one-shot peer of the `reconciled` daemon.
//!
//! ```text
//! Usage: reconcile-client --connect ADDR --load FILE [options]
//!   --connect ADDR        daemon data address (required)
//!   --load FILE           local items, one hex item per line (required)
//!   --admin ADDR          daemon admin address (for --push)
//!   --push                push local-only items back through the admin
//!                         socket, so both processes converge on the union
//!   --symbol-len N        item length in bytes: 8, 16 or 32 (default 8)
//!   --key K0HEX:K1HEX     shared SipKey (must match the daemon's)
//!   --timeout-ms N        socket read/write timeout (default 10000)
//! ```
//!
//! Connects, handshakes (adopting the server's shard count), reconciles
//! every shard over one multiplexed connection, then prints what it
//! learned, and — after an optional push — the digest of its converged
//! set, which equals the daemon's `STATS` digest once both hold the union.
//!
//! `estimate=` is the difference the daemon estimated from the count sketch
//! this client's open carried, and sized the first flight from. Items both
//! sides hold cancel out of that estimate, so it is recomputed here from
//! the recovered difference alone, bit for bit (as long as the daemon's set
//! did not change during the sync).

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use reconcile_core::CountSketch;
use riblt::{FixedBytes, Symbol};
use riblt_hash::SipKey;
use server::cli::{flag_value, load_items, parse_key};
use server::AdminClient;
use statesync::SyncClient;

const USAGE: &str = "Usage: reconcile-client --connect ADDR --load FILE [--admin ADDR] [--push] \
                     [--symbol-len 8|16|32] [--key K0HEX:K1HEX] [--timeout-ms N]";

struct Options {
    connect: String,
    load: PathBuf,
    admin: Option<String>,
    push: bool,
    symbol_len: usize,
    key: SipKey,
    timeout: Duration,
}

fn parse_args() -> Result<Options, String> {
    let mut connect = None;
    let mut load = None;
    let mut admin = None;
    let mut push = false;
    let mut symbol_len = 8usize;
    let mut key = SipKey::default();
    let mut timeout = Duration::from_millis(10_000);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(flag_value(&mut args, "--connect")?),
            "--load" => load = Some(PathBuf::from(flag_value(&mut args, "--load")?)),
            "--admin" => admin = Some(flag_value(&mut args, "--admin")?),
            "--push" => push = true,
            "--symbol-len" => {
                symbol_len = flag_value(&mut args, "--symbol-len")?
                    .parse()
                    .map_err(|e| format!("bad --symbol-len: {e}"))?;
            }
            "--key" => key = parse_key(&flag_value(&mut args, "--key")?)?,
            "--timeout-ms" => {
                let ms: u64 = flag_value(&mut args, "--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if push && admin.is_none() {
        return Err("--push needs --admin".into());
    }
    Ok(Options {
        connect: connect.ok_or("--connect is required")?,
        load: load.ok_or("--load is required")?,
        admin,
        push,
        symbol_len,
        key,
        timeout,
    })
}

fn run<S: Symbol + Ord + Send>(options: Options) -> Result<(), String> {
    let key = options.key;
    let mut client = SyncClient::<S>::new(load_items(&options.load, options.symbol_len)?, key, 0);

    let mut conn = TcpStream::connect(&options.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", options.connect))?;
    // A round is one small write; Nagle would hold it for the last round's ACK.
    conn.set_nodelay(true)
        .and_then(|()| conn.set_read_timeout(Some(options.timeout)))
        .and_then(|()| conn.set_write_timeout(Some(options.timeout)))
        .map_err(|e| format!("cannot set socket options: {e}"))?;

    let (diffs, outcome) = client
        .sync(&mut conn)
        .map_err(|e| format!("sync failed: {e}"))?;
    drop(conn);

    let learned: Vec<S> = diffs.iter().flat_map(|d| d.remote_only.clone()).collect();
    let local_only: Vec<S> = diffs.iter().flat_map(|d| d.local_only.clone()).collect();
    let sketch = |items: &[S]| CountSketch::from_hashes(&S::hash_many_with(items, key));
    let estimate = sketch(&local_only).estimate_difference(&sketch(&learned));
    println!(
        "reconcile-client: shards={} estimate={estimate:.1} rounds_after_handshake={} units={} \
         learned={} local_only={} bytes_tx={} bytes_rx={}",
        outcome.shards,
        outcome.rounds,
        outcome.units,
        learned.len(),
        local_only.len(),
        outcome.bytes_sent,
        outcome.bytes_received,
    );

    if options.push {
        let admin_addr = options.admin.as_deref().expect("checked in parse_args");
        let mut admin = AdminClient::connect(admin_addr)
            .map_err(|e| format!("cannot connect to admin {admin_addr}: {e}"))?;
        let mut pushed = 0usize;
        for item in &local_only {
            if admin
                .add_item(item)
                .map_err(|e| format!("push failed: {e}"))?
            {
                pushed += 1;
            }
        }
        println!(
            "reconcile-client: pushed {pushed}/{} items",
            local_only.len()
        );
    }

    client.apply(&diffs);
    let digest = cluster::set_digest(client.items(), key);
    println!(
        "reconcile-client: count={} digest={digest:016x}",
        client.items().len()
    );
    Ok(())
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("reconcile-client: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match options.symbol_len {
        8 => run::<FixedBytes<8>>(options),
        16 => run::<FixedBytes<16>>(options),
        32 => run::<FixedBytes<32>>(options),
        other => Err(format!(
            "unsupported --symbol-len {other} (use 8, 16 or 32)"
        )),
    };
    if let Err(message) = result {
        eprintln!("reconcile-client: {message}");
        std::process::exit(1);
    }
}
