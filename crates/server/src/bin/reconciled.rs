//! `reconciled` — the long-lived set-reconciliation daemon.
//!
//! ```text
//! Usage: reconciled --key K0HEX:K1HEX [options]
//!   --key K0HEX:K1HEX     shared SipKey (required: the default key is public)
//!   --listen ADDR         data listener (default 127.0.0.1:0 = free port)
//!   --admin ADDR          admin/metrics listener (default 127.0.0.1:0)
//!   --shards N            keyspace shards (default 8)
//!   --symbol-len N        item length in bytes: 8, 16 or 32 (default 8)
//!   --batch N             coded symbols per payload (default 32)
//!   --load FILE           seed items, one hex item per line
//!   --read-timeout-ms N   per-connection read timeout (default 10000)
//! ```
//!
//! On startup the daemon prints its bound addresses (`data …` / `admin …`)
//! to stdout — with `:0` listeners that is how callers learn the ports —
//! then serves until an admin connection issues `SHUTDOWN`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Duration;

use riblt::FixedBytes;
use riblt::Symbol;
use server::cli::{flag_value, load_items, parse_key, require_key};
use server::{Daemon, DaemonConfig};

const USAGE: &str = "Usage: reconciled --key K0HEX:K1HEX [--listen ADDR] [--admin ADDR] \
                     [--shards N] [--symbol-len 8|16|32] [--batch N] [--load FILE] \
                     [--read-timeout-ms N]";

struct Options {
    config: DaemonConfig,
    load: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut config = DaemonConfig::default();
    let mut load = None;
    let mut key = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => config.listen = flag_value(&mut args, "--listen")?,
            "--admin" => config.admin = flag_value(&mut args, "--admin")?,
            "--shards" => {
                config.shards = flag_value(&mut args, "--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if config.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--symbol-len" => {
                config.symbol_len = flag_value(&mut args, "--symbol-len")?
                    .parse()
                    .map_err(|e| format!("bad --symbol-len: {e}"))?;
            }
            "--batch" => {
                config.batch_symbols = flag_value(&mut args, "--batch")?
                    .parse()
                    .map_err(|e| format!("bad --batch: {e}"))?;
                if config.batch_symbols == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--load" => load = Some(PathBuf::from(flag_value(&mut args, "--load")?)),
            "--key" => key = Some(parse_key(&flag_value(&mut args, "--key")?)?),
            "--read-timeout-ms" => {
                let ms: u64 = flag_value(&mut args, "--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --read-timeout-ms: {e}"))?;
                config.read_timeout = Duration::from_millis(ms);
                config.write_timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    config.key = require_key(key)?;
    Ok(Options { config, load })
}

fn run<S: Symbol + Ord + Send + 'static>(options: Options) -> Result<(), String> {
    let items: Vec<S> = match &options.load {
        Some(path) => load_items(path, options.config.symbol_len)?,
        None => Vec::new(),
    };
    let shards = options.config.shards;
    let symbol_len = options.config.symbol_len;
    let fingerprint = reconcile_core::key_fingerprint(options.config.key);
    let count = items.len();
    let daemon = Daemon::spawn(options.config, items).map_err(|e| format!("cannot start: {e}"))?;
    println!(
        "reconciled: serving {count} items in {shards} shards \
         ({symbol_len}-byte items, key fingerprint {fingerprint:016x})"
    );
    println!("reconciled: data {}", daemon.data_addr());
    println!("reconciled: admin {}", daemon.admin_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    daemon.wait();
    println!("reconciled: shut down");
    Ok(())
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("reconciled: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match options.config.symbol_len {
        8 => run::<FixedBytes<8>>(options),
        16 => run::<FixedBytes<16>>(options),
        32 => run::<FixedBytes<32>>(options),
        other => Err(format!(
            "unsupported --symbol-len {other} (use 8, 16 or 32)"
        )),
    };
    if let Err(message) = result {
        eprintln!("reconciled: {message}");
        std::process::exit(1);
    }
}
