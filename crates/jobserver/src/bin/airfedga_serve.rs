//! `airfedga-serve` — the scenario job daemon.
//!
//! ```text
//! airfedga-serve [--root DIR] [--addr HOST:PORT]
//! ```
//!
//! Binds a localhost listener (an OS-assigned port by default), records the
//! bound address in `<root>/serve.addr`, recovers any queue a previous
//! incarnation left under `<root>/jobs/`, and serves until `POST /shutdown`.
//! Scale comes from `AIRFEDGA_SCALE` (`full` / `quick`; any other value exits
//! 2), resolved once at startup; all daemon logging goes to stderr (job
//! tables print to stdout, exactly as the batch driver would).

use experiments::Scale;
use jobserver::server::bind_and_record;
use jobserver::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: airfedga-serve [--root DIR] [--addr HOST:PORT]\n\
                     \u{20} --root DIR        server root (queue, shared runstore); default .\n\
                     \u{20} --addr HOST:PORT  bind address; default 127.0.0.1:0 (OS-assigned port,\n\
                     \u{20}                   recorded in <root>/serve.addr)\n\
                     exit status: 0 clean shutdown; 1 startup or serve errors; 2 usage errors";

struct Args {
    root: PathBuf,
    addr: String,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut addr = "127.0.0.1:0".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            "--root" => {
                root = PathBuf::from(argv.next().ok_or("--root requires a directory")?);
            }
            "--addr" => {
                addr = argv.next().ok_or("--addr requires HOST:PORT")?;
            }
            other => {
                if let Some(v) = other.strip_prefix("--root=") {
                    root = PathBuf::from(v);
                } else if let Some(v) = other.strip_prefix("--addr=") {
                    addr = v.to_string();
                } else {
                    return Err(format!("unknown argument {other:?}"));
                }
            }
        }
    }
    Ok(Args { root, addr })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("airfedga-serve: {e}\n{USAGE}");
            exit(2);
        }
    };
    let scale = Scale::from_env_or_exit("airfedga-serve");
    let config = ServerConfig {
        root: args.root.clone(),
        scale,
    };
    let server = match Server::open(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("airfedga-serve: cannot open {}: {e}", args.root.display());
            exit(1);
        }
    };
    let (listener, bound) = match bind_and_record(&args.root, &args.addr) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("airfedga-serve: cannot bind {}: {e}", args.addr);
            exit(1);
        }
    };
    eprintln!(
        "airfedga-serve: listening on {bound} (root {}, scale {scale:?})",
        args.root.display(),
    );
    let executor = server.start_executor();
    server.serve_http(listener);
    executor.join().ok();
    std::fs::remove_file(args.root.join("serve.addr")).ok();
    eprintln!("airfedga-serve: shut down");
}
