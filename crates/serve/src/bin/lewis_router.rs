//! The `lewis-router` binary: one endpoint over N `lewis-serve`
//! replicas — round-robin forwarding, health-check eviction, writes
//! sent once, typed 503 when the whole fleet is down.

use lewis_serve::{route_serve, RouterConfig};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

const USAGE: &str = "\
lewis-router — round-robin front over lewis-serve replicas

USAGE:
    lewis-router --replica ADDR [--replica ADDR ...] [OPTIONS]

OPTIONS:
    --listen ADDR          bind address (default 127.0.0.1:7870; port 0 = ephemeral)
    --replica ADDR         a lewis-serve replica address (repeatable, at
                           least one)
    --workers N            worker threads (default 4)
    --health-ms N          health probe interval in milliseconds
                           (default 200)
    --max-body BYTES       request body limit (default 1048576)
    -h, --help             this text

ROUTES:
    GET  /healthz          router liveness + healthy replica count
    GET  /router/metrics   per-replica forwarded/error counters
    POST /admin/shutdown   graceful stop
    anything else          forwarded to the next healthy replica. GETs and
                           synchronous explains are retried on the next
                           replica after a transport error; every other
                           request (appends, compactions, async jobs,
                           admin lifecycle) is sent once, and a failure
                           after sending answers 502 forward_failed
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(1)
}

fn main() {
    let mut config = RouterConfig {
        addr: "127.0.0.1:7870".to_string(),
        read_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--listen" => config.addr = value("--listen"),
            "--replica" => {
                let spec = value("--replica");
                let addr: SocketAddr = match spec.to_socket_addrs() {
                    Ok(mut addrs) => match addrs.next() {
                        Some(a) => a,
                        None => fail(&format!("--replica {spec:?}: resolves to nothing")),
                    },
                    Err(e) => fail(&format!("--replica {spec:?}: {e}")),
                };
                config.replicas.push(addr);
            }
            "--workers" => {
                config.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers expects an integer"))
            }
            "--health-ms" => {
                let ms: u64 = value("--health-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--health-ms expects an integer"));
                config.health_interval = Duration::from_millis(ms.max(1));
            }
            "--max-body" => {
                config.max_body = value("--max-body")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-body expects an integer"))
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if config.replicas.is_empty() {
        fail("at least one --replica is required");
    }

    let router = match route_serve(&config) {
        Ok(r) => r,
        Err(e) => fail(&format!("cannot start router on {}: {e}", config.addr)),
    };
    // the address line goes to stdout so scripts can scrape the port
    println!("routing on http://{}", router.addr());
    eprintln!(
        "replicas: {}",
        config
            .replicas
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "stop with: curl -X POST http://{}/admin/shutdown",
        router.addr()
    );
    router.join();
    eprintln!("bye");
}
