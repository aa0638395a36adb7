//! `cvopt-shardd` — a CVOPT shard server.
//!
//! ```text
//! cvopt-shardd [--addr 127.0.0.1] [--port 7070] [--workers N]
//! ```
//!
//! Starts empty; a coordinator registers shards over the wire (the
//! `Register` request) and then scatters pass requests at them. `--port 0`
//! binds an ephemeral port; the bound address is printed (and flushed) on
//! startup so scripts can scrape it.

use std::io::Write;

use cvopt_net::Shardd;

fn main() {
    let mut addr = "127.0.0.1".to_string();
    let mut port: u16 = 7070;
    let mut workers: usize = 4;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| fail(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--addr" => addr = value(),
            "--port" => port = parse(&value(), &arg),
            "--workers" => workers = parse(&value(), &arg),
            "--help" | "-h" => {
                println!(
                    "cvopt-shardd: a CVOPT shard server\n\n\
                     options:\n  \
                     --addr A     bind address (default 127.0.0.1)\n  \
                     --port P     bind port; 0 = ephemeral (default 7070)\n  \
                     --workers N  worker threads (default 4)"
                );
                return;
            }
            other => fail(&format!("unknown argument '{other}' (try --help)")),
        }
    }
    if workers == 0 {
        fail("--workers must be at least 1");
    }

    let server = match Shardd::bind(format!("{addr}:{port}"), workers) {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot bind {addr}:{port}: {e}")),
    };
    println!("cvopt-shardd listening on {} ({workers} workers)", server.addr());
    std::io::stdout().flush().expect("flush stdout");

    // The server threads own all the work from here on; keep it alive.
    std::mem::forget(server);
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("invalid value '{value}' for {name}")))
}

fn fail(message: &str) -> ! {
    eprintln!("cvopt-shardd: {message}");
    std::process::exit(2);
}
