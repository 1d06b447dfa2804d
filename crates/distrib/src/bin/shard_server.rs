//! `shard_server` — one shard of a test cluster.
//!
//! Regenerates the deterministic synthetic store from `(--trajectories,
//! --len, --seed, --alphabet)`, builds its `--shard`-of-`--num-shards`
//! partition as an [`IndexShard`], binds a loopback ephemeral port (or
//! `--addr`), prints `LISTENING <addr>` on stdout, and answers shard RPCs
//! until killed.
//!
//! ```text
//! shard_server --shard 1 --num-shards 3 --trajectories 90 --len 16 \
//!              --seed 7 --alphabet 32 [--epoch 1] [--addr 127.0.0.1:0]
//! ```

use trajsearch_core::IndexShard;
use trajsearch_distrib::testdata;
use trajsearch_serve::{IndexShardSource, Server, ServerConfig};

struct Args {
    shard: usize,
    num_shards: usize,
    trajectories: usize,
    len: usize,
    seed: u64,
    alphabet: usize,
    epoch: u64,
    addr: std::net::SocketAddr,
}

fn parse_args() -> Args {
    let mut args = Args {
        shard: 0,
        num_shards: 1,
        trajectories: 90,
        len: 16,
        seed: 7,
        alphabet: 32,
        epoch: 1,
        addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let fail = |what: &str| -> ! { panic!("{flag} must be {what}, got {value:?}") };
        match flag.as_str() {
            "--shard" => args.shard = value.parse().unwrap_or_else(|_| fail("an integer")),
            "--num-shards" => {
                args.num_shards = value.parse().unwrap_or_else(|_| fail("an integer"))
            }
            "--trajectories" => {
                args.trajectories = value.parse().unwrap_or_else(|_| fail("an integer"))
            }
            "--len" => args.len = value.parse().unwrap_or_else(|_| fail("an integer")),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| fail("an integer")),
            "--alphabet" => args.alphabet = value.parse().unwrap_or_else(|_| fail("an integer")),
            "--epoch" => args.epoch = value.parse().unwrap_or_else(|_| fail("an integer")),
            "--addr" => args.addr = value.parse().unwrap_or_else(|_| fail("a socket address")),
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn main() {
    use std::io::Write as _;

    let args = parse_args();
    let store = testdata::store(args.trajectories, args.len, args.seed, args.alphabet);
    let shard = IndexShard::build(&store, args.alphabet, args.shard, args.num_shards);
    let source = IndexShardSource::new(&shard, args.epoch);

    let server = Server::bind(ServerConfig {
        addr: args.addr,
        ..ServerConfig::default()
    })
    .expect("bind shard server");
    println!("LISTENING {}", server.handle().local_addr());
    std::io::stdout().flush().expect("flush stdout");

    // Serves until the process is killed (test clusters SIGKILL their
    // shards; there is no filesystem or in-flight state to corrupt).
    server.serve_shard(&source).expect("serve shard RPCs");
}
