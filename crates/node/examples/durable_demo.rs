//! End-to-end demo of the crash-consistent durable cache tier.
//!
//! Spawns a durable write-back [`NodeServer`] over a real TCP socket
//! and an on-disk frame store, then walks the recovery surface: a
//! fresh format, a warm restart after clean shutdown, and a restart
//! over bit-rotted media (a corrupt frame is never served — its key
//! falls back to the backing store).
//! It ends with group commit at work: the same 64 writes sent one at a
//! time and in pipelined bursts of eight, then bursts of eight from four
//! connections at once — whose windows share commits, landed outside
//! the engine's lock — with the frames per sync, syncs per commit and
//! shared windows the node's own counters report.
//!
//! ```sh
//! cargo run --release -p sievestore-node --example durable_demo
//! ```

use std::sync::Arc;

use sievestore::PolicySpec;
use sievestore_node::durable::{FILE_HEADER_LEN, FRAME_HEADER_LEN, FRAME_RECORD_LEN};
use sievestore_node::{
    DurableMediaSet, MemBacking, NodeClient, NodeServer, NodeServerBuilder, PipelinedClient,
    RecoveryReport, WritePolicy,
};
use sievestore_types::obs::{self, CapturingSink, CounterId};

const FRAMES: u64 = 4;

fn spawn(
    dir: &std::path::Path,
) -> std::io::Result<(NodeServer<MemBacking>, Option<RecoveryReport>)> {
    NodeServerBuilder::new("127.0.0.1:0")
        .sink(Arc::new(CapturingSink::new()))
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteBack,
            DurableMediaSet::open_dir(dir)?,
        )
}

/// Sends 64 allocating write-back writes, `depth` per pipelined burst,
/// to a fresh durable node and prints what its durable tier did. Each
/// write lands one frame and no journal record, so a burst is one
/// put-only group: one frame write and one sync.
fn group_commit_burst(dir: &std::path::Path, depth: usize) -> std::io::Result<()> {
    std::fs::remove_dir_all(dir).ok();
    let (server, _) = spawn(dir)?;
    let mut client = PipelinedClient::connect(server.addr(), depth)?;
    let counters = || {
        [
            CounterId::DurableSyncs,
            CounterId::DurableCommits,
            CounterId::DurableJournalRecords,
        ]
        .map(|id| obs::global().counter(id))
    };
    let before = counters();
    for burst in 0..64 / depth as u64 {
        for i in 0..depth as u64 {
            let key = burst * depth as u64 + i;
            client.write(key, &[key as u8; 512])?;
        }
        // The burst leaves in one socket write and comes back after
        // one commit.
        for done in client.drain()? {
            done.result?;
        }
    }
    let after = counters();
    client.quit()?;
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
    let [syncs, commits, records] = [0, 1, 2].map(|i| after[i] - before[i]);
    println!(
        "[group]   depth {depth}: 64 writes -> {syncs} syncs, {commits} commits, {records} journal records, frames/sync {:.2}, syncs/commit {:.2}",
        64.0 / syncs as f64,
        syncs as f64 / commits as f64
    );
    Ok(())
}

/// Four connections rewrite their own eight keys in pipelined bursts,
/// round after round, all bursts of a round sent together: whichever
/// connection lands a group covers what the others staged meanwhile,
/// and their windows are released without a commit of their own.
fn shared_commit_burst(dir: &std::path::Path) -> std::io::Result<()> {
    const CONNS: u64 = 4;
    const ROUNDS: u64 = 32;
    std::fs::remove_dir_all(dir).ok();
    let (server, _) = spawn(dir)?;
    let addr = server.addr();
    let counters = || {
        [CounterId::DurableCommits, CounterId::DurableCommitsShared]
            .map(|id| obs::global().counter(id))
    };
    let before = counters();
    let start = Arc::new(std::sync::Barrier::new(CONNS as usize));
    let bursts: Vec<_> = (0..CONNS)
        .map(|conn| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || -> std::io::Result<()> {
                let mut client = PipelinedClient::connect(addr, 8)?;
                for round in 0..ROUNDS {
                    start.wait();
                    for key in conn * 8..conn * 8 + 8 {
                        client.write(key, &[round as u8; 512])?;
                    }
                    for done in client.drain()? {
                        done.result?;
                    }
                }
                client.quit()?;
                Ok(())
            })
        })
        .collect();
    for burst in bursts {
        burst.join().expect("burst thread")?;
    }
    let after = counters();
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
    let [commits, shared] = [0, 1].map(|i| after[i] - before[i]);
    println!(
        "[pipeline] {CONNS} connections x depth 8: {} windows -> {commits} commits, shared {shared}",
        CONNS * ROUNDS
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("sievestore-durable-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Fresh media: the open formats the segment + journals.
    let (server, report) = spawn(&dir)?;
    let report = report.expect("fresh media formats cleanly");
    println!(
        "[fresh]   formatted new media: recovered {} frames",
        report.recovered
    );

    let mut client = NodeClient::connect(server.addr())?;
    for key in 0..FRAMES {
        client.write_block(key, &[0x40 + key as u8; 512])?;
    }
    let (data, hit) = client.read_block(0)?;
    println!(
        "[workload] wrote {FRAMES} write-back frames; read key 0 -> first byte {:#04x}, hit={hit}",
        data[0]
    );
    client.quit()?;
    server.shutdown();

    // Clean restart: the journal ends with a shutdown marker, so the
    // whole resident set comes back warm.
    let (server, report) = spawn(&dir)?;
    let report = report.expect("media recovers");
    println!(
        "[restart] clean shutdown -> recovered {} warm, quarantined {}, clean_shutdown={}",
        report.recovered, report.quarantined, report.clean_shutdown
    );
    let mut client = NodeClient::connect(server.addr())?;
    let (data, hit) = client.read_block(2)?;
    println!(
        "[warm]    read key 2 -> first byte {:#04x}, hit={hit} (served from the durable tier)",
        data[0]
    );
    client.quit()?;
    server.shutdown();

    // Bit rot: flip one payload bit in slot 0 of the segment file.
    // Recovery checksums every frame and counts the mismatch as a torn
    // slot instead of ever serving it. It cannot tell whose frame rotted,
    // so a clean frame may be that key's stale previous version: every
    // clean frame comes back cold and reads fall back to the backing store.
    let seg_path = dir.join("frames.seg");
    let mut seg = std::fs::read(&seg_path)?;
    let payload0 = FILE_HEADER_LEN + FRAME_HEADER_LEN + 100;
    seg[payload0] ^= 0x01;
    std::fs::write(&seg_path, &seg)?;
    println!("[bit rot] flipped one payload bit in segment slot 0 (record len {FRAME_RECORD_LEN})");

    let (server, report) = spawn(&dir)?;
    let report = report.expect("media recovers");
    println!(
        "[restart] recovered {} warm, torn slots {} (checksum mismatch, never served)",
        report.recovered, report.torn_slots
    );
    let mut client = NodeClient::connect(server.addr())?;
    let mut warm = 0u64;
    let mut fallback = 0u64;
    for key in 0..FRAMES {
        let (_, hit) = client.read_block(key)?;
        if hit {
            warm += 1;
        } else {
            fallback += 1;
        }
    }
    println!("[reads]   {warm} warm hits, {fallback} fell back to the backing store");
    client.quit()?;
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();

    // Group commit: the unit of durability is the pipelined window.
    obs::set_enabled(true);
    for depth in [1, 8] {
        group_commit_burst(&dir, depth)?;
    }
    shared_commit_burst(&dir)?;
    println!("durable demo complete");
    Ok(())
}
