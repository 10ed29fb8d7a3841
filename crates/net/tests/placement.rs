//! Where an [`EmulatedServer`]'s connections are served: by the fleet
//! loop on the CPU the client's packets arrive on, one loop per CPU.
//!
//! Counts and masks, not clocks. A file (a process) of its own because
//! the fleet's loops are found by name under `/proc/self/task`, and they
//! are started by the process's first server, from that caller's mask.

use std::io::{Read, Write};
use std::net::TcpStream;

use caai_congestion::AlgorithmId;
use caai_core::frame::{ClientFrame, ServerFrame};
use caai_core::ServerUnderTest;
use caai_net::sys::{confine_to, current_cpu, incoming_cpu};
use caai_net::{Behavior, EmulatedServer, FrameDecoder, Wire};

/// `Cpus_allowed_list` of the thread whose `/proc` directory is `task`.
fn allowed_cpus(task: &str) -> Option<String> {
    let status = std::fs::read_to_string(format!("{task}/status")).ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_owned())
}

/// The masks of this process's `caai-emu-loop` threads, sorted.
fn loop_thread_cpus() -> Vec<String> {
    let mut masks = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let task = entry.path().display().to_string();
        let comm = std::fs::read_to_string(format!("{task}/comm")).unwrap_or_default();
        if comm.trim() == "caai-emu-loop" {
            masks.extend(allowed_cpus(&task));
        }
    }
    masks.sort();
    masks
}

/// Expands a `Cpus_allowed_list` (`0-1,4`) into CPU numbers.
fn expand(list: &str) -> Vec<usize> {
    list.split(',')
        .flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            lo.parse::<usize>().unwrap()..=hi.parse::<usize>().unwrap()
        })
        .collect()
}

/// Sends `frame` and blocks for the server's next frame.
fn round_trip(stream: &mut TcpStream, frame: &ClientFrame) -> ServerFrame {
    let mut bytes = Vec::new();
    frame.encode_into(&mut bytes);
    stream.write_all(&bytes).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed mid-exchange");
        decoder.push(&buf[..n]);
        if let Some(frame) = decoder.next::<ServerFrame>().unwrap() {
            return frame;
        }
    }
}

#[test]
fn a_connection_is_served_on_the_cpu_its_packets_arrive_on() {
    let (Some(_), Some(allowed)) = (current_cpu(), allowed_cpus("/proc/thread-self")) else {
        eprintln!("skipped: no sched_getcpu or no /proc/thread-self/status here");
        return;
    };
    let cpus = expand(&allowed);
    let server =
        EmulatedServer::spawn(ServerUnderTest::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap();
    let mut each_alone: Vec<String> = cpus.iter().map(usize::to_string).collect();
    each_alone.sort();

    // A client on each CPU: one listener's loop accepts them all, and
    // each is answered from the client's own CPU — by the loop there.
    let addr = server.addr();
    for cpu in cpus {
        // The client confines itself on a thread of its own, so the mask
        // dies with it.
        let client = std::thread::spawn(move || {
            confine_to(cpu);
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = ClientFrame::Hello {
                proposed_mss: 100,
                now: 0.0,
            };
            assert!(matches!(
                round_trip(&mut stream, &hello),
                ServerFrame::Welcome { .. }
            ));
            let xmit = ClientFrame::Xmit {
                now: 0.0,
                horizon: 1.0,
            };
            assert!(matches!(
                round_trip(&mut stream, &xmit),
                ServerFrame::Burst { .. }
            ));
            // Over loopback a packet arrives on its sender's CPU.
            assert_eq!(incoming_cpu(&stream), Some(cpu), "answered from elsewhere");
        });
        client.join().unwrap();
    }
    // Each loop confines itself as it starts, and each has answered.
    assert_eq!(
        loop_thread_cpus(),
        each_alone,
        "one loop confined to each CPU"
    );
}
