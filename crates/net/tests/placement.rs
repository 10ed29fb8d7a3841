//! Where an [`EmulatedServer`]'s connection thread runs: on the CPU its
//! client's packets arrive on, and after the client when it moves.
//!
//! Counts and masks, not clocks. A file (a process) of its own because
//! the thread is found by name under `/proc/self/task`, and the tests of
//! `loopback.rs` run beside each other with threads of that name each.

use std::io::{Read, Write};
use std::net::TcpStream;

use caai_congestion::AlgorithmId;
use caai_net::sys::{confine_to, current_cpu};
use caai_net::{
    Behavior, ClientFrame, EmulatedServer, FrameDecoder, ServerFrame, ServerProfile, Wire,
};

/// `Cpus_allowed_list` of the thread whose `/proc` directory is `task`.
fn allowed_cpus(task: &str) -> Option<String> {
    let status = std::fs::read_to_string(format!("{task}/status")).ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_owned())
}

/// The masks of this process's live `caai-emu-conn` threads.
fn conn_thread_cpus() -> Vec<String> {
    let mut masks = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let task = entry.path().display().to_string();
        let comm = std::fs::read_to_string(format!("{task}/comm")).unwrap_or_default();
        if comm.trim() == "caai-emu-conn" {
            masks.extend(allowed_cpus(&task));
        }
    }
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

/// Sends `frame` and blocks for the server's next frame: when it is
/// here, the connection thread has read, followed and answered.
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
    let server =
        EmulatedServer::spawn(ServerProfile::ideal(AlgorithmId::Reno), Behavior::Normal).unwrap();
    let addr = server.addr();
    // The client confines itself on a thread of its own, so the mask
    // dies with it.
    let client = std::thread::spawn(move || {
        let home = current_cpu().unwrap();
        confine_to(home);
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = ClientFrame::Hello {
            proposed_mss: 100,
            now: 0.0,
        };
        assert!(matches!(
            round_trip(&mut stream, &hello),
            ServerFrame::Welcome { .. }
        ));
        assert_eq!(
            conn_thread_cpus(),
            [home.to_string()],
            "born where the SYN came in"
        );

        let Some(&away) = expand(&allowed).iter().find(|&&cpu| cpu != home) else {
            eprintln!("skipped the move: this process may use CPU {allowed} only");
            return;
        };
        confine_to(away);
        let xmit = ClientFrame::Xmit {
            now: 0.0,
            horizon: 1.0,
        };
        assert!(matches!(
            round_trip(&mut stream, &xmit),
            ServerFrame::Burst { .. }
        ));
        assert_eq!(
            conn_thread_cpus(),
            [away.to_string()],
            "followed the client"
        );
    });
    client.join().unwrap();
}
