//! Cross-process bring-up and teardown: the leader re-executes this
//! test binary as its children (`child_args` selects the `child_entry`
//! test below), frames cross real process boundaries, and shutdown
//! leaves nothing behind — children reaped, exit codes propagated, the
//! session directory (meta file, sockets) unlinked.

use flows_net::{child_rank, Backend, Frame, TopologySpec};
use std::time::Duration;

/// Child-process body: attach, echo every data frame back to its
/// sender, leave on any control frame (its tag is the layer above's). Not a test of its own — when the file runs
/// normally (no flows-net environment), it returns immediately.
#[test]
fn child_entry() {
    if child_rank().is_none() {
        return;
    }
    let world = flows_net::attach_from_env().expect("child attach");
    loop {
        match world.try_recv() {
            Some((src, f)) => match f.kind {
                flows_net::FrameKind::Data => {
                    world.send(src, &Frame::data(f.dst_pe, f.src_pe, f.a, f.b, f.c, f.body));
                }
                flows_net::FrameKind::Ctrl => break,
                _ => {}
            },
            None => world.park(Duration::from_millis(50)),
        }
    }
}

/// Child-process body for the exit-status test: attach (so the leader's
/// bring-up completes), then die loudly.
#[test]
fn child_exit_7() {
    if child_rank().is_none() {
        return;
    }
    let _world = flows_net::attach_from_env().expect("child attach");
    std::process::exit(7);
}

fn echo_round_trip(backend: Backend) {
    let world = TopologySpec::new(2, 2)
        .backend(backend)
        .child_args(["child_entry", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    assert!(world.is_leader());
    assert_eq!(world.num_pes(), 4);
    assert_eq!(world.proc_of_pe(3), 1);
    let dir = world.session_dir().to_path_buf();
    assert!(dir.join("meta").exists(), "meta file written");

    let body: Vec<u8> = (0..150u8).collect();
    world.send(1, &Frame::data(0, 2, 41, 9, 7, body.clone().into()));
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let echo = loop {
        if let Some((src, f)) = world.try_recv() {
            assert_eq!(src, 1);
            break f;
        }
        assert!(std::time::Instant::now() < deadline, "echo never arrived");
        world.park(Duration::from_millis(50));
    };
    assert_eq!((echo.src_pe, echo.dst_pe), (2, 0), "echoed with swapped PEs");
    assert_eq!(echo.body, body);

    world.send(1, &Frame::control(0, 0, flows_core::Payload::empty()));
    world.shutdown().expect("clean shutdown: child exited zero");
    assert!(!dir.exists(), "session directory unlinked at shutdown");
    assert!(world.poll_children().is_empty(), "all children reaped");
}

#[test]
fn shm_spawn_echo_and_clean_shutdown() {
    echo_round_trip(Backend::Shm);
}

#[test]
fn uds_spawn_echo_and_clean_shutdown() {
    echo_round_trip(Backend::Uds);
}

#[test]
fn tcp_spawn_echo_and_clean_shutdown() {
    echo_round_trip(Backend::Tcp);
}

#[test]
fn nonzero_child_exit_is_propagated() {
    let world = TopologySpec::new(2, 1)
        .backend(Backend::Uds)
        .child_args(["child_exit_7", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    let err = world.shutdown().expect_err("child exited 7");
    assert!(err.contains('7'), "exit code surfaces in the error: {err}");
}
