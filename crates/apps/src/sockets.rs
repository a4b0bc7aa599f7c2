//! The socket baseline of the conferencing application (§5.2 version 1).
//!
//! "The first version uses Unix TCP/IP socket for communication between
//! the client programs and the server program. The mixer (a single thread)
//! obtains images from each client one after the other, generates the
//! composite, and sends it to the clients one after the other." The paper
//! wrote this baseline to show that the D-Stampede version performs
//! comparably while being far easier to build — this module preserves that
//! comparison (and, indeed, is noticeably more fiddly than
//! [`crate::conference`]).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

#[cfg(test)]
use dstampede_clf::NetProfile;
use dstampede_clf::{ShapedStream, TokenBucket};
use dstampede_core::{StmError, StmResult};
use dstampede_wire::{read_frame, write_frame};

use crate::conference::ConferenceConfig;
use crate::conference::ConferenceReport;
use crate::frame::{composite, make_frame, validate_composite_region};
use crate::metrics::{AppMeasurement, FpsMeter};
use dstampede_core::Item;

enum ServerStream {
    Plain(TcpStream),
    Shaped(Box<ShapedStream<TcpStream>>),
}

impl Read for ServerStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Plain(s) => s.read(buf),
            ServerStream::Shaped(s) => s.read(buf),
        }
    }
}

impl Write for ServerStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Plain(s) => s.write(buf),
            ServerStream::Shaped(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServerStream::Plain(s) => s.flush(),
            ServerStream::Shaped(s) => s.flush(),
        }
    }
}

/// Runs the socket baseline and reports sustained frame rates, on the
/// same [`ConferenceConfig`] as the D-Stampede versions (the `mixer`
/// field is ignored: this baseline is single-threaded by construction).
///
/// # Errors
///
/// Propagates socket and validation errors.
pub fn run_socket_conference(cfg: &ConferenceConfig) -> StmResult<ConferenceReport> {
    assert!(cfg.clients >= 1, "need at least one client");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|_| StmError::Disconnected)?;
    let addr = listener.local_addr().map_err(|_| StmError::Disconnected)?;

    // ---- the server program: accept K clients, then mix in lockstep ----
    let server_cfg = cfg.clone();
    let server = std::thread::spawn(move || -> StmResult<()> {
        // The mixer node's egress budget is shared across every client
        // socket, as a single node's NIC would be.
        let egress = server_cfg
            .cluster_profile
            .bandwidth
            .map(|rate| Arc::new(TokenBucket::new(rate)));
        let mut streams: Vec<ServerStream> = Vec::with_capacity(server_cfg.clients);
        for _ in 0..server_cfg.clients {
            let (s, _) = listener.accept().map_err(|_| StmError::Disconnected)?;
            s.set_nodelay(true).map_err(|_| StmError::Disconnected)?;
            streams.push(match &egress {
                Some(bucket) => ServerStream::Shaped(Box::new(ShapedStream::with_shared_bucket(
                    s,
                    server_cfg.cluster_profile,
                    Arc::clone(bucket),
                ))),
                None => ServerStream::Plain(s),
            });
        }
        for _ts in 0..server_cfg.frames {
            // Obtain images from each client, one after the other.
            let mut parts = Vec::with_capacity(server_cfg.clients);
            for (j, stream) in streams.iter_mut().enumerate() {
                let bytes = read_frame(&mut *stream).map_err(|_| StmError::Disconnected)?;
                parts.push(Item::from_vec(bytes).with_tag(j as u32));
            }
            let mixed = composite(&parts);
            // Send the composite to each client, one after the other.
            for stream in &mut streams {
                write_frame(&mut *stream, mixed.payload()).map_err(|_| StmError::Disconnected)?;
            }
        }
        Ok(())
    });

    // ---- client programs: send a frame, receive the composite ----
    let mut clients = Vec::new();
    for j in 0..cfg.clients {
        let cfg = cfg.clone();
        // Connect here, in index order: the server numbers its clients by
        // accept order, and client `j` validates composite region `j`.
        let raw = TcpStream::connect(addr).map_err(|_| StmError::Disconnected)?;
        clients.push(std::thread::spawn(move || -> StmResult<(f64, u64)> {
            raw.set_nodelay(true).map_err(|_| StmError::Disconnected)?;
            let mut stream: Box<dyn ReadWrite> = if cfg.client_profile.is_transparent() {
                Box::new(raw)
            } else {
                Box::new(ShapedStream::new(raw, cfg.client_profile))
            };
            let mut meter = FpsMeter::new(cfg.warmup);
            let mut validated = 0u64;
            for ts in 0..cfg.frames {
                let frame = make_frame(j as u32, ts, cfg.image_size);
                write_frame(&mut *stream, frame.payload()).map_err(|_| StmError::Disconnected)?;
                let bytes = read_frame(&mut *stream).map_err(|_| StmError::Disconnected)?;
                let item = Item::from_vec(bytes);
                validate_composite_region(&item, j, &frame)?;
                validated += 1;
                meter.frame();
            }
            meter.finish();
            Ok((meter.fps(), validated))
        }));
    }

    server
        .join()
        .map_err(|_| StmError::Protocol("server panicked".into()))??;
    let mut per_client_fps = Vec::new();
    let mut validated_frames = 0;
    for c in clients {
        let (fps, validated) = c
            .join()
            .map_err(|_| StmError::Protocol("client panicked".into()))??;
        per_client_fps.push(fps);
        validated_frames += validated;
    }

    let slowest = per_client_fps.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(ConferenceReport {
        measurement: AppMeasurement {
            clients: cfg.clients,
            image_size: cfg.image_size,
            fps: slowest,
        },
        per_client_fps,
        validated_frames,
    })
}

trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_baseline_delivers_validated_composites() {
        let cfg = ConferenceConfig {
            clients: 2,
            image_size: 4 * 1024,
            frames: 30,
            warmup: 5,
            ..ConferenceConfig::default()
        };
        let report = run_socket_conference(&cfg).unwrap();
        assert_eq!(report.per_client_fps.len(), 2);
        assert_eq!(report.validated_frames, 2 * 30);
        assert!(report.measurement.fps > 0.0);
    }

    #[test]
    fn socket_baseline_with_three_clients() {
        let cfg = ConferenceConfig {
            clients: 3,
            image_size: 2 * 1024,
            frames: 20,
            warmup: 4,
            ..ConferenceConfig::default()
        };
        let report = run_socket_conference(&cfg).unwrap();
        assert_eq!(report.validated_frames, 3 * 20);
    }

    #[test]
    fn shared_egress_bucket_limits_rate() {
        let mut cfg = ConferenceConfig {
            clients: 2,
            image_size: 16 * 1024,
            frames: 40,
            warmup: 5,
            ..ConferenceConfig::default()
        };
        let fast = run_socket_conference(&cfg).unwrap();
        cfg.cluster_profile = NetProfile {
            latency: std::time::Duration::ZERO,
            bandwidth: Some(1024 * 1024), // 1 MB/s shared egress
        };
        let slow = run_socket_conference(&cfg).unwrap();
        assert!(
            slow.measurement.fps < fast.measurement.fps,
            "shaped {} !< unshaped {}",
            slow.measurement.fps,
            fast.measurement.fps
        );
        // 2 clients × 32 KB composite per frame = 64 KB/frame at 1 MB/s
        // ⇒ at most ~16 fps in steady state (plus burst allowance).
        assert!(slow.measurement.fps < 40.0, "fps={}", slow.measurement.fps);
    }
}
