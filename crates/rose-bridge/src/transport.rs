//! Packet transports.
//!
//! The paper's synchronizer communicates "with FireSim by using a TCP
//! listener" (Section 3.4.1). [`TcpTransport`] reproduces that deployment;
//! [`ChannelTransport`] provides the same interface in-process, to a
//! server on another thread, over one blocking packet queue per direction
//! that never spins while it waits (see its docs for why). A server on
//! the client's own thread needs no queue pair:
//! [`InlineTransport`](crate::sync::InlineTransport) runs it inside `send`.
//!
//! # Short reads and short writes
//!
//! TCP is a byte stream: a single `read` may return any prefix of a
//! packet, and a naive `write` may accept only part of one. Both ends of
//! the framing here are already robust to that, by construction rather
//! than by retry loops bolted on top:
//!
//! * **Writes** encode a whole batch of frames into one buffer and hand
//!   it to [`std::io::Write::write_all`] on a blocking socket, which
//!   loops internally until every byte is accepted or an error surfaces —
//!   a short write can never silently truncate a frame.
//! * **Reads** append whatever bytes arrive to a byte inbox;
//!   [`Packet::decode`] returns [`DecodeError::Incomplete`] until a full
//!   frame is at its front, and only a decoded frame's bytes are dropped.
//!   A packet dribbled in one byte at a time therefore decodes exactly
//!   once, when its last byte lands — see the `tcp_survives_dribbling_peer`
//!   test.
//!
//! This buffering also means packet boundaries need not align with read
//! boundaries: one read may complete several packets, and `pop` drains
//! them in order.

use crate::packet::{DecodeError, Packet};
use rose_sim_core::lock;
use rose_trace::TraceEvent;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A transport error.
#[derive(Debug)]
pub enum TransportError {
    /// The peer disconnected.
    Disconnected,
    /// A malformed packet arrived.
    Decode(DecodeError),
    /// An I/O error occurred.
    Io(io::Error),
    /// A well-formed packet arrived that the protocol state machine does
    /// not accept here (e.g. a `GrantCycles` at the synchronizer side).
    /// Latched instead of panicking so a confused or malicious peer winds
    /// the mission down through the ordinary fault path (PANIC001).
    Protocol {
        /// The kind of packet that arrived.
        got: &'static str,
        /// Where it arrived (which endpoint rejected it).
        at: &'static str,
    },
}

impl TransportError {
    /// True when a retry or reconnect could plausibly clear the error:
    /// disconnects and I/O errors are transient from the recovery layer's
    /// point of view, while decode and protocol errors indicate a peer
    /// speaking the wrong language — retrying those would loop forever.
    pub fn is_transient(&self) -> bool {
        matches!(self, TransportError::Disconnected | TransportError::Io(_))
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Decode(e) => write!(f, "decode error: {e}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Protocol { got, at } => {
                write!(f, "protocol error: unexpected {got} packet at {at}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

/// A bidirectional, ordered packet pipe.
pub trait Transport {
    /// Sends one packet.
    ///
    /// # Errors
    ///
    /// Returns an error if the peer is gone or I/O fails.
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError>;

    /// Sends `packets` in order, as one [`send`](Transport::send) each
    /// would. The default does exactly that; [`TcpTransport`] puts the
    /// whole batch on the wire with one write.
    ///
    /// # Errors
    ///
    /// The first error a send returns; the packets after it are not sent.
    fn send_all(&mut self, packets: &[Packet]) -> Result<(), TransportError> {
        packets.iter().try_for_each(|packet| self.send(packet))
    }

    /// Receives the next packet without blocking; `None` if none is ready.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnect or corrupt input.
    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError>;

    /// Receives the next packet, blocking until one arrives. A transport
    /// that cannot block, because nothing runs beside it to send
    /// ([`InlineTransport`](crate::sync::InlineTransport)), returns an
    /// error instead of waiting forever.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnect or corrupt input, or when a
    /// transport that cannot block has nothing queued.
    fn recv(&mut self) -> Result<Packet, TransportError>;

    /// Attempts to re-establish a dropped connection, discarding any
    /// partially received frame. Transports that cannot reconnect (the
    /// default, and e.g. the accept side of a TCP session) report
    /// [`TransportError::Disconnected`]; the recovery layer then exhausts
    /// its policy and latches.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when reconnection is unsupported,
    /// or any I/O error from the reconnection attempt.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        Err(TransportError::Disconnected)
    }

    /// Drains the wall time an RTL served on this side of the transport
    /// spent in its cost model since the last call, as
    /// [`RtlSide::take_cost_model_wall`](crate::sync::RtlSide::take_cost_model_wall)
    /// reports it. Only a transport that owns its server can see that
    /// wall; the default, for a peer beyond a thread or a socket, is zero.
    fn take_cost_model_wall(&mut self) -> Duration {
        Duration::ZERO
    }

    /// The trace events an RTL served on this side of the transport has
    /// recorded so far, as
    /// [`RtlSide::recent_events`](crate::sync::RtlSide::recent_events)
    /// reports them. As for the cost-model wall, only a transport that
    /// owns its server can see them; the default is none.
    fn recent_events(&self) -> &[TraceEvent] {
        &[]
    }
}

/// One direction of a [`ChannelTransport`] pair.
#[derive(Debug, Default)]
struct Queue {
    /// Packets in flight, and whether either endpoint has been dropped.
    state: Mutex<(VecDeque<Packet>, bool)>,
    /// Signalled on every push and on close.
    ready: Condvar,
}

impl Queue {
    fn push(&self, packet: Packet) -> Result<(), TransportError> {
        let mut state = lock(&self.state);
        let (packets, closed) = &mut *state;
        if *closed {
            return Err(TransportError::Disconnected);
        }
        packets.push_back(packet);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// The next packet; `None` when the queue is empty and `block` is
    /// false. Packets queued before a close are still delivered, then
    /// [`TransportError::Disconnected`] follows.
    fn pop(&self, block: bool) -> Result<Option<Packet>, TransportError> {
        let mut state = lock(&self.state);
        loop {
            let (packets, closed) = &mut *state;
            if let Some(packet) = packets.pop_front() {
                return Ok(Some(packet));
            }
            if *closed {
                return Err(TransportError::Disconnected);
            }
            if !block {
                return Ok(None);
            }
            // The wait re-takes the lock, so it recovers a poisoned guard
            // as `lock` does.
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the queue closed and wakes every waiting receiver.
    fn close(&self) {
        lock(&self.state).1 = true;
        self.ready.notify_all();
    }
}

/// An in-process transport: one FIFO queue per direction, each a
/// `Mutex`-guarded `VecDeque` with a `Condvar`.
///
/// `recv` sleeps on the condvar without spinning first. The benchmark
/// runs the synchronizer and the RTL server on one CPU, and there a spin
/// before sleeping only delays the peer thread that produces the reply.
/// Dropping either endpoint closes both directions: the survivor still
/// receives what was queued, then [`TransportError::Disconnected`], and
/// its sends fail at once.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Arc<Queue>,
    rx: Arc<Queue>,
}

impl ChannelTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let a_to_b = Arc::new(Queue::default());
        let b_to_a = Arc::new(Queue::default());
        (
            ChannelTransport {
                tx: Arc::clone(&a_to_b),
                rx: Arc::clone(&b_to_a),
            },
            ChannelTransport {
                tx: b_to_a,
                rx: a_to_b,
            },
        )
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        self.tx.push(packet.clone())
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        self.rx.pop(false)
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        self.rx.pop(true)?.ok_or(TransportError::Disconnected)
    }

    /// The queues stay open for as long as both endpoints exist, so
    /// "reconnecting" is a no-op: if the peer endpoint is alive the
    /// session simply continues, and if it was dropped the next operation
    /// reports [`TransportError::Disconnected`] again.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// A framed TCP transport.
///
/// One [`send_all`](Transport::send_all) costs one `write`: every frame
/// of the batch is encoded into one buffer, reused for the transport's
/// lifetime. The socket blocks for `send` and `recv` and not for
/// `try_recv`; the transport remembers the mode it last set and switches
/// it only when the next call needs the other one, so a session that
/// never polls makes no mode-switch syscall after its first.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Whether the socket is nonblocking, as last set; `None` while a
    /// wrapped stream's mode is unknown.
    nonblocking: Option<bool>,
    /// Received bytes not yet decoded; frames are taken from the front.
    inbox: Vec<u8>,
    /// Encoded frames of the batch being sent.
    outbox: Vec<u8>,
    /// The socket read buffer, allocated once for the transport's lifetime.
    chunk: Box<[u8]>,
    /// The address originally dialed, kept so `reconnect` can re-dial.
    /// `None` on the accept side — a server cannot call its client back.
    peer: Option<SocketAddr>,
}

impl TcpTransport {
    /// Connects to a listening peer. The resolved address is remembered so
    /// [`Transport::reconnect`] can re-dial after a drop.
    ///
    /// # Errors
    ///
    /// Any socket error from the connection attempt.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().ok();
        Ok(TcpTransport {
            // A freshly connected stream blocks.
            nonblocking: Some(false),
            peer,
            ..TcpTransport::from_stream(stream)
        })
    }

    /// Accepts one connection from `listener`.
    ///
    /// # Errors
    ///
    /// Any socket error from `accept`.
    pub fn accept(listener: &TcpListener) -> io::Result<TcpTransport> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport::from_stream(stream))
    }

    /// Wraps an existing connected stream.
    pub fn from_stream(stream: TcpStream) -> TcpTransport {
        TcpTransport {
            stream,
            nonblocking: None,
            inbox: Vec::new(),
            outbox: Vec::new(),
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
            peer: None,
        }
    }

    /// Puts the socket in the mode the next call needs, unless it is in
    /// it already.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        if self.nonblocking != Some(nonblocking) {
            self.stream.set_nonblocking(nonblocking)?;
            self.nonblocking = Some(nonblocking);
        }
        Ok(())
    }

    /// Reads what the socket holds into the inbox. A blocking read waits
    /// for at least one byte; `WouldBlock` from it is an error, since the
    /// socket should not have been in nonblocking mode.
    fn pump(&mut self, blocking: bool) -> Result<(), TransportError> {
        self.set_nonblocking(!blocking)?;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => {
                    self.inbox.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && !blocking => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    fn pop(&mut self) -> Result<Option<Packet>, TransportError> {
        match Packet::decode(&self.inbox) {
            Ok((p, used)) => {
                self.inbox.drain(..used);
                Ok(Some(p))
            }
            Err(DecodeError::Incomplete) => Ok(None),
            Err(e) => Err(TransportError::Decode(e)),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        self.send_all(std::slice::from_ref(packet))
    }

    /// Encodes the whole batch and writes it at once.
    fn send_all(&mut self, packets: &[Packet]) -> Result<(), TransportError> {
        self.set_nonblocking(false)?;
        self.outbox.clear();
        for packet in packets {
            packet.encode(&mut self.outbox);
        }
        // write_all loops over short writes internally: the whole batch is
        // on the wire or an error surfaces — never a truncated packet.
        self.stream.write_all(&self.outbox)?;
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        if let Some(p) = self.pop()? {
            return Ok(Some(p));
        }
        self.pump(false)?;
        self.pop()
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        loop {
            if let Some(p) = self.pop()? {
                return Ok(p);
            }
            self.pump(true)?;
        }
    }

    /// Re-dials the peer this transport originally connected to. Any bytes
    /// of a partially received frame are discarded — the sequence-resync
    /// handshake recovers whole packets, so a torn frame from the dead
    /// connection must not prefix the new one. The accept side has no
    /// address to dial and reports [`TransportError::Disconnected`].
    fn reconnect(&mut self) -> Result<(), TransportError> {
        let Some(peer) = self.peer else {
            return Err(TransportError::Disconnected);
        };
        let stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.nonblocking = Some(false);
        self.inbox.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::{self, JoinHandle};

    #[test]
    fn channel_roundtrip() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&Packet::GrantCycles {
            cycles: 10,
            quantum: 0,
        })
        .unwrap();
        a.send(&Packet::Data {
            seq: 0,
            payload: vec![1, 2],
        })
        .unwrap();
        assert_eq!(
            b.recv().unwrap(),
            Packet::GrantCycles {
                cycles: 10,
                quantum: 0
            }
        );
        assert_eq!(
            b.try_recv().unwrap(),
            Some(Packet::Data {
                seq: 0,
                payload: vec![1, 2]
            })
        );
        assert_eq!(b.try_recv().unwrap(), None);
        b.send(&Packet::Shutdown).unwrap();
        assert_eq!(a.recv().unwrap(), Packet::Shutdown);
    }

    #[test]
    fn channel_disconnect_detected() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert!(matches!(
            a.send(&Packet::Shutdown),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn channel_reconnect_is_noop() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.reconnect().unwrap();
        a.send(&Packet::Shutdown).unwrap();
        assert_eq!(b.recv().unwrap(), Packet::Shutdown);
    }

    fn data(seq: u32) -> Packet {
        Packet::Data {
            seq,
            payload: seq.to_le_bytes().to_vec(),
        }
    }

    /// mpsc's contract: packets sent before the sender is dropped are
    /// still received, in order, and only then does the receiver see the
    /// disconnect.
    #[test]
    fn channel_delivers_queued_packets_before_disconnect() {
        let (mut a, mut b) = ChannelTransport::pair();
        for seq in 0..3 {
            a.send(&data(seq)).unwrap();
        }
        drop(a);
        assert_eq!(b.recv().unwrap(), data(0));
        assert_eq!(b.try_recv().unwrap(), Some(data(1)));
        assert_eq!(b.recv().unwrap(), data(2));
        assert!(matches!(b.recv(), Err(TransportError::Disconnected)));
        assert!(matches!(b.try_recv(), Err(TransportError::Disconnected)));
    }

    /// mpsc's contract: a receiver blocked on an empty channel wakes with
    /// a disconnect when the last sender is dropped, rather than sleeping
    /// forever.
    #[test]
    fn channel_blocked_recv_wakes_on_peer_drop() {
        let (a, mut b) = ChannelTransport::pair();
        let receiver = thread::spawn(move || b.recv());
        // Let the receiver reach its wait; the test holds either way,
        // since a drop before the wait is seen as soon as it locks.
        thread::sleep(Duration::from_millis(20));
        drop(a);
        assert!(matches!(
            receiver.join().unwrap(),
            Err(TransportError::Disconnected)
        ));
    }

    /// mpsc's contract: sending to a channel whose receiver is gone fails
    /// at once, even with packets still queued the other way.
    #[test]
    fn channel_send_to_dropped_peer_fails() {
        let (mut a, mut b) = ChannelTransport::pair();
        b.send(&Packet::Shutdown).unwrap();
        drop(b);
        assert!(matches!(
            a.send(&data(0)),
            Err(TransportError::Disconnected)
        ));
        assert_eq!(a.recv().unwrap(), Packet::Shutdown);
    }

    #[test]
    fn channel_keeps_fifo_order_across_threads() {
        const N: u32 = 10_000;
        let (mut a, mut b) = ChannelTransport::pair();
        let sender = thread::spawn(move || {
            for seq in 0..N {
                a.send(&data(seq)).unwrap();
            }
        });
        for seq in 0..N {
            assert_eq!(b.recv().unwrap(), data(seq));
        }
        sender.join().unwrap();
        assert!(matches!(b.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut t = TcpTransport::accept(&listener).unwrap();
            // Echo three packets back.
            for _ in 0..3 {
                let p = t.recv().unwrap();
                t.send(&p).unwrap();
            }
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        let packets = [
            Packet::GrantCycles {
                cycles: 123,
                quantum: 1,
            },
            Packet::Data {
                seq: 5,
                payload: (0..1000u32).flat_map(|i| i.to_le_bytes()).collect(),
            },
            Packet::Shutdown,
        ];
        for p in &packets {
            client.send(p).unwrap();
        }
        for p in &packets {
            assert_eq!(&client.recv().unwrap(), p);
        }
        server.join().unwrap();
    }

    /// A connected loopback pair: (client, accept side).
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        (client, TcpTransport::accept(&listener).unwrap())
    }

    /// Sends `packet` from `peer` on another thread 50 ms after `go`
    /// fires, or after a second without it: late enough that a receiver
    /// already in `recv` has to block for it.
    fn send_late(mut peer: TcpTransport, packet: Packet) -> (mpsc::Sender<()>, JoinHandle<()>) {
        let (go, wait) = mpsc::channel();
        let sender = thread::spawn(move || {
            let _ = wait.recv_timeout(Duration::from_secs(1));
            thread::sleep(Duration::from_millis(50));
            peer.send(&packet).unwrap();
        });
        (go, sender)
    }

    /// `try_recv` leaves the socket nonblocking; the `recv` after it must
    /// switch it back and wait for a late packet, not fail with
    /// `WouldBlock`.
    #[test]
    fn tcp_recv_after_try_recv_blocks_for_a_late_packet() {
        let (mut client, server) = tcp_pair();
        let (go, sender) = send_late(server, data(7));
        assert!(matches!(client.try_recv(), Ok(None)));
        go.send(()).unwrap();
        assert_eq!(client.recv().unwrap(), data(7));
        sender.join().unwrap();
    }

    /// `reconnect` dials a fresh stream, which blocks: the transport must
    /// forget that it left the old one nonblocking. A stale record would
    /// make the next `try_recv` block until the late packet arrived.
    #[test]
    fn tcp_reconnect_forgets_the_old_blocking_mode() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let first = TcpTransport::accept(&listener).unwrap();
        assert!(matches!(client.try_recv(), Ok(None)));
        drop(first);
        client.reconnect().unwrap();
        let (go, sender) = send_late(TcpTransport::accept(&listener).unwrap(), data(8));
        assert!(matches!(client.try_recv(), Ok(None)));
        go.send(()).unwrap();
        assert_eq!(client.recv().unwrap(), data(8));
        sender.join().unwrap();
    }

    /// One `send_all` delivers every kind of packet intact and in order,
    /// and the reused encode buffer carries nothing into the next batch.
    #[test]
    fn tcp_send_all_delivers_a_mixed_batch_in_order() {
        let (mut client, mut server) = tcp_pair();
        let batch = [
            Packet::Resync {
                expect_rx: 3,
                quantum: 9,
            },
            data(0),
            Packet::Data {
                seq: 1,
                payload: (0..=255u8).cycle().take(100_000).collect(),
            },
            Packet::CyclesDone {
                cycles: 2000,
                quantum: 9,
            },
            Packet::Shutdown,
        ];
        server.send_all(&batch).unwrap();
        server.send_all(&batch[1..2]).unwrap();
        server.send_all(&[]).unwrap();
        for expected in batch.iter().chain(&batch[1..2]) {
            assert_eq!(&client.recv().unwrap(), expected);
        }
        assert!(matches!(client.try_recv(), Ok(None)));
    }

    #[test]
    fn tcp_try_recv_nonblocking() {
        let (mut client, mut server) = tcp_pair();
        // Nothing sent yet.
        assert!(matches!(client.try_recv(), Ok(None)));
        server
            .send(&Packet::CyclesDone {
                cycles: 1,
                quantum: 0,
            })
            .unwrap();
        // Poll until it arrives.
        let mut got = None;
        for _ in 0..1000 {
            if let Some(p) = client.try_recv().unwrap() {
                got = Some(p);
                break;
            }
            thread::yield_now();
        }
        assert_eq!(
            got,
            Some(Packet::CyclesDone {
                cycles: 1,
                quantum: 0
            })
        );
    }

    /// The short-read satellite: a peer that dribbles packets onto the
    /// wire one byte at a time (every read returns a 1-byte prefix) must
    /// still deliver every packet intact and in order — the inbox
    /// plus `DecodeError::Incomplete` reassembles frames regardless of how
    /// the stream fragments them.
    #[test]
    fn tcp_survives_dribbling_peer() {
        let packets = vec![
            Packet::GrantCycles {
                cycles: 99,
                quantum: 3,
            },
            Packet::Data {
                seq: 0,
                payload: (0..=255u8).collect(),
            },
            Packet::Data {
                seq: 1,
                payload: vec![],
            },
            Packet::Resync {
                expect_rx: 2,
                quantum: 4,
            },
            Packet::Shutdown,
        ];
        let wire: Vec<u8> = packets.iter().flat_map(|p| p.to_bytes()).collect();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dribbler = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            for (i, byte) in wire.iter().enumerate() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                stream.flush().unwrap();
                // Yield frequently (and occasionally sleep) so the reader
                // genuinely observes partial frames rather than one
                // coalesced segment.
                if i % 7 == 0 {
                    thread::sleep(Duration::from_micros(50));
                } else {
                    thread::yield_now();
                }
            }
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        for expected in &packets {
            assert_eq!(&client.recv().unwrap(), expected);
        }
        dribbler.join().unwrap();
    }

    /// The client side of a TCP session can reconnect after the server
    /// drops it; the accept side (no dialable address) cannot.
    #[test]
    fn tcp_reconnect_redials_the_original_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            // First session: accept, then hang up without a word.
            let first = TcpTransport::accept(&listener).unwrap();
            drop(first);
            // Second session: serve one echo.
            let mut second = TcpTransport::accept(&listener).unwrap();
            let p = second.recv().unwrap();
            second.send(&p).unwrap();
            second
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        // Wait for the hangup to surface, then re-dial.
        loop {
            match client.recv() {
                Err(TransportError::Disconnected) | Err(TransportError::Io(_)) => break,
                Ok(_) => continue,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        client.reconnect().unwrap();
        let probe = Packet::Data {
            seq: 9,
            payload: vec![1, 2, 3],
        };
        client.send(&probe).unwrap();
        assert_eq!(client.recv().unwrap(), probe);
        let mut accept_side = server.join().unwrap();
        assert!(matches!(
            accept_side.reconnect(),
            Err(TransportError::Disconnected)
        ));
    }

    /// The `Protocol` variant and every `Display` arm format as the
    /// postmortem pipeline expects (the strings land verbatim in fault
    /// reports, so they are contract, not cosmetics).
    #[test]
    fn transport_error_display_formats() {
        assert_eq!(
            TransportError::Disconnected.to_string(),
            "peer disconnected"
        );
        assert_eq!(
            TransportError::Decode(DecodeError::BadTag(0x7f)).to_string(),
            "decode error: unknown packet tag 0x7f"
        );
        let io_err = TransportError::Io(io::Error::new(io::ErrorKind::TimedOut, "stalled"));
        assert_eq!(io_err.to_string(), "io error: stalled");
        let proto = TransportError::Protocol {
            got: "GrantCycles",
            at: "synchronizer",
        };
        assert_eq!(
            proto.to_string(),
            "protocol error: unexpected GrantCycles packet at synchronizer"
        );
    }

    /// Transient classification: recovery retries disconnects and I/O
    /// errors but never decode/protocol errors (a peer speaking garbage
    /// will not improve on retry).
    #[test]
    fn transient_classification_guides_recovery() {
        assert!(TransportError::Disconnected.is_transient());
        assert!(TransportError::Io(io::Error::new(io::ErrorKind::TimedOut, "x")).is_transient());
        assert!(!TransportError::Decode(DecodeError::BadTag(0)).is_transient());
        assert!(!TransportError::Protocol {
            got: "Data",
            at: "RTL server"
        }
        .is_transient());
    }
}
