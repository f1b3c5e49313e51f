//! Offline stub of `crossbeam`.
//!
//! Re-exports `std::sync::mpsc` under `crossbeam::channel`'s names. No
//! workspace code uses it any more: `rose-bridge` still declares the
//! dependency only because the benchmark package's locked `Cargo.lock`
//! lists it.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError};

    /// Creates an unbounded channel (std's `mpsc::channel`).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(5u32).unwrap();
        assert_eq!(rx.try_recv(), Ok(5));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
